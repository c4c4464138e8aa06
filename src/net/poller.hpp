// ReadinessSet: bulk read-readiness waiting for the server's event loops.
//
// A worker loop owns a set of connections; when none of them made progress
// it must sleep until bytes arrive on *any* of them. poll(2) rebuilds the
// kernel's interest list on every call — O(conns) per wakeup — which is the
// single-threaded server's hidden scaling wall. epoll keeps the interest
// list in the kernel across calls, so a wakeup costs O(ready), not
// O(watched). This interface wraps both behind one shape:
//
//   set.rebuild(fds);   // only when the conn set changed (cheap to diff)
//   set.wait(timeout);  // sleep until any fd is readable, or timeout
//   set.forget(fd);     // before closing a watched fd
//
// Wakeups are advisory, exactly like Listener::wait — callers re-scan their
// connections, they never trust the wakeup. Each live conn owns its handle
// (Conn::native_handle), so a watch list holds no duplicates. Negative
// handles are skipped (loopback conns have no fd — a loop holding only
// those degrades to plain sleeping, which the 1 ms poll interval bounds).
//
// make_readiness_set() returns the epoll implementation on Linux and the
// portable poll(2) one elsewhere, or when epoll_create1 fails (EMFILE,
// ENOMEM); name() says which, and BENCH_net's epoll section records it.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

namespace aesip::net {

class ReadinessSet {
 public:
  virtual ~ReadinessSet() = default;

  /// Replace the watched set. Order is irrelevant; -1 entries are
  /// ignored. The fds are distinct (one per live conn).
  virtual void rebuild(const std::vector<int>& fds) = 0;

  /// Stop watching `fd`; call it before closing a watched fd.  Once the
  /// fd is closed its number may be reused at once by any thread (a
  /// client socket, a connection another loop accepted), so a later
  /// rebuild() must not touch the old entry, and must see a reused number
  /// as new.
  virtual void forget(int fd) = 0;

  /// Sleep until any watched fd is readable (or has an error/EOF pending)
  /// or `timeout` elapses. With an empty watch set this is a plain sleep.
  virtual void wait(std::chrono::milliseconds timeout) = 0;

  virtual const char* name() const noexcept = 0;
};

std::unique_ptr<ReadinessSet> make_readiness_set();

}  // namespace aesip::net
