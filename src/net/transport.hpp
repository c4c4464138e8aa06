// Transport: the byte-stream abstraction under the wire protocol.
//
// Two implementations with one contract so every layer above (FrameCodec,
// Server, Client, loadgen, bench) is transport-blind:
//
//  * TcpTransport       — real non-blocking POSIX sockets over localhost or
//                         the network; waiting is poll(2) on the fds.
//  * LoopbackTransport  — a deterministic in-process byte pipe for CI and
//                         benches: no kernel, no ports, no flakes, and a
//                         configurable per-call chunk cap that *forces* the
//                         short-read/short-write paths protocol tests need.
//
// The contract is deliberately minimal and non-blocking: read_some /
// write_some never block (kWouldBlock instead), and the wait_* calls are
// how callers sleep until progress is possible. A Listener additionally
// aggregates waiting over everything it accepted, which is exactly the
// shape a poll-based server loop wants.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace aesip::net {

enum class IoStatus {
  kOk,          ///< n bytes transferred (n >= 1)
  kWouldBlock,  ///< nothing transferable right now; try after wait_*
  kEof,         ///< peer closed cleanly (reads only)
  kError,       ///< connection is dead (reset, broken pipe, ...)
};

struct IoResult {
  std::size_t n = 0;
  IoStatus status = IoStatus::kOk;
};

/// One established byte-stream connection. Single-owner: not thread-safe
/// (the server's event loop or the client own theirs exclusively).
class Conn {
 public:
  virtual ~Conn() = default;

  virtual IoResult read_some(std::span<std::uint8_t> buf) = 0;
  virtual IoResult write_some(std::span<const std::uint8_t> buf) = 0;

  /// Sleep until readable / EOF (true) or timeout (false).
  virtual bool wait_readable(std::chrono::milliseconds timeout) = 0;
  /// Sleep until writable (true) or timeout (false).
  virtual bool wait_writable(std::chrono::milliseconds timeout) = 0;

  /// Half-close is not modeled: close() tears the connection down. The
  /// peer sees kEof after draining whatever was already written.
  virtual void close() = 0;
  virtual std::string peer() const = 0;

  /// The OS handle (socket fd) behind this connection, or -1 when there
  /// is none (loopback pipes), for socket options the transport does not
  /// set itself. Each live conn owns its handle.
  virtual int native_handle() const noexcept { return -1; }
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Non-blocking: the next pending connection, or nullptr.
  virtual std::unique_ptr<Conn> accept() = 0;

  /// Sleep until a connection is pending, any connection this listener
  /// accepted has activity (readable bytes, EOF, writability after a
  /// stall), or `timeout` elapses. Spurious wakeups are allowed — callers
  /// re-scan, they don't trust the wakeup.
  virtual void wait(std::chrono::milliseconds timeout) = 0;

  /// The resolved address ("127.0.0.1:49152" after listening on port 0).
  virtual std::string address() const = 0;
  virtual void close() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind and listen. TCP addresses are "host:port" (port 0 = ephemeral);
  /// loopback addresses are arbitrary names. Throws on failure.
  virtual std::unique_ptr<Listener> listen(const std::string& address) = 0;

  /// Connect or throw std::runtime_error (nobody listening, refused...).
  /// The Client wraps this in its retry/backoff loop.
  virtual std::unique_ptr<Conn> connect(const std::string& address) = 0;

  virtual const char* name() const noexcept = 0;
};

/// Deterministic in-process transport. All connections live inside this
/// object; server and client must share the instance (it is thread-safe —
/// that is the point). `max_chunk` caps the bytes any single read_some /
/// write_some moves, so a small value exercises partial-I/O handling;
/// `pipe_capacity` bounds each direction's buffer (writes beyond it see
/// kWouldBlock — backpressure, like a full socket buffer).
struct LoopbackHub;  // the shared in-process "network" (transport.cpp)

class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::size_t max_chunk = 1u << 16,
                             std::size_t pipe_capacity = 1u << 20);
  ~LoopbackTransport() override;

  std::unique_ptr<Listener> listen(const std::string& address) override;
  std::unique_ptr<Conn> connect(const std::string& address) override;
  const char* name() const noexcept override { return "loopback"; }

 private:
  std::shared_ptr<LoopbackHub> hub_;
};

/// Non-blocking TCP sockets; addresses are "host:port". Stateless factory
/// (every listener/conn owns its fd), safe to share across threads.
std::unique_ptr<Transport> make_tcp_transport();

}  // namespace aesip::net
