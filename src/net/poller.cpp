#include "net/poller.hpp"

#include <algorithm>
#include <thread>

#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace aesip::net {

namespace {

/// Normalize a watch list: drop the -1 placeholders and sort, which the
/// epoll diff walk needs.
std::vector<int> normalize(std::vector<int> fds) {
  fds.erase(std::remove_if(fds.begin(), fds.end(), [](int fd) { return fd < 0; }), fds.end());
  std::sort(fds.begin(), fds.end());
  return fds;
}

#ifdef __linux__

class EpollReadinessSet final : public ReadinessSet {
 public:
  /// Takes ownership of `epfd`, a valid epoll instance.
  explicit EpollReadinessSet(int epfd) : epfd_(epfd) {}
  EpollReadinessSet(const EpollReadinessSet&) = delete;
  EpollReadinessSet& operator=(const EpollReadinessSet&) = delete;

  ~EpollReadinessSet() override { ::close(epfd_); }

  void rebuild(const std::vector<int>& fds) override {
    std::vector<int> want = normalize(fds);
    if (want == watched_) return;
    // Diff against the previous set: the kernel keeps the interest list,
    // so only the churn costs syscalls.
    std::size_t i = 0, j = 0;
    while (i < watched_.size() || j < want.size()) {
      if (j == want.size() || (i < watched_.size() && watched_[i] < want[j])) {
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, watched_[i], nullptr);
        ++i;
      } else if (i == watched_.size() || want[j] < watched_[i]) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = want[j];
        ::epoll_ctl(epfd_, EPOLL_CTL_ADD, want[j], &ev);
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    watched_ = std::move(want);
  }

  void forget(int fd) override {
    const auto it = std::lower_bound(watched_.begin(), watched_.end(), fd);
    if (it == watched_.end() || *it != fd) return;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    watched_.erase(it);
  }

  void wait(std::chrono::milliseconds timeout) override {
    if (watched_.empty()) {
      std::this_thread::sleep_for(timeout);
      return;
    }
    epoll_event events[16];
    ::epoll_wait(epfd_, events, 16, static_cast<int>(timeout.count()));
  }

  const char* name() const noexcept override { return "epoll"; }

 private:
  int epfd_;
  std::vector<int> watched_;  ///< sorted, no negatives
};

#endif  // __linux__

class PollReadinessSet final : public ReadinessSet {
 public:
  void rebuild(const std::vector<int>& fds) override { watched_ = normalize(fds); }
  void forget(int fd) override { std::erase(watched_, fd); }

  void wait(std::chrono::milliseconds timeout) override {
    if (watched_.empty()) {
      std::this_thread::sleep_for(timeout);
      return;
    }
    std::vector<pollfd> polls;
    polls.reserve(watched_.size());
    for (const int fd : watched_) polls.push_back({fd, POLLIN, 0});
    ::poll(polls.data(), static_cast<nfds_t>(polls.size()),
           static_cast<int>(timeout.count()));
  }

  const char* name() const noexcept override { return "poll"; }

 private:
  std::vector<int> watched_;
};

}  // namespace

std::unique_ptr<ReadinessSet> make_readiness_set() {
#ifdef __linux__
  const int epfd = ::epoll_create1(0);
  if (epfd >= 0) return std::make_unique<EpollReadinessSet>(epfd);
#endif
  return std::make_unique<PollReadinessSet>();
}

}  // namespace aesip::net
