#include "loadgen.hpp"

#include <sched.h>
#include <sys/socket.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "net/transport.hpp"

namespace perfbench {

namespace aes = aesip::aes;

namespace {

// Why each workload exists: see perfbench/README.md.
const Workload kWorkloads[] = {
    // name              engine                       workers sessions window blocks mixed pinned
    {"netlist-small", engine::EngineKind::kNetlist, 2, 4, 32, 1, false, false},
    {"netlist-bulk", engine::EngineKind::kNetlist, 2, 2, 4, 1024, false, false},
    {"behavioral-mixed", engine::EngineKind::kBehavioral, 2, 4, 8, 16, true, false},
    {"sw-rtt", engine::EngineKind::kSoftware, 1, 1, 1, 1, false, true},
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

float us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<float>(std::chrono::duration<double, std::micro>(b - a).count());
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::vector<std::uint8_t> oracle(const SessionPlan& p, std::size_t key, std::size_t payload,
                                 bool encrypt, bool cbc) {
  const aes::Rijndael ref = aes::Rijndael::for_key(p.keys[key]);
  const std::span<const std::uint8_t, 16> iv(p.iv.data(), 16);
  const auto& in = p.payloads[payload];
  if (!cbc) return encrypt ? aes::ecb_encrypt(ref, in) : aes::ecb_decrypt(ref, in);
  return encrypt ? aes::cbc_encrypt(ref, iv, in) : aes::cbc_decrypt(ref, iv, in);
}

/// TCP whose client side closes abortively: SO_LINGER {1, 0} makes close()
/// send RST, so the thousands of connections the cold starts open and
/// close leave no TIME_WAIT sockets behind. With about 7000 of those on
/// the host, cold starts took 20 % longer (README, "No TIME_WAIT").
/// Clients close only after the server's kByeOk, so no data is lost.
class NoTimeWaitTcp final : public net::Transport {
 public:
  std::unique_ptr<net::Listener> listen(const std::string& address) override {
    return tcp_->listen(address);
  }
  std::unique_ptr<net::Conn> connect(const std::string& address) override {
    auto conn = tcp_->connect(address);
    const linger abort_on_close{1, 0};
    if (::setsockopt(conn->native_handle(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                     sizeof abort_on_close) != 0)
      throw std::runtime_error("perfbench: setsockopt(SO_LINGER) failed");
    return conn;
  }
  const char* name() const noexcept override { return tcp_->name(); }

 private:
  std::unique_ptr<net::Transport> tcp_ = net::make_tcp_transport();
};

struct Control {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  mutable std::array<std::atomic<std::uint64_t>, kRttBuckets> rtt{};
  mutable std::atomic<std::uint64_t> rtt_ns{0};  ///< sum of the histogram's samples
};

struct ThreadOut {
  std::vector<float> submit_us;
  bool broken = false;
};

/// One session's closed loop: keep `window` frames outstanding, collect
/// the oldest, verify it, repeat — until stopped or `frame_limit` frames
/// (counting the set-up frame) completed.
void run_session(const Workload& w, Stack::Session& s, Tally& tally, const Control& ctl,
                 std::uint64_t frame_limit, ThreadOut& out, Track* track) {
  struct Pending {
    std::uint32_t seq;
    SessionPlan::Frame f;
    Clock::time_point t0;
  };
  std::deque<Pending> pending;
  const SessionPlan& plan = *s.plan;
  net::Client& client = *s.client;
  bool submitting = false;

  const auto complete_oldest = [&] {
    const Pending& p = pending.front();
    const auto reply = client.wait(p.seq);
    const auto t1 = Clock::now();
    const bool ok = reply == plan.expected(p.f);
    const auto t2 = Clock::now();
    if (ok) {
      tally.frames_ok.fetch_add(1, std::memory_order_relaxed);
      tally.blocks_ok.fetch_add(w.blocks, std::memory_order_relaxed);
    } else {
      tally.failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (ctl.measuring.load(std::memory_order_relaxed)) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - p.t0).count();
      ctl.rtt[rtt_bucket(static_cast<double>(ns) * 1e-3)].fetch_add(1, std::memory_order_relaxed);
      ctl.rtt_ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    }
    if (track) {
      track->add({"frame.rtt", p.t0, t2, plan.session_id, p.seq, ""});
      track->add({"verify", t1, t2, plan.session_id, p.seq, "frame.rtt"});
    }
    pending.pop_front();
  };

  try {
    while (!ctl.stop.load(std::memory_order_relaxed) &&
           (frame_limit == 0 || s.next_frame < frame_limit)) {
      if (w.mixed && s.next_frame % kRekeyEvery == 0) {
        // Re-key at a frame boundary of the key ring: everything sent
        // under the old key is answered first.
        while (!pending.empty()) complete_oldest();
        client.rekey(plan.keys[plan.frame(w, s.next_frame).key]);
      }
      const SessionPlan::Frame f = plan.frame(w, s.next_frame);
      std::vector<std::uint8_t> data = plan.payloads[f.payload];
      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      submitting = true;
      const auto t0 = Clock::now();
      const std::uint32_t seq = f.encrypt ? client.submit_enc(f.cbc, plan.iv, std::move(data))
                                          : client.submit_dec(f.cbc, plan.iv, std::move(data));
      const auto t1 = Clock::now();
      submitting = false;
      if (track) {
        out.submit_us.push_back(us_between(t0, t1));
        track->add({"client.submit", t0, t1, plan.session_id, seq, "frame.rtt"});
      }
      pending.push_back({seq, f, t0});
      ++s.next_frame;
      if (pending.size() >= w.window) complete_oldest();
    }
    while (!pending.empty()) complete_oldest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: session %llu failed: %s\n",
                 static_cast<unsigned long long>(plan.session_id), e.what());
    tally.failed.fetch_add(pending.size() + (submitting ? 1 : 0), std::memory_order_relaxed);
    out.broken = true;
  }
}

Served run_sessions(const Workload& w, Stack& stack, Tally& tally, double warmup_s,
                    double measure_s, std::uint64_t frame_limit, SpanLog* spans) {
  Control ctl;
  auto& sessions = stack.sessions();
  std::vector<ThreadOut> outs(sessions.size());
  std::vector<Track*> tracks(sessions.size(), nullptr);
  if (spans)
    for (auto& t : tracks) t = &spans->track();

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < sessions.size(); ++i)
    threads.emplace_back([&, i] {
      run_session(w, sessions[i], tally, ctl, frame_limit, outs[i], tracks[i]);
    });

  Served served;
  if (frame_limit == 0) {
    const std::vector<int> cpus = allowed_cpus();
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    Measured& m = served.measured;
    const auto t0 = Clock::now();
    const std::uint64_t blocks0 = tally.blocks_ok.load(), frames0 = tally.frames_ok.load(),
                        csw0 = ctx_switches();
    const double cpu0 = cpu_seconds(), steal0 = steal_s(cpus);
    ctl.measuring.store(true, std::memory_order_relaxed);
    std::this_thread::sleep_until(t0 + std::chrono::duration<double>(measure_s));
    ctl.measuring.store(false, std::memory_order_relaxed);
    m.secs = secs_between(t0, Clock::now());
    m.blocks = tally.blocks_ok.load() - blocks0;
    m.frames = tally.frames_ok.load() - frames0;
    m.cpu_us = (cpu_seconds() - cpu0) * 1e6;
    m.ctx_switches = ctx_switches() - csw0;
    m.steal_s = steal_s(cpus) - steal0;
    ctl.stop.store(true, std::memory_order_relaxed);
  }
  for (auto& t : threads) t.join();
  served.measured.rtt.resize(kRttBuckets);
  for (std::size_t b = 0; b < kRttBuckets; ++b)
    served.measured.rtt[b] = ctl.rtt[b].load(std::memory_order_relaxed);
  served.measured.rtt_sum_us = static_cast<double>(ctl.rtt_ns.load()) * 1e-3;
  for (auto& o : outs) {
    served.submit_us.insert(served.submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    served.broken = served.broken || o.broken;
  }
  return served;
}

}  // namespace

std::size_t rtt_bucket(double us) {
  const auto ns = static_cast<std::uint64_t>(std::max(0.0, us * 1e3));
  if (ns < 64) return static_cast<std::size_t>(ns);
  const int e = 63 - std::countl_zero(ns);  // >= 6
  const std::size_t b = static_cast<std::size_t>(e - 5) * 64 + ((ns >> (e - 6)) & 63);
  return std::min(b, kRttBuckets - 1);
}

double rtt_bucket_us(std::size_t bucket) {
  if (bucket < 64) return static_cast<double>(bucket) * 1e-3;
  const int e = static_cast<int>(bucket / 64) + 5;
  const double lo = std::ldexp(static_cast<double>(64 + bucket % 64), e - 6);
  return (lo + std::ldexp(0.5, e - 6)) * 1e-3;
}

double rtt_quantile(const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen > rank) return rtt_bucket_us(b);
  }
  return rtt_bucket_us(counts.size() - 1);
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

SessionPlan::Frame SessionPlan::frame(const Workload& w, std::uint64_t n) const {
  Frame f{};
  f.key = w.mixed ? static_cast<std::size_t>((n / kRekeyEvery) % keys.size()) : 0;
  f.payload = static_cast<std::size_t>(n % payloads.size());
  f.encrypt = !w.mixed || n % 2 == 0;
  f.cbc = w.mixed;
  return f;
}

std::vector<SessionPlan> make_plan(const Workload& w, std::uint64_t seed) {
  static constexpr std::size_t kKeyBytes[] = {16, 24, 32};
  std::vector<SessionPlan> plan(static_cast<std::size_t>(w.sessions));
  for (std::size_t s = 0; s < plan.size(); ++s) {
    SessionPlan& p = plan[s];
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull ^ fnv1a(w.name) ^ (s + 1));
    const auto fill = [&rng](std::vector<std::uint8_t>& v) {
      for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    };
    p.session_id = s + 1;
    // Mixed sessions walk a ring of six keys, two of each size, starting
    // at a different size per session so all three are live at once.
    const std::size_t n_keys = w.mixed ? 6 : 1;
    for (std::size_t k = 0; k < n_keys; ++k) {
      p.keys.emplace_back(w.mixed ? kKeyBytes[(s + k) % 3] : 16);
      fill(p.keys.back());
    }
    const std::size_t n_payloads = w.blocks >= 64 ? 4 : 16;
    for (std::size_t i = 0; i < n_payloads; ++i) {
      p.payloads.emplace_back(w.blocks * 16);
      fill(p.payloads.back());
    }
    for (auto& b : p.iv) b = static_cast<std::uint8_t>(rng());
    for (std::size_t k = 0; k < n_keys; ++k)
      for (std::size_t i = 0; i < n_payloads; ++i) {
        p.expect.push_back(oracle(p, k, i, true, w.mixed));
        p.expect.push_back(w.mixed ? oracle(p, k, i, false, true) : std::vector<std::uint8_t>{});
      }
  }
  return plan;
}

net::ServerConfig server_config(const Workload& w) {
  net::ServerConfig cfg;
  cfg.farm.workers = w.workers;
  cfg.farm.engine = w.engine;
  cfg.threads = 1;
  cfg.window = w.window;
  return cfg;
}

Stack::Stack(const Workload& w, const std::vector<SessionPlan>& plan, net::ServerConfig cfg,
             Tally& tally)
    : transport_(std::make_unique<NoTimeWaitTcp>()) {
  const auto t0 = Clock::now();
  server_ = std::make_unique<net::Server>(*transport_, "127.0.0.1:0", std::move(cfg));
  server_->start();
  for (const SessionPlan& p : plan) {
    Session s;
    s.plan = &p;
    s.client = std::make_unique<net::Client>(*transport_, server_->address(), p.session_id);
    s.client->set_key(p.keys[0]);
    const SessionPlan::Frame f = p.frame(w, 0);
    tally.attempted.fetch_add(1, std::memory_order_relaxed);
    const auto reply = s.client->enc_blocks(f.cbc, p.iv, p.payloads[f.payload]);
    if (reply == p.expected(f)) {
      tally.frames_ok.fetch_add(1, std::memory_order_relaxed);
      tally.blocks_ok.fetch_add(w.blocks, std::memory_order_relaxed);
    } else {
      tally.failed.fetch_add(1, std::memory_order_relaxed);
    }
    s.next_frame = 1;
    sessions_.push_back(std::move(s));
  }
  setup_s_ = secs_between(t0, Clock::now());
}

Stack::~Stack() {
  for (auto& s : sessions_) {
    try {
      s.client->bye();
    } catch (const std::exception&) {
      // The server may already have closed the connection; nothing to do.
    }
    s.client.reset();
  }
  server_->stop();
}

Served drive(const Workload& w, Stack& stack, Tally& tally, double warmup_s, double measure_s,
             SpanLog* spans) {
  return run_sessions(w, stack, tally, warmup_s, measure_s, 0, spans);
}

Served drive_frames(const Workload& w, Stack& stack, Tally& tally, std::uint64_t frames) {
  return run_sessions(w, stack, tally, 0, 0, frames, nullptr);
}

double drive_farm_direct(const Workload& w, const std::vector<SessionPlan>& plan,
                         double seconds, Tally& tally) {
  farm::FarmConfig cfg = server_config(w).farm;
  farm::Farm f(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (const SessionPlan& p : plan)
    threads.emplace_back([&, pp = &p] {
      std::deque<std::pair<std::future<farm::Result>, SessionPlan::Frame>> pending;
      const auto complete_oldest = [&] {
        const auto r = pending.front().first.get();
        if (r.data == pp->expected(pending.front().second)) {
          tally.frames_ok.fetch_add(1, std::memory_order_relaxed);
          tally.blocks_ok.fetch_add(w.blocks, std::memory_order_relaxed);
        } else {
          tally.failed.fetch_add(1, std::memory_order_relaxed);
        }
        pending.pop_front();
      };
      for (std::uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        const SessionPlan::Frame fr = pp->frame(w, n);
        farm::Request req;
        req.session_id = pp->session_id;
        req.mode = fr.cbc ? farm::Mode::kCbc : farm::Mode::kEcb;
        req.encrypt = fr.encrypt;
        req.key = *farm::KeyBytes::from(pp->keys[fr.key]);
        req.iv = pp->iv;
        req.payload = pp->payloads[fr.payload];
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        pending.emplace_back(f.submit(std::move(req)), fr);
        if (pending.size() >= w.window) complete_oldest();
      }
      while (!pending.empty()) complete_oldest();
    });
  // Same warm-up rule as the served runs: let engines and caches settle.
  std::this_thread::sleep_for(std::chrono::duration<double>(std::min(0.5, seconds / 2)));
  const std::vector<int> cpus = allowed_cpus();
  const auto t0 = Clock::now();
  const std::uint64_t b0 = tally.blocks_ok.load();
  const double cpu0 = cpu_seconds(), steal0 = steal_s(cpus);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  Measured sl;
  sl.secs = secs_between(t0, Clock::now());
  sl.blocks = tally.blocks_ok.load() - b0;
  sl.cpu_us = (cpu_seconds() - cpu0) * 1e6;
  sl.steal_s = steal_s(cpus) - steal0;
  const double bps = static_cast<double>(sl.blocks) / sl.unstolen_secs();
  stop.store(true);
  for (auto& t : threads) t.join();
  return bps;
}

double cpu_seconds() {
  const rusage ru = self_usage();
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::uint64_t ctx_switches() {
  const rusage ru = self_usage();
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double steal_s(const std::vector<int>& cpus) {
  // /proc/stat lines "cpuN user nice system idle iowait irq softirq steal
  // ...", in USER_HZ ticks; sum the steal column over `cpus`.
  std::ifstream stat("/proc/stat");
  std::string line;
  double ticks = 0;
  while (std::getline(stat, line)) {
    int cpu = -1;
    double t[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %lf %lf %lf %lf %lf %lf %lf %lf", &cpu, &t[0], &t[1],
                    &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 9 &&
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end())
      ticks += t[7];
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak instead.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

}  // namespace perfbench
