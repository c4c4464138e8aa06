// Workloads, their seeded traffic, and the closed-loop load generator that
// drives an in-process net::Server over TCP on 127.0.0.1 (the host
// loopback interface, not a real link) and verifies every reply byte for
// byte against ciphertext precomputed with the aes:: oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "farm/farm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "spans.hpp"

namespace perfbench {

namespace engine = aesip::engine;
namespace farm = aesip::farm;
namespace net = aesip::net;

struct Workload {
  const char* name;
  engine::EngineKind engine;
  int workers;           ///< farm workers
  int sessions;          ///< one connection and one load thread each
  std::size_t window;    ///< data frames each session keeps outstanding
  std::size_t blocks;    ///< 16-byte blocks per frame
  bool mixed;            ///< AES-128/192/256 rotation, CBC enc/dec, periodic rekey
  bool pinned;           ///< confine the whole process to one CPU
};

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// Frames between re-keys on a mixed session.
inline constexpr std::uint64_t kRekeyEvery = 64;

/// One session's seeded traffic: a ring of keys, a pool of payloads, and
/// the oracle's answer for every (key, payload, direction) the session
/// will send. Frame n of a session is fully determined by n.
struct SessionPlan {
  std::uint64_t session_id = 0;
  std::vector<std::vector<std::uint8_t>> keys;
  std::vector<std::vector<std::uint8_t>> payloads;
  farm::Key128 iv{};
  /// expect[(key * payloads + payload) * 2 + (encrypt ? 0 : 1)]
  std::vector<std::vector<std::uint8_t>> expect;

  struct Frame {
    std::size_t key;
    std::size_t payload;
    bool encrypt;
    bool cbc;
  };
  Frame frame(const Workload& w, std::uint64_t n) const;
  const std::vector<std::uint8_t>& expected(const Frame& f) const {
    return expect[(f.key * payloads.size() + f.payload) * 2 + (f.encrypt ? 0 : 1)];
  }
};

std::vector<SessionPlan> make_plan(const Workload& w, std::uint64_t seed);

/// The server configuration a workload is served with.
net::ServerConfig server_config(const Workload& w);

/// Counters every load thread adds to; read by the measuring thread.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};  ///< data frames submitted
  std::atomic<std::uint64_t> failed{0};     ///< kError, timeout or any wrong byte
  std::atomic<std::uint64_t> frames_ok{0};
  std::atomic<std::uint64_t> blocks_ok{0};
};

/// A served stack: a TCP server plus one connected client per session,
/// each keyed and holding its first verified reply.
class Stack {
 public:
  Stack(const Workload& w, const std::vector<SessionPlan>& plan, net::ServerConfig cfg,
        Tally& tally);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Seconds from Server construction to the last session's first
  /// verified reply.
  double setup_s() const { return setup_s_; }
  net::Server& server() { return *server_; }

  struct Session {
    const SessionPlan* plan = nullptr;
    std::unique_ptr<net::Client> client;
    std::uint64_t next_frame = 0;
  };
  std::vector<Session>& sessions() { return sessions_; }

 private:
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Server> server_;
  std::vector<Session> sessions_;
  double setup_s_ = 0;
};

/// RTT histogram geometry: log-linear buckets of nanoseconds, 64 per
/// power of two (under 1 % relative error) up to about 68 s. A run keeps
/// one fixed-size histogram instead of every sample, so the benchmark's
/// own memory does not grow with the frames a run completes.
inline constexpr std::size_t kRttBuckets = 2048;
std::size_t rtt_bucket(double us);
double rtt_bucket_us(std::size_t bucket);  ///< the bucket's midpoint
/// Quantile `q` of a histogram (0 when empty).
double rtt_quantile(const std::vector<std::uint64_t>& counts, double q);

/// Totals over the measured window of a served run.
struct Measured {
  double secs = 0;
  std::uint64_t blocks = 0;
  std::uint64_t frames = 0;
  double cpu_us = 0;         ///< process user+sys time
  std::uint64_t ctx_switches = 0;
  double steal_s = 0;        ///< time the hypervisor ran other guests on our CPUs
  std::vector<std::uint64_t> rtt;  ///< RTT histogram of the frames completed in it
  double rtt_sum_us = 0;           ///< sum of those frames' RTTs, exact

  /// Share of the process's runnable CPU time the hypervisor took, on the
  /// assumption that the process was CPU-bound (README, "Unstolen time").
  double stolen() const { return steal_s + cpu_us * 1e-6 > 0 ? steal_s / (steal_s + cpu_us * 1e-6) : 0; }
  /// Wall seconds the hypervisor left to the process.
  double unstolen_secs() const { return secs * (1 - stolen()); }
};

struct Served {
  Measured measured;
  std::vector<float> submit_us;  ///< Client::submit_* call times (traced runs)
  bool broken = false;        ///< a session died (exception); its frames count failed
};

/// Drive every session of `stack` closed-loop: `warmup_s` unmeasured,
/// then `measure_s` measured. `spans`, when given, records client.submit /
/// frame.rtt / verify spans per frame.
Served drive(const Workload& w, Stack& stack, Tally& tally, double warmup_s, double measure_s,
             SpanLog* spans);

/// Drive until each session completed `frames` frames (self-test use).
Served drive_frames(const Workload& w, Stack& stack, Tally& tally, std::uint64_t frames);

/// The same traffic through Farm::submit with no wire: `sessions` threads,
/// `window` futures each, verified. Returns verified blocks per unstolen
/// second.
double drive_farm_direct(const Workload& w, const std::vector<SessionPlan>& plan,
                         double seconds, Tally& tally);

double cpu_seconds();            ///< process user+sys time
std::uint64_t ctx_switches();    ///< voluntary + involuntary, process-wide
double peak_rss_mib();
/// Hypervisor steal time summed over `cpus`, from /proc/stat.
double steal_s(const std::vector<int>& cpus);
/// The CPUs this thread may run on.
std::vector<int> allowed_cpus();

}  // namespace perfbench
