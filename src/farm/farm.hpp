// The IP farm: a concurrent encryption service over many simulated cores.
//
// The paper's pitch is a core cheap enough to stamp out many times on one
// FPGA; this layer is the host-side system that pitch implies. N worker
// threads each own a *private* engine::CipherEngine (behavioral RTL by
// default; software or gate-netlist via FarmConfig::engine) — cores are
// never shared across threads, so the execution hot path takes no locks at
// all. In front of the workers sit bounded per-worker queues
// (any thread may submit: MPMC, and the bound is the backpressure), and a
// SessionTable that routes each request to the worker whose core already
// holds its key, exploiting the on-the-fly key schedule: re-keying costs
// bus cycles (+40 setup cycles for decrypt-capable devices), reuse is free.
//
// Workers drain everything queued per wake-up, and every drained job runs
// one way: as a leg of engine passes through CipherEngine::process_keyed.
// On a lane-packed engine (batch_lanes() > 1: the netlist engine) a pass
// carries the blocks of many legs, whatever their sessions and keys, up
// to the engine's lane count; a CBC encryption is a chain and gives one
// block per pass, so the chains of many sessions share passes.  On a
// one-lane engine a pass is one leg (one block of a chain), in queue
// order.  Each job finishes on its own and is answered when the pass
// holding its last block completes; an empty payload is answered at once.
//
// Requests carry mode (ECB/CBC/CTR), direction, key, IV and payload.
// ECB/CBC payloads run on one core.
// Large CTR payloads fan out: the payload is cut into chunk_blocks-sized
// pieces, each seeded with aes::ctr_counter_at(iv, first_block), scattered
// round-robin over all workers, and spliced back together in order by the
// last chunk to finish — the software analogue of pipelining a stream
// across replicated datapaths.
//
// Completion is a std::future<Result>: submit() enqueues (blocking when the
// target queue is full), try_submit() sheds load instead of blocking, and
// process() is the synchronous convenience. Results complete out of order
// across sessions by design; per-session order holds only if the caller
// serializes (futures are the ordering primitive).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "farm/queue.hpp"
#include "farm/session.hpp"
#include "farm/stats.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace aesip::farm {

class WorkerContext;  // worker-thread-private engine state; defined in farm.cpp

enum class Mode { kEcb, kCbc, kCtr };

const char* mode_name(Mode m) noexcept;

struct FarmConfig {
  int workers = 4;                       ///< simulated cores (>=1)
  std::size_t queue_capacity = 64;       ///< per-worker queue bound
  std::size_t max_sessions = 64;         ///< session-binding table size
  std::size_t ctr_chunk_blocks = 32;     ///< fan-out chunk size, in blocks
  std::size_t ctr_fanout_min_blocks = 64;///< payloads below this stay on one core
  double clock_ns = 14.0;                ///< Tclk for simulated-domain reporting
  bool tracing = false;                  ///< record per-job events (Chrome trace)
  std::size_t trace_capacity = 8192;     ///< events kept per worker ring

  /// Which CipherEngine each worker owns. Netlist farms synthesize ONE
  /// shared immutable gate netlist in the Farm constructor; each worker
  /// evaluates it privately.
  engine::EngineKind engine = engine::EngineKind::kBehavioral;
  /// Per-worker round-engine variant mix: worker i runs
  /// worker_variants[i % size()]. Empty (the default) keeps every worker
  /// on the paper's iterative core. Netlist farms synthesize one shared
  /// netlist PER DISTINCT VARIANT, cached for the farm's lifetime.
  std::vector<arch::VariantSpec> worker_variants;
  /// Custom engine source; overrides `engine` (and `worker_variants`) when
  /// set. Called once per worker, on that worker's thread.
  std::function<std::unique_ptr<engine::CipherEngine>()> engine_factory;

  /// Cross-check policy: fraction of completed jobs (0..1) each worker
  /// re-runs through the software reference after the engine answered.  A
  /// mismatch means the engine is silently corrupted (an SEU, a bad swap):
  /// the job is answered with the *oracle's* bytes — clients never see the
  /// corruption — and, when heal_on_mismatch, the worker quarantines
  /// itself inline, rebuilds a fresh engine and replays its key state
  /// before touching the next job.  Jobs packed into one engine pass ran
  /// on the same engine state, so a mismatch in one has every other job
  /// of that pass checked before it is answered. 0 disables checking (the
  /// default).
  double spot_check_fraction = 0.0;
  bool heal_on_mismatch = true;
  /// Adaptive spot-check controller: after a mismatch the worker samples at
  /// `spot_check_boost_fraction` (clamped up to at least the base rate)
  /// until `spot_check_decay_jobs` consecutive clean checks pass, then
  /// decays back to the base rate.  0 keeps the static policy.  Boost
  /// episodes and boosted checks are counted in FarmStats.
  double spot_check_boost_fraction = 0.0;
  std::uint64_t spot_check_decay_jobs = 64;
};

struct Request {
  std::uint64_t session_id = 0;
  Mode mode = Mode::kCbc;
  bool encrypt = true;           ///< CTR ignores this (XOR is symmetric)
  KeyBytes key{};                ///< 16/24/32 bytes: the length picks AES-128/192/256
  Key128 iv{};                   ///< IV (CBC) / initial counter (CTR); unused by ECB
  std::vector<std::uint8_t> payload;  ///< whole blocks for ECB/CBC; any length for CTR
};

/// The software answer to `req`: aes::Rijndael under the request's key,
/// mode, direction and IV.  The reference every farm answer is checked
/// against (the spot check, and the callers that verify sampled traffic).
std::vector<std::uint8_t> reference(const Request& req);

struct Result {
  std::vector<std::uint8_t> data;
  int worker = -1;               ///< executing worker; -1 when fanned out
  bool key_was_hot = false;      ///< routed to a core already holding the key
  std::uint64_t cycles = 0;      ///< simulated cycles spent (summed over chunks)
  std::uint64_t setup_cycles = 0;///< of which key setup
  std::uint64_t chunks = 1;      ///< 1, or the fan-out width
  bool replayed = false;         ///< spot-check caught a mismatch; data is the oracle's
};

/// Outcome of one live engine hot-swap (Farm::swap_engine).
struct SwapReport {
  int worker = -1;
  std::string from;               ///< engine name before the swap
  std::string to;                 ///< engine name after
  std::uint64_t pause_us = 0;     ///< how long the worker was quiesced
  std::uint64_t setup_cycles = 0; ///< key-state replay cost on the fresh engine
  bool key_replayed = false;      ///< the resident key was carried over
};

class Farm {
 public:
  explicit Farm(const FarmConfig& cfg = {});
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  /// Enqueue a request; blocks while the routed worker's queue is full
  /// (bounded-buffer backpressure). Throws std::invalid_argument for
  /// non-block-multiple ECB/CBC payloads.
  std::future<Result> submit(Request req);

  /// Non-blocking submit: nullopt (and stats().rejected++) when the routed
  /// queue is full. Never fans out — load shedding keeps one decision point.
  std::optional<std::future<Result>> try_submit(Request req);

  /// submit() + get(): the synchronous client call.
  Result process(Request req) { return submit(std::move(req)).get(); }

  /// Whether submit() splits `req` over the workers: a CTR payload of at
  /// least ctr_fanout_min_blocks blocks on a farm of more than one worker.
  bool fans_out(const Request& req) const;

  /// Forget a session binding (its key may stay resident in a slot).
  void end_session(std::uint64_t session_id) { sessions_.end_session(session_id); }

  // --- fleet control plane (live reconfiguration; see docs/fleet.md) --------
  /// Hot-swap `worker`'s engine to `kind` without draining the farm: a
  /// control job jumps the worker's queue, the worker finishes the jobs it
  /// already took off the queue, builds the fresh engine, replays its resident key through the
  /// rekey() fast path and resumes — every queued job runs on the new
  /// engine, none are dropped. The future resolves once the swap executed.
  /// Throws std::out_of_range for a bad worker index.
  std::future<SwapReport> swap_engine(int worker, engine::EngineKind kind);

  /// Hot-swap to a specific round-engine variant of `kind` — the same
  /// quiesce/replay/resume dance, but the fresh core may have a different
  /// microarchitecture (e.g. paper core -> pipe5-xtime). Netlist variants
  /// reuse (or lazily add to) the farm's per-variant netlist cache.
  std::future<SwapReport> swap_engine(int worker, engine::EngineKind kind,
                                      const arch::VariantSpec& variant);

  /// Chaos hook: flip persistent state at `site` (a DFF index) inside
  /// `worker`'s live engine, between jobs — the software model of a
  /// standby SEU. Resolves false when the engine kind has no gate-level
  /// state to upset. Throws std::out_of_range for a bad worker index.
  std::future<bool> inject_fault(int worker, std::size_t site);

  /// Quarantine control: a disabled worker takes no new routes and its
  /// sessions migrate to other workers on their next request; already
  /// queued jobs still execute (zero loss). Counted in stats().quarantines
  /// on the disable edge.
  void set_worker_enabled(int worker, bool enabled);
  bool worker_enabled(int worker) const { return sessions_.worker_enabled(worker); }

  /// The shared immutable gate netlist, once any netlist engine has been
  /// built (at construction for netlist farms, lazily for swaps); null on
  /// farms that never ran a netlist engine. Fault-site classification
  /// (fleet::ChaosInjector) reads the graph through this.
  std::shared_ptr<const netlist::Netlist> shared_netlist() const;

  /// Consistent point-in-time snapshot; callable while traffic is running.
  FarmStats stats() const;

  /// Dump the per-worker event rings as Chrome trace_event JSON (load at
  /// chrome://tracing). No-op returning false unless FarmConfig::tracing.
  bool write_chrome_trace(std::ostream& os) const;

  const FarmConfig& config() const noexcept { return cfg_; }

 private:
  /// Reassembly state shared by the chunks of one fanned-out CTR request.
  struct FanState {
    std::promise<Result> promise;
    std::vector<std::vector<std::uint8_t>> parts;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> setup_cycles{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> replayed{false};  ///< any chunk answered by the oracle
    std::size_t total_bytes = 0;
    std::chrono::steady_clock::time_point t_submit;
  };

  /// One unit of worker work: a whole request, one CTR chunk (its iv is
  /// the chunk's starting counter), or a fleet control action (engine swap
  /// / fault injection) that must run on the worker's own thread — engines
  /// are strictly thread-private, so every mutation travels through the
  /// queue to its owner.
  struct Job : Request {
    std::chrono::steady_clock::time_point t_submit;
    std::promise<Result> promise;        ///< whole-request jobs only
    std::shared_ptr<FanState> fan;       ///< chunk jobs only
    std::size_t chunk_index = 0;
    /// Control jobs: runs instead of cipher work (swap/inject). Pushed to
    /// the queue FRONT so the worker runs it right after the drain in hand.
    std::function<void(class WorkerContext&, int)> control;
  };

  /// Per-worker counters, written only by that worker (relaxed atomics so
  /// stats() can snapshot mid-run); padded against false sharing.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> setup_cycles{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> passes{0};
    std::atomic<std::uint64_t> lane_divergences{0};
    std::atomic<std::uint64_t> uncached_sweeps{0};
  };
  /// A drained job's progress through packed passes, and the worker's
  /// reused pass buffers; defined in farm.cpp.
  struct Leg;
  struct Drain;

  static void validate(const Request& req);
  /// A whole-request job for `req`, stamped with its submit time.
  static Job make_job(Request req);
  std::future<Result> submit_fanout(Request req);
  void worker_main(int index);
  /// Run the cipher jobs between two control jobs as legs of engine
  /// passes: grouped by key size and direction (and sorted by key) on a
  /// lane-packed engine, in queue order on a one-lane engine.
  void run_jobs(std::span<Job> jobs, Drain& d, WorkerContext& ctx, int index);
  /// Run legs [first, last) of one key size and direction in passes: up to
  /// batch_lanes() blocks of any legs, or one leg on a one-lane engine; a
  /// chain gives one block per pass.
  void run_packed(Drain& d, std::size_t first, std::size_t last, WorkerContext& ctx, int index);
  /// After a pass: collect its output into the legs, then finish (undo the
  /// mode, spot-check) every job whose last block it ran; run_packed
  /// answers them once the pass is accounted.
  void finish_pass(Drain& d, WorkerContext& ctx, int index);
  /// Re-run `job` through the software oracle; on a mismatch, replace
  /// `out` with the oracle's bytes and return false.
  bool spot_check(const Job& job, std::vector<std::uint8_t>& out);
  /// Adaptive-sampling bookkeeping for one sampled check's outcome.
  void note_check(bool clean, WorkerContext& ctx);
  /// After a mismatch: quarantine-and-heal inline when configured.
  void heal_after_mismatch(WorkerContext& ctx, int index);
  /// Account one finished job to worker `index` and answer it.
  void deliver(Job& job, std::vector<std::uint8_t> out, std::uint64_t cycles,
               std::uint64_t setup, bool replayed, int index);
  void fail(Job& job);
  void record_latency(std::chrono::steady_clock::time_point t_submit);

  /// The variant worker `index` is configured to run.
  arch::VariantSpec variant_for_worker(int index) const;
  /// Factory for `kind` running `variant` at any requested key size (the
  /// int argument overrides variant.key_bits), sharing (and lazily adding
  /// to) the farm-wide per-variant netlist cache.  The netlist for the
  /// variant's own key size is synthesized eagerly, so swap_engine pays
  /// synthesis on the control plane, not the worker.
  std::function<std::unique_ptr<engine::CipherEngine>(int)> factory_for(
      engine::EngineKind kind, const arch::VariantSpec& variant);
  /// The shared immutable netlist for `spec` (synthesizes on first use).
  std::shared_ptr<const netlist::Netlist> netlist_for(const arch::VariantSpec& spec);
  /// Front-push a control job onto `worker`'s queue (range-checked).
  void push_control(int worker, std::function<void(WorkerContext&, int)> fn);
  /// Inline quarantine-rebuild on the owning thread; returns the pause in us.
  std::uint64_t heal_worker(WorkerContext& ctx, int index);

  FarmConfig cfg_;
  const char* engine_name_ = "custom";  ///< for stats; kind name or "custom"
  /// The lane backend behind the workers' process_batch ("none" until the
  /// first worker engine is built; netlist engines report their resolved
  /// netlist::BatchBackend).  Published by worker threads at engine
  /// construction, read lock-free by stats().
  std::atomic<const char*> batch_backend_{nullptr};
  std::atomic<std::size_t> batch_lanes_{0};
  /// Per-worker engine factory + label (the configured variant mix);
  /// filled at construction, read by each worker at thread start.  Each
  /// factory takes the key size (bits) the engine must be geared for.
  std::vector<std::function<std::unique_ptr<engine::CipherEngine>(int)>> worker_factories_;
  std::vector<const char*> worker_labels_;
  std::vector<int> worker_key_bits_;  ///< each worker's configured (primary) key size
  SessionTable sessions_;
  std::vector<std::unique_ptr<BoundedQueue<Job>>> queues_;
  std::vector<WorkerCounters> counters_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point start_;

  // Observability: wait-free recording on the worker/submit paths; see
  // obs::Histogram / obs::Tracer for the memory-ordering story.
  obs::Histogram queue_depth_hist_;
  obs::Histogram queue_wait_us_hist_;
  std::unique_ptr<obs::Tracer> tracer_;

  std::atomic<std::uint64_t> requests_done_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> ctr_fanouts_{0};
  std::atomic<std::uint64_t> ctr_chunks_{0};

  // Fleet control plane. Each variant's netlist is synthesized once and
  // shared by every netlist engine the farm ever builds (construction or
  // swap alike); shared_netlist_ is the paper core's (the chaos-injection
  // classification target), variant_netlists_ holds the rest by name.
  mutable std::mutex netlist_mu_;
  std::shared_ptr<const netlist::Netlist> shared_netlist_;
  std::map<std::string, std::shared_ptr<const netlist::Netlist>> variant_netlists_;
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> heals_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> spot_checks_{0};
  std::atomic<std::uint64_t> spot_mismatches_{0};
  std::atomic<std::uint64_t> replayed_jobs_{0};
  std::atomic<std::uint64_t> spot_boosts_{0};        ///< adaptive boost episodes entered
  std::atomic<std::uint64_t> spot_boost_checks_{0};  ///< checks sampled at the boosted rate
  std::atomic<int> workers_boosted_{0};              ///< gauge: workers currently boosted
  obs::Histogram swap_pause_us_hist_;
  /// Per-worker engine label, written by the owner on swap/heal, read by
  /// stats(); values are static-duration kind names (or "custom").
  std::unique_ptr<std::atomic<const char*>[]> worker_engine_;

  obs::Histogram latency_us_hist_;  ///< submit -> answer, per request
};

}  // namespace aesip::farm
