// Farm telemetry: what the service layer measures and how it reports it.
//
// Two time domains coexist and both matter:
//
//  * host wall-clock — how fast this process simulates the farm. Honest
//    about the machine running the model; on a single-CPU host it does NOT
//    scale with workers, because every simulated core shares one real one.
//  * simulated time — each worker's private hdl::Simulator advances its own
//    cycle counter, and the cores would run *concurrently* in hardware, so
//    the farm's simulated makespan is max(worker cycles), not the sum.
//    Aggregate hardware throughput = total blocks / (makespan x Tclk).
//    This is the paper's replication story quantified: N cheap cores ≈ N x
//    the Table 2 single-core throughput, minus re-key overhead.
//
// FarmStats is the one snapshot of a farm: a plain value, safe to copy out
// of a running farm and serialize (report()/write_json()) without holding
// farm locks. The fleet admin plane, the cluster roll-up and every CLI
// surface use it as is; nothing else renders it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace aesip::report {
class JsonWriter;
}

namespace aesip::farm {

struct WorkerStats {
  std::uint64_t requests = 0;      ///< jobs (incl. fan-out chunks) executed
  std::uint64_t blocks = 0;        ///< 16-byte blocks pushed through the core
  std::uint64_t cycles = 0;        ///< simulated cycles this worker's core ran
  std::uint64_t setup_cycles = 0;  ///< cycles spent re-keying (the affinity miss cost)
  std::uint64_t busy_ns = 0;       ///< host time spent executing jobs
  std::uint64_t passes = 0;        ///< engine passes run (blocks / passes = blocks per pass)
  std::uint64_t lane_divergences = 0;  ///< engine sweeps whose lanes' control state split
  std::uint64_t uncached_sweeps = 0;   ///< engine sweeps of a state its full cache refused
  double utilization = 0;          ///< busy_ns / farm wall time, in [0,1]
  std::string engine;              ///< engine currently installed (may differ after swaps)
  bool enabled = true;             ///< false while quarantined (no new routes)
};

struct FarmStats {
  std::string node;  ///< cluster node id when a clustered server labels it, else ""
  int workers = 0;
  std::string engine;  ///< CipherEngine kind the workers run ("custom" for factories)
  std::string batch_backend = "none";  ///< lane backend behind process_batch
  std::size_t batch_lanes = 1;         ///< blocks per engine pass on that backend

  // traffic
  std::uint64_t requests = 0;   ///< client requests completed
  std::uint64_t blocks = 0;     ///< blocks processed (ceil for partial CTR tails)
  std::uint64_t rejected = 0;   ///< try_submit refusals (backpressure shed)
  std::uint64_t ctr_fanouts = 0;///< CTR payloads split across workers
  std::uint64_t ctr_chunks = 0; ///< chunks produced by those splits

  // affinity
  std::uint64_t key_hits = 0;
  std::uint64_t key_loads = 0;
  std::uint64_t session_evictions = 0;
  std::uint64_t sessions_live = 0;

  // queues
  std::size_t queue_capacity = 0;
  std::size_t queue_high_water = 0;  ///< max depth over all worker queues
  obs::HistogramSnapshot queue_depth;    ///< depth observed after each enqueue
  obs::HistogramSnapshot queue_wait_us;  ///< submit -> execution start, per job

  // fleet (live reconfiguration: hot-swap / spot-check / quarantine-heal;
  // see docs/fleet.md — all zero on a farm that was never reconfigured)
  std::uint64_t swaps = 0;            ///< live engine hot-swaps completed
  std::uint64_t heals = 0;            ///< engines rebuilt after a detected fault
  std::uint64_t quarantines = 0;      ///< workers pulled from routing (spot-check or admin)
  std::uint64_t spot_checks = 0;      ///< jobs re-run through the software oracle
  std::uint64_t spot_mismatches = 0;  ///< of which the engine's output was wrong
  std::uint64_t replayed_jobs = 0;    ///< jobs answered with the oracle's (correct) bytes
  std::uint64_t spot_boosts = 0;      ///< adaptive boost episodes (mismatch -> boosted rate)
  std::uint64_t spot_boost_checks = 0;///< spot checks sampled at the boosted rate
  int workers_boosted = 0;            ///< gauge: workers currently sampling boosted
  std::uint64_t sessions_migrated = 0;///< sessions re-routed off a quarantined worker
  int workers_enabled = 0;            ///< gauge: workers currently taking routes
  obs::HistogramSnapshot swap_pause_us;  ///< worker pause per swap/heal (engine rebuild + key replay)

  // tracing (zero unless FarmConfig::tracing)
  std::uint64_t trace_events = 0;   ///< events recorded into the rings
  std::uint64_t trace_dropped = 0;  ///< overwritten by ring wrap

  // time
  double wall_seconds = 0;
  std::uint64_t total_cycles = 0;       ///< sum over workers
  std::uint64_t max_worker_cycles = 0;  ///< simulated makespan
  std::uint64_t total_setup_cycles = 0;

  obs::HistogramSnapshot latency_us;  ///< host-side submit -> complete, per request
  std::vector<WorkerStats> per_worker;

  // --- derived -------------------------------------------------------------
  double blocks_per_wall_sec() const {
    return wall_seconds > 0 ? static_cast<double>(blocks) / wall_seconds : 0.0;
  }
  /// Simulated cycles per block, farm-wide (ideal: 50 + amortized setup).
  double cycles_per_block() const {
    return blocks ? static_cast<double>(total_cycles) / static_cast<double>(blocks) : 0.0;
  }
  /// Aggregate *hardware* throughput at clock period `clock_ns`: blocks
  /// finished per second of simulated time, all cores counted in parallel.
  double sim_blocks_per_sec(double clock_ns) const {
    const double makespan_s = static_cast<double>(max_worker_cycles) * clock_ns * 1e-9;
    return makespan_s > 0 ? static_cast<double>(blocks) / makespan_s : 0.0;
  }
  double sim_mbps(double clock_ns) const {
    return sim_blocks_per_sec(clock_ns) * 128.0 / 1e6;
  }
  double key_hit_rate() const {
    const auto total = key_hits + key_loads;
    return total ? static_cast<double>(key_hits) / static_cast<double>(total) : 0.0;
  }

  /// Fold another farm's stats into this one — the cluster-wide roll-up.
  /// Counters and cycle totals add; gauges that count resources (workers,
  /// sessions_live, queue_capacity) add; high-water marks, wall time and
  /// makespan take the max; every histogram (latency_us included) merges
  /// exactly, since log2 buckets align. per_worker lists concatenate in
  /// call order; `node` keeps this side's label.
  void merge_from(const FarmStats& other);

  /// Human-readable multi-line report (clock_ns scales the simulated-domain
  /// figures; the paper's Acex1K column is 14 ns).
  std::string report(double clock_ns = 14.0) const;

  /// The farm's JSON document, one complete object (write it at the root
  /// or after a key): the reply to both kStats and kAdminFleetStatus, and
  /// the "farm" section of `aesip metrics`. Carries "node" when labelled.
  void write_json(report::JsonWriter& j, double clock_ns = 14.0) const;
};

}  // namespace aesip::farm
