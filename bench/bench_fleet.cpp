// Fleet management overheads: what live reconfiguration costs the farm.
//
// Three questions, each with its own section in BENCH_fleet.json:
//
//  * spot-check tax — the cross-check policy re-runs a sampled fraction of
//    completed jobs through the software oracle on the worker thread. At
//    the default-recommended 25% sampling on behavioral workers the tax
//    must stay under 5% of wall throughput (the oracle is a table-driven
//    software AES; the engine it audits is a cycle-accurate simulation, so
//    the audit is cheap relative to the work). The tax is the median of
//    kOverheadPairs alternating unchecked/checked pairs after one warm-up
//    run, the first side swapped each pair. Gated, like the farm bench's
//    wall-scaling figure, only on hosts with >= 4 hardware threads —
//    below that, wall-clock deltas measure scheduler pressure, not the
//    policy, and the gate is recorded as skipped with the reason.
//
//  * swap pause — hot-swapping a live worker's engine quiesces only that
//    worker: build the replacement, replay the resident key (the 40-cycle
//    setup from the paper), rebind. The pause histogram is the
//    availability cost of a fleet migration.
//
//  * zero corruption under chaos — SEUs injected into live netlist DFF
//    state mid-traffic, with 100% spot-checking: every corrupted output
//    must be caught, answered from the oracle, and the engine healed.
//    corrupted_frames/lost_frames must be exactly zero (meets_target).
//
// Results go to stdout and BENCH_fleet.json (aesip-bench-v1 envelope;
// validated by tools/check_bench.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "farm/farm.hpp"
#include "fleet/fleet.hpp"
#include "paired_trials.hpp"
#include "report/json.hpp"

namespace farm = aesip::farm;
namespace fleet = aesip::fleet;

namespace {

constexpr double kClockNs = 14.0;  // the paper's Acex1K Table 2 clock
constexpr int kWorkers = 4;
constexpr std::uint64_t kOverheadBlocks = 8000;
constexpr double kSpotFraction = 0.25;
constexpr double kOverheadTargetPct = 5.0;
constexpr int kOverheadPairs = 11;

farm::Request random_request(std::mt19937& rng, const std::vector<farm::Key128>& keys) {
  farm::Request req;
  const auto pick = std::min(rng() % keys.size(), rng() % keys.size());
  req.session_id = pick;
  req.key = keys[pick];
  for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
  req.mode = static_cast<farm::Mode>(rng() % 3);
  req.encrypt = (rng() & 1) != 0;
  req.payload.resize((1 + rng() % 8) * 16);
  for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
  return req;
}

/// Fixed seeded workload through a behavioral farm at the given spot-check
/// fraction; identical traffic per call so the two rates are comparable.
farm::FarmStats run_spot_point(double fraction) {
  farm::FarmConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 128;
  cfg.engine = aesip::engine::EngineKind::kBehavioral;
  cfg.spot_check_fraction = fraction;
  farm::Farm f(cfg);

  std::mt19937 rng(1234);
  std::vector<farm::Key128> keys(16);
  for (auto& k : keys)
    for (auto& b : k) b = static_cast<std::uint8_t>(rng());

  std::vector<std::future<farm::Result>> pending;
  std::uint64_t submitted = 0;
  while (submitted < kOverheadBlocks) {
    auto req = random_request(rng, keys);
    submitted += req.payload.size() / 16;
    pending.push_back(f.submit(std::move(req)));
    if (pending.size() > 1024) {
      for (auto& p : pending) p.get();
      pending.clear();
    }
  }
  for (auto& p : pending) p.get();
  return f.stats();
}

struct SwapResults {
  std::uint64_t swaps = 0;
  double mean_setup_cycles = 0;
  farm::FarmStats stats;
};

/// Hot-swaps under live traffic: rotate every worker behavioral -> sw ->
/// behavioral while a verified workload runs, collecting the pause
/// histogram the farm records per swap.
SwapResults run_swap_point() {
  farm::FarmConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 128;
  cfg.engine = aesip::engine::EngineKind::kBehavioral;
  farm::Farm f(cfg);

  std::mt19937 rng(99);
  std::vector<farm::Key128> keys(8);
  for (auto& k : keys)
    for (auto& b : k) b = static_cast<std::uint8_t>(rng());

  SwapResults out;
  std::uint64_t total_setup = 0;
  std::vector<std::future<farm::Result>> pending;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 64; ++i) {
      auto req = random_request(rng, keys);
      expect.push_back(farm::reference(req));
      pending.push_back(f.submit(std::move(req)));
    }
    const auto kind = (round & 1) ? aesip::engine::EngineKind::kBehavioral
                                  : aesip::engine::EngineKind::kSoftware;
    for (int w = 0; w < kWorkers; ++w) {
      const auto rep = f.swap_engine(w, kind).get();
      total_setup += rep.setup_cycles;
      ++out.swaps;
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i)
    if (pending[i].get().data != expect[i])
      std::fprintf(stderr, "bench_fleet: SWAP WORKLOAD MISMATCH at request %zu\n", i);
  out.mean_setup_cycles =
      out.swaps ? static_cast<double>(total_setup) / static_cast<double>(out.swaps) : 0;
  out.stats = f.stats();
  return out;
}

struct ChaosResults {
  std::uint64_t injections = 0;
  std::uint64_t corrupted_frames = 0;  // client-visible wrong bytes (must be 0)
  std::uint64_t lost_frames = 0;       // futures never answered (must be 0)
  std::uint64_t replayed = 0;          // answered from the oracle after a catch
  farm::FarmStats stats;
};

/// The chaos scenario: netlist workers, 100% spot-check, SEUs flipped into
/// live DFF state every few requests. Every response is verified against
/// the oracle — a corrupted frame reaching the client fails the gate.
ChaosResults run_chaos_point() {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.engine = aesip::engine::EngineKind::kNetlist;
  cfg.spot_check_fraction = 1.0;
  farm::Farm f(cfg);
  fleet::ChaosInjector chaos(f, /*seed=*/0x5eed);

  std::mt19937 rng(7);
  std::vector<farm::Key128> keys(8);
  for (auto& k : keys)
    for (auto& b : k) b = static_cast<std::uint8_t>(rng());

  ChaosResults out;
  struct Pending {
    std::future<farm::Result> future;
    std::vector<std::uint8_t> expect;
  };
  std::vector<Pending> pending;
  for (int i = 0; i < 96; ++i) {
    auto req = random_request(rng, keys);
    Pending p;
    p.expect = farm::reference(req);
    p.future = f.submit(std::move(req));
    pending.push_back(std::move(p));
    if (i % 8 == 3) {
      const auto ev = chaos.inject();
      if (ev.injected) ++out.injections;
    }
  }
  for (auto& p : pending) {
    const auto res = p.future.get();
    if (res.data != p.expect) ++out.corrupted_frames;
    if (res.replayed) ++out.replayed;
  }
  out.stats = f.stats();
  return out;
}

void print_and_dump() {
  const unsigned hw = std::thread::hardware_concurrency();

  // --- spot-check overhead ---------------------------------------------------
  std::printf("=== fleet: spot-check overhead (%d behavioral workers, %llu blocks) ===\n",
              kWorkers, static_cast<unsigned long long>(kOverheadBlocks));
  run_spot_point(0.0);  // warm-up: the first farm pays thread/core spin-up
  std::vector<double> base_bps, spot_bps;
  farm::FarmStats spot;
  const auto overhead = aesip::bench::run_pairs(
      kOverheadPairs,
      [&] {
        base_bps.push_back(run_spot_point(0.0).blocks_per_wall_sec());
        return base_bps.back();
      },
      [&] {
        spot = run_spot_point(kSpotFraction);
        spot_bps.push_back(spot.blocks_per_wall_sec());
        return spot_bps.back();
      },
      [](double base, double checked) {
        return std::max(0.0, checked > 0 ? (base / checked - 1.0) * 100.0 : 0.0);
      });
  const double overhead_pct = overhead.median;
  const bool overhead_skipped = hw < 4;
  const bool overhead_met = overhead_skipped || overhead_pct < kOverheadTargetPct;
  std::printf("  fraction 0.00: %10.0f blocks/s wall (median)\n",
              aesip::bench::quantile(base_bps, 0.5));
  std::printf("  fraction %.2f: %10.0f blocks/s wall (median; last run %llu spot-checks, "
              "%llu mismatches)\n",
              kSpotFraction, aesip::bench::quantile(spot_bps, 0.5),
              static_cast<unsigned long long>(spot.spot_checks),
              static_cast<unsigned long long>(spot.spot_mismatches));
  std::printf("  overhead per pair:");
  for (const double v : overhead.per_pair) std::printf(" %.2f%%", v);
  std::printf("\n");
  if (overhead_skipped)
    std::printf("  overhead gate SKIPPED: host has %u hardware thread(s) < 4 workers\n\n", hw);
  else
    std::printf("  overhead: median %.2f%%, IQR %.2f%% (target < %.1f%%): %s\n\n", overhead_pct,
                overhead.q3 - overhead.q1, kOverheadTargetPct, overhead_met ? "PASS" : "FAIL");

  // --- swap pause ------------------------------------------------------------
  std::printf("=== fleet: hot-swap pause under load ===\n");
  const auto sw = run_swap_point();
  const auto& pause = sw.stats.swap_pause_us;
  std::printf("  %llu swaps: pause us p50 %llu  p90 %llu  max %llu; "
              "mean %.0f key-replay cycles/swap\n\n",
              static_cast<unsigned long long>(sw.swaps),
              static_cast<unsigned long long>(pause.percentile(0.50)),
              static_cast<unsigned long long>(pause.percentile(0.90)),
              static_cast<unsigned long long>(pause.max), sw.mean_setup_cycles);

  // --- chaos / zero corruption -----------------------------------------------
  std::printf("=== fleet: SEU chaos, 100%% spot-check (2 netlist workers) ===\n");
  const auto ch = run_chaos_point();
  std::printf("  %llu injections -> %llu spot-checks, %llu mismatches caught, "
              "%llu replayed, %llu heals\n",
              static_cast<unsigned long long>(ch.injections),
              static_cast<unsigned long long>(ch.stats.spot_checks),
              static_cast<unsigned long long>(ch.stats.spot_mismatches),
              static_cast<unsigned long long>(ch.replayed),
              static_cast<unsigned long long>(ch.stats.heals));
  const bool chaos_met = ch.corrupted_frames == 0 && ch.lost_frames == 0;
  std::printf("  corrupted frames: %llu, lost frames: %llu -> %s\n\n",
              static_cast<unsigned long long>(ch.corrupted_frames),
              static_cast<unsigned long long>(ch.lost_frames),
              chaos_met ? "PASS (zero corruption)" : "FAIL");

  std::ofstream jf("BENCH_fleet.json");
  aesip::report::JsonWriter j(jf);
  aesip::report::begin_bench_envelope(j, "fleet", 2);
  j.begin_object();  // config
  j.key("clock_ns").value(kClockNs);
  j.key("workers").value(kWorkers);
  j.key("overhead_blocks").value(kOverheadBlocks);
  j.key("host_hardware_concurrency").value(hw);
  j.end_object();

  j.key("spot_check_overhead").begin_object();
  j.key("fraction").value(kSpotFraction);
  j.key("baseline_blocks_per_sec").value(aesip::bench::quantile(base_bps, 0.5));
  j.key("checked_blocks_per_sec").value(aesip::bench::quantile(spot_bps, 0.5));
  j.key("spot_checks").value(spot.spot_checks);
  j.key("overhead_pct").value(overhead_pct);  // median of the per-pair overheads
  aesip::bench::write_pairs_json(j, overhead);
  j.key("target_pct").value(kOverheadTargetPct);
  j.key("skipped").value(overhead_skipped);
  if (overhead_skipped)
    j.key("reason").value("host hardware_concurrency < 4 workers; wall-clock "
                          "overhead is not measurable on this machine");
  j.key("meets_target").value(overhead_met);
  j.end_object();

  j.key("swap").begin_object();
  j.key("swaps").value(sw.swaps);
  j.key("pause_us_p50").value(pause.percentile(0.50));
  j.key("pause_us_p90").value(pause.percentile(0.90));
  j.key("pause_us_max").value(pause.max);
  j.key("mean_key_replay_cycles").value(sw.mean_setup_cycles);
  j.end_object();

  j.key("zero_corruption").begin_object();
  j.key("injections").value(ch.injections);
  j.key("spot_checks").value(ch.stats.spot_checks);
  j.key("spot_mismatches").value(ch.stats.spot_mismatches);
  j.key("replayed_jobs").value(ch.replayed);
  j.key("heals").value(ch.stats.heals);
  j.key("corrupted_frames").value(ch.corrupted_frames);
  j.key("lost_frames").value(ch.lost_frames);
  j.key("meets_target").value(chaos_met);
  j.end_object();
  j.end_object();
  std::printf("wrote BENCH_fleet.json\n\n");
}

void BM_SpotCheckedFarm(benchmark::State& state) {
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  farm::FarmConfig cfg;
  cfg.workers = kWorkers;
  cfg.engine = aesip::engine::EngineKind::kBehavioral;
  cfg.spot_check_fraction = fraction;
  farm::Farm f(cfg);
  std::mt19937 rng(1);
  std::vector<farm::Key128> keys(8);
  for (auto& k : keys)
    for (auto& b : k) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    std::vector<std::future<farm::Result>> pending;
    for (int i = 0; i < 64; ++i) pending.push_back(f.submit(random_request(rng, keys)));
    for (auto& p : pending) benchmark::DoNotOptimize(p.get().data);
  }
  state.counters["spot_pct"] = fraction * 100.0;
}
BENCHMARK(BM_SpotCheckedFarm)->Arg(0)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_and_dump();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
