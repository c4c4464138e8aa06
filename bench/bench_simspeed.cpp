// Simulation-infrastructure performance: cycles/second of the hdl kernel
// on the full IP, and the gate-level netlist evaluator — the ModelSim
// replacement's own speed, relevant to anyone extending the repository.
//
// Three A/B gates are measured and trend-tracked in BENCH_simspeed.json
// (common aesip-bench-v1 envelope, see docs/benchmarks.md):
//
//  * profiler overhead — an attached ScopedProfiler forfeits the static
//    schedule and pays for its accounting; the honest contract is that the
//    accounting stays under 50% over the delta baseline (docs/obs.md);
//  * static scheduler speedup — Simulator::settle() learns a levelized
//    evaluation order and must beat the delta-loop fallback by >= 1.5x on
//    the block workload, profiler detached (docs/hdl.md);
//  * engine sweep — ns/block through each engine::CipherEngine kind, the
//    cost ladder clients pick from (docs/engine.md).
//
// The profiler figure takes the min over trials, so host noise only ever
// *overstates* the overhead.  The scheduler gate instead uses the median
// of per-trial ratios: each trial measures both legs back to back, so
// frequency ramps and noisy neighbours hit both sides of the ratio and
// cancel, where min-of-each-leg lets one lucky sample skew the quotient.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/sbox.hpp"
#include "core/bfm.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "core/rijndael_ip.hpp"
#include "engine/engine.hpp"
#include "hdl/simulator.hpp"
#include "netlist/batch_backend.hpp"
#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "obs/profiler.hpp"
#include "report/json.hpp"
#include "techmap/techmap.hpp"

namespace core = aesip::core;
namespace engine = aesip::engine;
using aesip::hdl::SettleStrategy;

namespace {

constexpr int kBlocks = 2000;  // ~102k simulated cycles per trial
constexpr int kTrials = 5;
// The scheduler A/B gets longer legs: at 2000 blocks a leg lasts ~20 ms,
// short enough for one preemption to move the ratio by tens of percent.
constexpr int kSchedBlocks = 8000;

/// ns per simulated cycle pushing `blocks` blocks through a kBoth device,
/// under the given settle strategy, with or without a profiler attached.
/// One fresh core per call.
double measure_ns_per_cycle(bool profiled, int blocks,
                            SettleStrategy strategy = SettleStrategy::kAuto) {
  aesip::hdl::Simulator sim;
  sim.set_settle_strategy(strategy);
  core::RijndaelIp ip(sim, core::IpMode::kBoth);
  core::BusDriver bus(sim, ip);
  bus.reset();
  std::array<std::uint8_t, 16> block{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  bus.load_key(block);
  std::optional<aesip::obs::ScopedProfiler> prof;
  if (profiled) prof.emplace(sim);
  for (int i = 0; i < 160; ++i) block = bus.process_block(block);  // warm up / learn
  const auto c0 = sim.cycle();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < blocks; ++i) block = bus.process_block(block);
  const auto t1 = std::chrono::steady_clock::now();
  const auto cycles = sim.cycle() - c0;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return cycles ? ns / static_cast<double>(cycles) : 0.0;
}

struct EnginePoint {
  const char* name;
  int blocks = 0;
  double ns_per_block = 0;
  double cycles_per_block = 0;
};

/// ns/block and simulated cycles/block through one CipherEngine kind.
/// The netlist engine evaluates the synthesized gate network, so it gets a
/// much smaller block budget than the others.
EnginePoint measure_engine(engine::EngineKind kind, int blocks) {
  const auto e = engine::make_engine(kind, core::IpMode::kBoth);
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  e->load_key(key);
  std::array<std::uint8_t, 16> block{};
  block = e->process_block(block, true);  // warm up
  const auto c0 = e->cycles();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < blocks; ++i) block = e->process_block(block, true);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  EnginePoint p;
  p.name = engine::kind_name(kind);
  p.blocks = blocks;
  p.ns_per_block = ns / blocks;
  p.cycles_per_block = static_cast<double>(e->cycles() - c0) / blocks;
  return p;
}

// --- bit-parallel netlist evaluation (the netlist_batch gate) ---------------

constexpr int kBatchScalarBlocks = 8;  // scalar gate-level blocks are ~ms each
constexpr int kBatchPasses = 4;        // passes per occupancy point in the sweep
constexpr int kRomChain = 64;          // S-box ROMs in the ROM-gather probe's chain
constexpr int kRomSettles = 200;       // settles per ROM-gather trial

struct LanePoint {
  std::size_t lanes;
  double ns_per_block;
};

struct BackendPoint {
  const char* name;
  bool supported = false;
  std::string reason;             // why the row was skipped, when it was
  std::size_t lanes = 0;
  double ns_per_block = 0;        // full occupancy
  bool bit_exact = true;          // full-lane batch vs. software AES-128
  std::vector<LanePoint> sweep;   // occupancy sweep: 1 / 8 / 64 / full
};

/// What the live-cone sweeps skip on a full-lane encrypt pass: tape ops
/// executed and flip-flops clocked, against what full sweeps and full
/// clocks of the same pass would have cost.
struct ConeFigures {
  double ops_per_block = 0;       // ops executed / blocks
  double ops_per_block_full = 0;  // sweeps x tape size / blocks
  double dffs_per_edge = 0;       // flip-flops clocked per clock edge
  std::size_t dffs = 0;           // every flip-flop: a full clock
  std::size_t cache_bytes = 0;    // the control-state cache after the run
  double rom_ns_per_op = 0;       // one 256x8 ROM gather (measure_rom_gather_ns)
};

/// ns per ROM op on backend `b`, the cost of the one op kind that is a
/// table lookup rather than a word op: a chain of kRomChain S-box ROMs,
/// each addressed by the one before, so a settle runs only ROM ops.  Every
/// settle follows fresh addresses in every lane.  Min over kTrials trials.
double measure_rom_gather_ns(aesip::netlist::BatchBackend b) {
  namespace netlist = aesip::netlist;
  netlist::Netlist nl;
  const netlist::Bus in = nl.add_input_bus("a", 8);
  netlist::Bus bus = in;
  for (int i = 0; i < kRomChain; ++i)
    bus = nl.add_rom(aesip::aes::kSBox, bus, "sbox" + std::to_string(i));
  nl.add_output_bus(bus, "d");
  netlist::BatchConfig cfg;
  cfg.backend = b;
  netlist::BatchEvaluator ev(nl, cfg);
  std::uint64_t x = 0x9e3779b97f4a7c15u;
  double best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t ops0 = ev.ops_executed();
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < kRomSettles; ++s) {
      for (const netlist::NetId n : in)
        for (std::size_t g = 0; g < ev.stride(); ++g) {
          x = x * 6364136223846793005u + 1442695040888963407u;
          ev.set_word(n, x, g);
        }
      ev.settle();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    best = std::min(best, ns / static_cast<double>(ev.ops_executed() - ops0));
  }
  return best;
}

struct NetlistBatchResult {
  double ns_per_block_scalar = 0;  // scalar Evaluator via GateIpDriver
  double ns_per_block_u64 = 0;     // the 64-lane portable baseline
  double ns_per_block_batch = 0;   // the active (widest native) backend
  double speedup_per_block = 0;    // scalar / active
  double speedup_vs_u64 = 0;       // u64 / active: the SIMD widening gate
  const char* backend = "u64";     // the active backend's name
  std::size_t lanes = 64;
  std::size_t tape_ops = 0;
  ConeFigures cone;                // on the active backend
  std::vector<BackendPoint> backends;
  std::size_t active_index = 0;    // row in `backends` the dispatch resolves to
};

/// Scalar vs. lane-packed evaluation of the same synthesized kBoth IP.
/// Every compiled-in backend gets its own row (occupancy sweep + full-lane
/// figure + bit-exactness against software AES); backends the host cannot
/// run are recorded as skipped with the reason, in the style of the hw<4
/// skips elsewhere.  Two gates ride on the result: the historical >= 20x
/// of the active backend over the scalar interpreter, and the SIMD
/// widening gate — >= 4x of the widest native backend over the unchanged
/// 64-lane u64 path (the pre-widening cost model).
NetlistBatchResult measure_netlist_batch() {
  namespace netlist = aesip::netlist;
  const auto nl = engine::make_ip_netlist(core::IpMode::kBoth);
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  NetlistBatchResult r;

  core::GateIpDriver sd(*nl);
  sd.reset();
  sd.load_key(key, true);
  std::array<std::uint8_t, 16> block{};
  sd.process(block, true);  // warm up
  const auto st0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBatchScalarBlocks; ++i) sd.process(block, true);
  const auto st1 = std::chrono::steady_clock::now();
  r.ns_per_block_scalar =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(st1 - st0).count()) /
      kBatchScalarBlocks;

  const aesip::aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const netlist::BatchBackend active = netlist::detect_backend();
  const netlist::BatchBackend all[] = {netlist::BatchBackend::kU64, netlist::BatchBackend::kNeon,
                                       netlist::BatchBackend::kAvx2,
                                       netlist::BatchBackend::kAvx512};
  for (const auto b : all) {
    BackendPoint pt;
    pt.name = netlist::backend_name(b);
    pt.supported = netlist::backend_supported(b);
    if (!pt.supported) {
      pt.reason = std::string("backend '") + pt.name + "' is not supported on this host";
      r.backends.push_back(std::move(pt));
      continue;
    }
    netlist::BatchConfig cfg;
    cfg.backend = b;
    core::GateIpBatchDriver bd(*nl, cfg);
    bd.reset();
    bd.load_key(key, true);
    r.tape_ops = bd.evaluator().tape_size();
    pt.lanes = bd.lanes();
    std::vector<std::uint8_t> in(16 * pt.lanes);
    std::vector<std::uint8_t> out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i * 37 + 11);
    bd.process_batch(in, out, pt.lanes, true);  // warm up
    std::vector<std::size_t> points{1, 8, 64};
    if (pt.lanes > 64) points.push_back(pt.lanes);
    const auto& ev = bd.evaluator();
    for (const std::size_t lanes : points) {
      const std::uint64_t ops0 = ev.ops_executed(), sweeps0 = ev.sweeps();
      const std::uint64_t dffs0 = ev.dffs_clocked(), cycles0 = bd.cycles();
      const auto t0 = std::chrono::steady_clock::now();
      for (int p = 0; p < kBatchPasses; ++p) bd.process_batch(in, out, lanes, true);
      const auto t1 = std::chrono::steady_clock::now();
      if (b == active && lanes == pt.lanes) {
        const double blocks = static_cast<double>(kBatchPasses) * static_cast<double>(lanes);
        r.cone.ops_per_block = static_cast<double>(ev.ops_executed() - ops0) / blocks;
        r.cone.ops_per_block_full =
            static_cast<double>((ev.sweeps() - sweeps0) * ev.tape_size()) / blocks;
        // Each clock of a full pass is weighted by its lane count.
        r.cone.dffs_per_edge = static_cast<double>(ev.dffs_clocked() - dffs0) /
                               (static_cast<double>(bd.cycles() - cycles0) / lanes);
        r.cone.dffs = ev.dff_count();
        r.cone.cache_bytes = ev.cache_bytes();
      }
      const double ns_per_block =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
          (static_cast<double>(kBatchPasses) * static_cast<double>(lanes));
      pt.sweep.push_back(LanePoint{lanes, ns_per_block});
      if (lanes == pt.lanes) pt.ns_per_block = ns_per_block;
    }
    for (std::size_t blk = 0; blk < pt.lanes && pt.bit_exact; ++blk) {
      std::array<std::uint8_t, 16> want{};
      ref.encrypt_block(std::span<const std::uint8_t, 16>(in.data() + 16 * blk, 16), want);
      pt.bit_exact = std::equal(want.begin(), want.end(), out.begin() + 16 * blk);
    }
    if (b == netlist::BatchBackend::kU64) r.ns_per_block_u64 = pt.ns_per_block;
    if (b == active) {
      r.cone.rom_ns_per_op = measure_rom_gather_ns(b);
      r.active_index = r.backends.size();
      r.backend = pt.name;
      r.lanes = pt.lanes;
      r.ns_per_block_batch = pt.ns_per_block;
    }
    r.backends.push_back(std::move(pt));
  }
  r.speedup_per_block =
      r.ns_per_block_batch > 0 ? r.ns_per_block_scalar / r.ns_per_block_batch : 0.0;
  r.speedup_vs_u64 =
      r.ns_per_block_batch > 0 ? r.ns_per_block_u64 / r.ns_per_block_batch : 0.0;
  return r;
}

void measure_and_dump() {
  // --- static scheduler vs. delta loop (profiler detached) -------------
  double delta_only = 1e300, scheduled = 1e300;
  std::vector<double> ratios;
  for (int t = 0; t < kTrials; ++t) {
    const double d = measure_ns_per_cycle(false, kSchedBlocks, SettleStrategy::kDeltaOnly);
    const double s = measure_ns_per_cycle(false, kSchedBlocks);
    delta_only = std::min(delta_only, d);
    scheduled = std::min(scheduled, s);
    if (s > 0) ratios.push_back(d / s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double sched_speedup = ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  std::printf("=== Static-schedule settle vs. delta loop (hdl kernel hot path) ===\n\n");
  std::printf("  delta loop      %8.1f ns/cycle   (SettleStrategy::kDeltaOnly; min of %d trials, %d blocks each)\n",
              delta_only, kTrials, kSchedBlocks);
  std::printf("  scheduled       %8.1f ns/cycle   (kAuto: learned levelized order)\n", scheduled);
  std::printf("  speedup         %8.2f x           (median of per-trial ratios; target: >= 1.5x)\n\n",
              sched_speedup);

  // --- profiler overhead -----------------------------------------------
  // Profiled settles always run on the delta engine (the per-delta counts
  // are what the profile reports), so the instrumentation overhead is
  // measured against the delta baseline. The cost of forfeiting the static
  // schedule while a profiler is attached is the scheduler speedup above.
  double profiled = 1e300;
  for (int t = 0; t < kTrials; ++t)
    profiled = std::min(profiled, measure_ns_per_cycle(true, kBlocks));
  // Clamped at zero: a negative measurement just means the overhead is below
  // run-to-run noise, and the JSON envelope forbids negative figures.
  const double overhead_pct = std::max(
      0.0, delta_only > 0 ? (profiled - delta_only) / delta_only * 100.0 : 0.0);
  std::printf("=== Profiler overhead (ScopedProfiler attached vs. delta baseline) ===\n\n");
  std::printf("  uninstrumented  %8.1f ns/cycle   (delta engine, no profiler)\n", delta_only);
  std::printf("  instrumented    %8.1f ns/cycle\n", profiled);
  std::printf("  overhead        %+8.2f %%          (budget: < 50%%; docs/obs.md)\n\n", overhead_pct);

  // --- engine sweep ----------------------------------------------------
  std::printf("=== CipherEngine sweep (ns per 16-byte block, kBoth devices) ===\n\n");
  std::vector<EnginePoint> engines;
  engines.push_back(measure_engine(engine::EngineKind::kSoftware, kBlocks));
  engines.push_back(measure_engine(engine::EngineKind::kBehavioral, kBlocks));
  engines.push_back(measure_engine(engine::EngineKind::kNetlist, 16));
  for (const auto& p : engines)
    std::printf("  %-10s  %12.1f ns/block   %6.1f cycles/block   (%d blocks)\n", p.name,
                p.ns_per_block, p.cycles_per_block, p.blocks);
  std::printf("\n");

  // --- bit-parallel netlist batch gate ---------------------------------
  const NetlistBatchResult nb = measure_netlist_batch();
  std::printf("=== Bit-parallel netlist evaluation (lane-packed BatchEvaluator) ===\n\n");
  std::printf("  scalar          %12.1f ns/block   (Evaluator, %d blocks)\n",
              nb.ns_per_block_scalar, kBatchScalarBlocks);
  for (const auto& bp : nb.backends) {
    if (!bp.supported) {
      std::printf("  %-8s      skipped: %s\n", bp.name, bp.reason.c_str());
      continue;
    }
    std::printf("  %-8s %4zu-lane %10.1f ns/block   (%d passes, %s)\n", bp.name, bp.lanes,
                bp.ns_per_block, kBatchPasses, bp.bit_exact ? "bit-exact" : "MISMATCH");
  }
  std::printf("  active          %s (%zu lanes), %zu tape ops\n", nb.backend, nb.lanes,
              nb.tape_ops);
  std::printf("  live cone       %8.1f ops/block (full sweeps: %.1f), %.1f of %zu flip-flops "
              "clocked per edge, %zu B cached, ROM gather %.1f ns/op\n",
              nb.cone.ops_per_block, nb.cone.ops_per_block_full, nb.cone.dffs_per_edge,
              nb.cone.dffs, nb.cone.cache_bytes, nb.cone.rom_ns_per_op);
  std::printf("  vs scalar       %12.2f x           (target: >= 20x)\n", nb.speedup_per_block);
  std::printf("  vs u64 lanes    %12.2f x           (the SIMD widening gate; target: >= 4x)\n\n",
              nb.speedup_vs_u64);

  std::ofstream jf("BENCH_simspeed.json");
  aesip::report::JsonWriter j(jf);
  aesip::report::begin_bench_envelope(j, "simspeed", 7);
  j.begin_object();  // config
  j.key("blocks").value(kBlocks);
  j.key("trials").value(kTrials);
  j.key("scheduler_blocks").value(kSchedBlocks);
  j.key("netlist_blocks").value(16);
  j.key("netlist_batch_scalar_blocks").value(kBatchScalarBlocks);
  j.key("netlist_batch_passes").value(kBatchPasses);
  j.key("rom_chain").value(kRomChain);
  j.key("rom_settles").value(kRomSettles);
  j.end_object();
  j.key("scheduler").begin_object();
  j.key("ns_per_cycle_delta").value(delta_only);
  j.key("ns_per_cycle_scheduled").value(scheduled);
  j.key("speedup").value(sched_speedup);
  j.key("meets_target").value(sched_speedup >= 1.5);
  j.end_object();
  j.key("profiler").begin_object();
  j.key("ns_per_cycle_baseline").value(delta_only);
  j.key("ns_per_cycle_profiled").value(profiled);
  j.key("overhead_pct").value(overhead_pct);
  j.key("within_budget").value(overhead_pct < 50.0);
  j.end_object();
  j.key("engines").begin_array();
  for (const auto& p : engines) {
    j.begin_object();
    j.key("engine").value(p.name);
    j.key("blocks").value(p.blocks);
    j.key("ns_per_block").value(p.ns_per_block);
    j.key("cycles_per_block").value(p.cycles_per_block);
    j.end_object();
  }
  j.end_array();
  // Payload v7 (docs/benchmarks.md): the active backend's figures, the
  // historical >= 20x scalar gate, the resolved backend/lane geometry, the
  // per-backend rows (skip-with-reason where the host cannot run one), the
  // `simd` sub-gate — widest backend >= 4x over the unchanged u64
  // baseline, skipped with a reason when u64 is all the host has — and the
  // `live_cone` figures (ops and flip-flop clocks the pruned sweeps ran,
  // and since v7 the ROM gather's ns per op on the active backend).
  j.key("netlist_batch").begin_object();
  j.key("backend").value(nb.backend);
  j.key("lanes").value(nb.lanes);
  j.key("tape_ops").value(nb.tape_ops);
  j.key("ns_per_block_scalar").value(nb.ns_per_block_scalar);
  j.key("ns_per_block_batch").value(nb.ns_per_block_batch);
  j.key("speedup_per_block").value(nb.speedup_per_block);
  j.key("target").value(20.0);
  j.key("meets_target").value(nb.speedup_per_block >= 20.0);
  j.key("simd").begin_object();
  if (std::string(nb.backend) == "u64") {
    j.key("skipped").value(true);
    j.key("reason").value("no SIMD backend on this host: the widest native backend is u64");
  } else {
    j.key("baseline_backend").value("u64");
    j.key("ns_per_block_u64").value(nb.ns_per_block_u64);
    j.key("speedup_vs_u64").value(nb.speedup_vs_u64);
    j.key("target").value(4.0);
    j.key("meets_target").value(nb.speedup_vs_u64 >= 4.0);
  }
  j.end_object();
  j.key("live_cone").begin_object();
  j.key("ops_per_block").value(nb.cone.ops_per_block);
  j.key("ops_per_block_full").value(nb.cone.ops_per_block_full);
  j.key("dffs_per_edge").value(nb.cone.dffs_per_edge);
  j.key("dffs").value(nb.cone.dffs);
  j.key("cache_bytes").value(nb.cone.cache_bytes);
  j.key("rom_gather_ns_per_op").value(nb.cone.rom_ns_per_op);
  j.end_object();
  j.key("backends").begin_array();
  for (const auto& bp : nb.backends) {
    j.begin_object();
    j.key("backend").value(bp.name);
    if (!bp.supported) {
      j.key("skipped").value(true);
      j.key("reason").value(bp.reason);
      j.end_object();
      continue;
    }
    j.key("lanes").value(bp.lanes);
    j.key("ns_per_block").value(bp.ns_per_block);
    j.key("bit_exact").value(bp.bit_exact);
    j.key("occupancy_sweep").begin_array();
    for (const auto& lp : bp.sweep) {
      j.begin_object();
      j.key("lanes").value(lp.lanes);
      j.key("ns_per_block").value(lp.ns_per_block);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.end_object();
  std::printf("wrote BENCH_simspeed.json\n\n");
}

void BM_RtlSimCyclesPerSecond(benchmark::State& state) {
  aesip::hdl::Simulator sim;
  core::RijndaelIp ip(sim, core::IpMode::kBoth);
  core::BusDriver bus(sim, ip);
  bus.reset();
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  bus.load_key(key);
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RtlSimCyclesPerSecond);

void BM_RtlSimCyclesPerSecondProfiled(benchmark::State& state) {
  // Same kernel loop with a ScopedProfiler attached — the instrumented
  // figure next to the plain one makes the overhead visible in every run.
  aesip::hdl::Simulator sim;
  core::RijndaelIp ip(sim, core::IpMode::kBoth);
  core::BusDriver bus(sim, ip);
  bus.reset();
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  bus.load_key(key);
  aesip::obs::ScopedProfiler prof(sim);
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RtlSimCyclesPerSecondProfiled);

void BM_GateLevelEvaluatorClock(benchmark::State& state) {
  // One clock of the complete mapped encrypt IP (LUT/FF/ROM netlist).
  static const auto mapped =
      aesip::techmap::map_to_luts(core::synthesize_ip(core::IpMode::kEncrypt, true));
  aesip::netlist::Evaluator ev(mapped.mapped);
  ev.settle();
  for (auto _ : state) ev.clock();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GateLevelEvaluatorClock);

void BM_EvaluatorConstruction(benchmark::State& state) {
  static const auto mapped =
      aesip::techmap::map_to_luts(core::synthesize_ip(core::IpMode::kEncrypt, true));
  for (auto _ : state)
    benchmark::DoNotOptimize(aesip::netlist::Evaluator(mapped.mapped));
}
BENCHMARK(BM_EvaluatorConstruction)->Unit(benchmark::kMicrosecond);

void BM_BlockThroughRtlSim(benchmark::State& state) {
  aesip::hdl::Simulator sim;
  core::RijndaelIp ip(sim, core::IpMode::kEncrypt);
  core::BusDriver bus(sim, ip);
  bus.reset();
  const std::array<std::uint8_t, 16> key{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6};
  bus.load_key(key);
  for (auto _ : state) benchmark::DoNotOptimize(bus.process_block(key));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockThroughRtlSim)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  measure_and_dump();
  std::printf("=== Simulation kernel performance (the ModelSim substitute) ===\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
