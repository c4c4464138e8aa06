// The observability layer: IP phase counters (the paper's 4+1 / 50-cycle
// budget as live totals), bus-side accounting, the simulator profiler,
// the lock-free histogram, the trace rings, and the farm's metrics.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/bfm.hpp"
#include "core/rijndael_ip.hpp"
#include "farm/farm.hpp"
#include "hdl/profile.hpp"
#include "hdl/simulator.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "report/json.hpp"

namespace core = aesip::core;
namespace hdl = aesip::hdl;
namespace obs = aesip::obs;
namespace farm = aesip::farm;
namespace report = aesip::report;

namespace {

std::array<std::uint8_t, 16> test_key() {
  return {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
}

struct Rig {
  hdl::Simulator sim;
  core::RijndaelIp ip;
  core::BusDriver bus;
  explicit Rig(core::IpMode mode) : ip(sim, mode), bus(sim, ip) {
    bus.reset();
    bus.load_key(test_key());
  }
};

// --- IP phase counters: the paper's cycle budget as running totals --------

TEST(IpCounters, EncryptBlockCostsExactly40Plus10Cycles) {
  Rig r(core::IpMode::kEncrypt);
  r.ip.reset_counters();
  std::array<std::uint8_t, 16> block{};
  for (int b = 1; b <= 7; ++b) {
    block = r.bus.process_block(block, true);
    const auto& c = r.ip.counters();
    // 4 ByteSub32 slices + 1 SR/MC/AK per round, 10 rounds per block.
    EXPECT_EQ(c.bytesub_cycles, 40u * static_cast<unsigned>(b));
    EXPECT_EQ(c.mix_cycles, 10u * static_cast<unsigned>(b));
    EXPECT_EQ(c.rounds_done, 10u * static_cast<unsigned>(b));
    EXPECT_EQ(c.blocks_enc, static_cast<std::uint64_t>(b));
    EXPECT_EQ(c.blocks_dec, 0u);
  }
}

TEST(IpCounters, DecryptBlockCostsExactly40Plus10Cycles) {
  Rig r(core::IpMode::kDecrypt);
  r.ip.reset_counters();
  std::array<std::uint8_t, 16> block{};
  for (int b = 1; b <= 7; ++b) {
    block = r.bus.process_block(block, false);
    const auto& c = r.ip.counters();
    EXPECT_EQ(c.bytesub_cycles, 40u * static_cast<unsigned>(b));
    EXPECT_EQ(c.mix_cycles, 10u * static_cast<unsigned>(b));
    EXPECT_EQ(c.rounds_done, 10u * static_cast<unsigned>(b));
    EXPECT_EQ(c.blocks_dec, static_cast<std::uint64_t>(b));
    EXPECT_EQ(c.blocks_enc, 0u);
  }
}

TEST(IpCounters, LiveInvariantsHoldOnMixedWorkload) {
  Rig r(core::IpMode::kBoth);
  std::mt19937 rng(7);
  std::array<std::uint8_t, 16> block{};
  for (int i = 0; i < 23; ++i) {
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    const auto ct = r.bus.process_block(block, true);
    const auto pt = r.bus.process_block(ct, false);
    EXPECT_TRUE(std::equal(pt.begin(), pt.end(), block.begin()));
  }
  const auto& c = r.ip.counters();
  EXPECT_EQ(c.blocks(), 46u);
  EXPECT_EQ(c.cycles_per_round(), 5.0);   // exact: 5 = 4 ByteSub32 + 1 mix
  EXPECT_EQ(c.cycles_per_block(), 50.0);  // exact: 10 rounds x 5
  EXPECT_EQ(c.round_cycles(), c.blocks() * core::RijndaelIp::kCyclesPerBlock);
}

TEST(IpCounters, DecryptDeviceSpends40CyclesPerKeySetup) {
  Rig r(core::IpMode::kBoth);
  const auto& c = r.ip.counters();
  EXPECT_EQ(c.key_setup_cycles, 40u);  // the load in Rig's constructor
  auto key2 = test_key();
  key2[0] ^= 0xff;
  r.bus.load_key(key2);
  EXPECT_EQ(c.key_setup_cycles, 80u);
  EXPECT_EQ(c.key_writes, 2u);
}

TEST(IpCounters, EncryptOnlyDeviceSkipsKeySetup) {
  Rig r(core::IpMode::kEncrypt);
  EXPECT_EQ(r.ip.counters().key_setup_cycles, 0u);
  EXPECT_EQ(r.ip.counters().key_writes, 1u);
}

TEST(IpCounters, ResetCountersZeroesEverything) {
  Rig r(core::IpMode::kBoth);
  (void)r.bus.process_block(test_key(), true);
  r.ip.reset_counters();
  const auto& c = r.ip.counters();
  EXPECT_EQ(c.round_cycles(), 0u);
  EXPECT_EQ(c.blocks(), 0u);
  EXPECT_EQ(c.rounds_done, 0u);
  EXPECT_EQ(c.key_setup_cycles, 0u);
}

// --- bus-side accounting ---------------------------------------------------

TEST(BusCounters, AttributesLoadAndComputeCycles) {
  Rig r(core::IpMode::kBoth);
  r.bus.reset_counters();
  std::array<std::uint8_t, 16> block{};
  for (int i = 0; i < 5; ++i) block = r.bus.process_block(block, true);
  const auto& c = r.bus.counters();
  EXPECT_EQ(c.blocks, 5u);
  EXPECT_EQ(c.load_cycles, 5u);
  EXPECT_EQ(c.compute_cycles, 5u * 50u);  // each block: 50 cycles load->data_ok
  EXPECT_EQ(c.rekey_hits, 0u);
}

TEST(BusCounters, RekeyHitIsFreeAndCounted) {
  Rig r(core::IpMode::kBoth);
  r.bus.reset_counters();
  EXPECT_EQ(r.bus.rekey(test_key()), 0u);  // resident from Rig's ctor
  EXPECT_EQ(r.bus.counters().rekey_hits, 1u);
  EXPECT_EQ(r.bus.counters().key_loads, 0u);
  auto other = test_key();
  other[5] ^= 1;
  EXPECT_EQ(r.bus.rekey(other), 40u);  // miss: full 40-cycle setup
  EXPECT_EQ(r.bus.counters().key_loads, 1u);
  EXPECT_EQ(r.bus.counters().key_setup_cycles, 40u);
}

// --- simulator profiler ----------------------------------------------------

TEST(Profiler, CountsMatchKernelActivity) {
  Rig r(core::IpMode::kBoth);
  obs::ScopedProfiler prof(r.sim);
  const auto c0 = r.sim.cycle();
  (void)r.bus.process_block(test_key(), true);
  const auto& p = prof.profile();
  const auto cycles = r.sim.cycle() - c0;
  EXPECT_EQ(p.steps, cycles);
  // Each step settles twice (pre- and post-edge); nothing else settled.
  EXPECT_EQ(p.settles, 2 * cycles);
  // Every module is evaluated once per delta and ticked once per step.
  ASSERT_FALSE(p.modules.empty());
  for (const auto& m : p.modules) {
    EXPECT_EQ(m.evals, p.deltas) << m.name;
    EXPECT_EQ(m.ticks, p.steps) << m.name;
  }
  EXPECT_GE(p.deltas, p.settles);  // at least one delta per settle
  EXPECT_GT(p.total_activity(), 0u);
  EXPECT_LE(p.max_deltas, static_cast<std::uint64_t>(hdl::Simulator::kMaxDeltas));
}

TEST(Profiler, ResultsIdenticalWithAndWithoutProfiler) {
  Rig plain(core::IpMode::kBoth);
  Rig probed(core::IpMode::kBoth);
  obs::ScopedProfiler prof(probed.sim);
  std::mt19937 rng(3);
  std::array<std::uint8_t, 16> block{};
  for (int i = 0; i < 9; ++i) {
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    const auto a = plain.bus.process_block(block, true);
    const auto b2 = probed.bus.process_block(block, true);
    EXPECT_EQ(a, b2);
  }
  EXPECT_EQ(plain.sim.cycle(), probed.sim.cycle());
}

TEST(Profiler, DetachRestoresUninstrumentedPath) {
  Rig r(core::IpMode::kBoth);
  {
    obs::ScopedProfiler prof(r.sim);
    EXPECT_NE(r.sim.profiler(), nullptr);
  }
  EXPECT_EQ(r.sim.profiler(), nullptr);
  (void)r.bus.process_block(test_key(), true);  // must run fine detached
}

TEST(Profiler, ExternalSinkAccumulatesAcrossWindows) {
  Rig r(core::IpMode::kBoth);
  hdl::SimProfile acc;
  {
    obs::ScopedProfiler prof(r.sim, acc);
    (void)r.bus.process_block(test_key(), true);
  }
  const auto after_one = acc.steps;
  EXPECT_GT(after_one, 0u);
  {
    obs::ScopedProfiler prof(r.sim, acc);
    (void)r.bus.process_block(test_key(), true);
  }
  EXPECT_EQ(acc.steps, 2 * after_one);
  for (const auto& m : acc.modules) EXPECT_EQ(m.ticks, acc.steps) << m.name;
}

TEST(Profiler, ReportAndJsonMentionEveryModule) {
  Rig r(core::IpMode::kBoth);
  obs::ScopedProfiler prof(r.sim);
  (void)r.bus.process_block(test_key(), true);
  const std::string text = prof.report();
  std::ostringstream js;
  {
    report::JsonWriter j(js);
    prof.write_json(j);
  }
  const std::string json = js.str();
  EXPECT_NE(text.find("rijndael_ip"), std::string::npos);
  EXPECT_NE(json.find("\"rijndael_ip\""), std::string::npos);
  EXPECT_NE(json.find("\"signal_toggles\""), std::string::npos);
}

// --- histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ull), 64);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(64), ~0ull);
}

TEST(Histogram, ExactTotalsAndBoundedPercentiles) {
  obs::Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.record(v);
    sum += v;
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.max, 999u);
  EXPECT_DOUBLE_EQ(s.mean(), static_cast<double>(sum) / 1000.0);
  // Percentiles are bucket upper bounds: never below the true value,
  // never above the observed max.
  EXPECT_GE(s.percentile(0.50), 499u);
  EXPECT_LE(s.percentile(0.50), 999u);
  EXPECT_EQ(s.percentile(1.0), 999u);
  EXPECT_LE(s.percentile(0.99), s.max);
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i & 0xff));
    });
  for (auto& th : threads) th.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.max, 3000u + 0xffu);
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.record(7);
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.percentile(0.99), 0u);
}

// --- tracer ----------------------------------------------------------------

TEST(Tracer, KeepsNewestEventsWhenRingWraps) {
  obs::Tracer tr(1, 8);
  for (std::uint64_t i = 0; i < 20; ++i)
    tr.record(0, {/*ts_us=*/i, /*dur_us=*/1, /*name=*/0, /*track=*/0, i, 0});
  EXPECT_EQ(tr.recorded(), 20u);
  EXPECT_EQ(tr.dropped(), 12u);
  const auto ev = tr.events(0);
  ASSERT_EQ(ev.size(), 8u);
  for (std::size_t i = 0; i < ev.size(); ++i)
    EXPECT_EQ(ev[i].ts_us, 12 + i);  // oldest-first, newest retained
}

TEST(Tracer, ChromeTraceJsonIsWellFormed) {
  obs::Tracer tr(2, 16);
  tr.record(0, {10, 5, /*name=*/0, /*track=*/0, 3, 0});
  tr.record(1, {20, 7, /*name=*/2, /*track=*/1, 8, 40});
  tr.record(1, {40, 2, /*name=*/9, /*track=*/1, 1, 0});  // out-of-range name
  static constexpr const char* kNames[] = {"ecb", "cbc", "ctr"};
  std::ostringstream os;
  tr.write_chrome_trace(os, kNames, "farm");
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ecb\""), std::string::npos);
  EXPECT_NE(s.find("\"ctr\""), std::string::npos);
  EXPECT_NE(s.find("\"event\""), std::string::npos);  // the fallback label
  EXPECT_NE(s.find("\"farm\""), std::string::npos);
  // Balanced braces/brackets => parses at the structural level.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

// --- farm metrics ----------------------------------------------------------

farm::Request small_request(std::uint64_t session, std::mt19937& rng) {
  farm::Request req;
  req.session_id = session;
  farm::Key128 kb;
  for (auto& b : kb) b = static_cast<std::uint8_t>(session + 1);
  req.key = kb;
  for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
  req.mode = farm::Mode::kCbc;
  req.payload.resize(32);
  for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
  return req;
}

TEST(FarmMetrics, WaitHistogramCountsEveryExecutedJob) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4;  // small: forces real backpressure waits
  farm::Farm f(cfg);
  std::mt19937 rng(11);
  std::vector<std::future<farm::Result>> futs;
  constexpr int kJobs = 200;
  for (int i = 0; i < kJobs; ++i)
    futs.push_back(f.submit(small_request(static_cast<std::uint64_t>(i % 8), rng)));
  for (auto& fu : futs) fu.get();
  const auto st = f.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kJobs));
  // Every executed job recorded one wait sample and one depth sample;
  // totals are exact (no sampling, no loss).
  std::uint64_t per_worker_requests = 0;
  for (const auto& w : st.per_worker) per_worker_requests += w.requests;
  EXPECT_EQ(st.queue_wait_us.count, per_worker_requests);
  EXPECT_EQ(st.queue_depth.count, per_worker_requests);
  EXPECT_LE(st.queue_depth.max, static_cast<std::uint64_t>(cfg.queue_capacity));
}

TEST(FarmMetrics, ShedLoadIsAccountedNotMeasured) {
  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  farm::Farm f(cfg);
  std::mt19937 rng(13);
  std::vector<std::future<farm::Result>> futs;
  std::uint64_t accepted = 0, rejected = 0;
  constexpr int kAttempts = 300;
  for (int i = 0; i < kAttempts; ++i) {
    auto maybe = f.try_submit(small_request(0, rng));
    if (maybe) {
      futs.push_back(std::move(*maybe));
      ++accepted;
    } else {
      ++rejected;
    }
  }
  for (auto& fu : futs) fu.get();
  const auto st = f.stats();
  EXPECT_EQ(accepted + rejected, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.requests, accepted);
  // Only accepted jobs appear in the wait histogram.
  EXPECT_EQ(st.queue_wait_us.count, accepted);
}

TEST(FarmMetrics, UtilizationIsAFractionPerWorker) {
  farm::FarmConfig cfg;
  cfg.workers = 3;
  farm::Farm f(cfg);
  std::mt19937 rng(17);
  std::vector<std::future<farm::Result>> futs;
  for (int i = 0; i < 60; ++i)
    futs.push_back(f.submit(small_request(static_cast<std::uint64_t>(i % 6), rng)));
  for (auto& fu : futs) fu.get();
  const auto st = f.stats();
  ASSERT_EQ(st.per_worker.size(), 3u);
  double total_busy = 0;
  for (const auto& w : st.per_worker) {
    EXPECT_GE(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.0);
    total_busy += static_cast<double>(w.busy_ns);
  }
  EXPECT_GT(total_busy, 0.0);  // someone did the work
}

TEST(FarmMetrics, TracingRecordsOneEventPerJobAndDumps) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.tracing = true;
  cfg.trace_capacity = 1024;
  farm::Farm f(cfg);
  std::mt19937 rng(19);
  std::vector<std::future<farm::Result>> futs;
  constexpr int kJobs = 50;
  for (int i = 0; i < kJobs; ++i)
    futs.push_back(f.submit(small_request(static_cast<std::uint64_t>(i % 4), rng)));
  for (auto& fu : futs) fu.get();
  const auto st = f.stats();
  EXPECT_EQ(st.trace_events, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.trace_dropped, 0u);
  std::ostringstream os;
  EXPECT_TRUE(f.write_chrome_trace(os));
  EXPECT_NE(os.str().find("\"cbc\""), std::string::npos);
}

TEST(FarmMetrics, TracingOffMeansNoEventsAndNoDump) {
  farm::Farm f{farm::FarmConfig{}};
  std::ostringstream os;
  EXPECT_FALSE(f.write_chrome_trace(os));
  EXPECT_TRUE(os.str().empty());
  EXPECT_EQ(f.stats().trace_events, 0u);
}

TEST(FarmMetrics, StatsJsonCarriesObservabilityFields) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.tracing = true;
  farm::Farm f(cfg);
  std::mt19937 rng(23);
  std::vector<std::future<farm::Result>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(f.submit(small_request(static_cast<std::uint64_t>(i % 2), rng)));
  for (auto& fu : futs) fu.get();
  std::ostringstream os;
  {
    report::JsonWriter j(os);
    f.stats().write_json(j, 14.0);
  }
  const std::string s = os.str();
  EXPECT_NE(s.find("\"queue_wait_us\""), std::string::npos);
  EXPECT_NE(s.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(s.find("\"utilization\""), std::string::npos);
  EXPECT_NE(s.find("\"trace_events\""), std::string::npos);
}

}  // namespace
