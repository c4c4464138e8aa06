// The round-engine variant family (src/arch/variant.*, docs/variants.md):
// spec naming and declared schedules, pipelined multi-block-in-flight
// cycle accounting at gate level and on the behavioral twin, the wr_key
// pipeline-flush hazard rule, mixed-variant farms under real traffic, and
// fleet hot-swap between variants (in-process and over the wire admin
// plane).
//
// Labelled `variants farm fleet`: the farm/fleet halves are
// multi-threaded, so `cmake -DAESIP_SANITIZE=thread ..; ctest -L variants`
// is part of the TSan story alongside -L farm / -L fleet.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <future>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "arch/variant.hpp"
#include "core/bfm.hpp"
#include "core/gate_driver.hpp"
#include "engine/engine.hpp"
#include "farm/farm.hpp"
#include "hdl/simulator.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"

namespace arch = aesip::arch;
namespace core = aesip::core;
namespace engine = aesip::engine;
namespace farm = aesip::farm;
namespace net = aesip::net;
namespace aes = aesip::aes;
using arch::RoundArch;
using arch::VariantSpec;

namespace {

constexpr std::array<std::uint8_t, 16> kKey{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                            0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                            0x09, 0xcf, 0x4f, 0x3c};

VariantSpec must_parse(std::string_view name) {
  const auto s = VariantSpec::parse(name);
  EXPECT_TRUE(s.has_value()) << name;
  return s.value();
}

}  // namespace

// --- the spec itself ---------------------------------------------------------

TEST(VariantSpec_, NameParseRoundTripAcrossFamily) {
  std::set<std::string> names;
  for (const auto& spec : VariantSpec::family()) {
    const auto parsed = VariantSpec::parse(spec.name());
    ASSERT_TRUE(parsed.has_value()) << spec.name();
    EXPECT_TRUE(*parsed == spec) << spec.name();
    EXPECT_TRUE(names.insert(spec.name()).second) << "duplicate " << spec.name();
  }
  EXPECT_GE(names.size(), 7u);  // the documented Pareto roster
  EXPECT_TRUE(must_parse("paper") == VariantSpec{});  // the alias
  EXPECT_FALSE(VariantSpec::parse("pipe3-xtime").has_value());  // 3 does not divide 10
  EXPECT_FALSE(VariantSpec::parse("systolic").has_value());
}

TEST(VariantSpec_, DeclaredSchedulesAreInternallyConsistent) {
  for (const auto& spec : VariantSpec::family()) {
    // Latency covers all ten rounds; the issue interval divides the work
    // among blocks_in_flight() stages.
    if (spec.is_iterative()) {
      EXPECT_EQ(spec.block_latency_cycles(), 50);
      EXPECT_EQ(spec.issue_interval_cycles(), 50);
      EXPECT_EQ(spec.blocks_in_flight(), 1);
      EXPECT_EQ(spec.key_setup_cycles(core::IpMode::kEncrypt), 0);
      EXPECT_EQ(spec.key_setup_cycles(core::IpMode::kBoth), 40);
    } else {
      EXPECT_EQ(spec.block_latency_cycles(), 10);
      EXPECT_EQ(spec.issue_interval_cycles() * spec.blocks_in_flight(), 10)
          << spec.name();
      EXPECT_EQ(spec.key_setup_cycles(core::IpMode::kBoth), 10);
    }
  }
}

// --- pipelined multi-block-in-flight cycle accounting ------------------------

// The tentpole timing claim at gate level: with N stages, a stream of B
// blocks costs exactly latency + (B-1) * (10/N) cycles from the first load
// edge to the last data_ok — N blocks genuinely in flight, not a faster
// serial core. Bytes must match the software reference block for block.
TEST(VariantPipeline, GateLevelStreamCyclesMatchDeclaredSchedule) {
  constexpr std::size_t kBlocks = 20;
  std::mt19937 rng(7);
  std::vector<std::uint8_t> in(16 * kBlocks), want(16 * kBlocks), out(16 * kBlocks);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const aes::Aes128 ref(kKey);
  for (std::size_t i = 0; i < kBlocks; ++i)
    ref.encrypt_block(std::span(in).subspan(16 * i, 16), std::span(want).subspan(16 * i, 16));

  for (const char* name : {"pipe2-xtime", "pipe5-xtime", "pipe10-xtime"}) {
    const auto spec = must_parse(name);
    const auto nl = arch::synthesize_variant(spec, core::IpMode::kBoth);
    core::GateIpDriver drv(nl);
    drv.reset();
    drv.load_key(kKey, spec.key_setup_cycles(core::IpMode::kBoth));

    const auto lone = drv.process(std::span(in).first(16), /*encrypt=*/true);
    ASSERT_TRUE(lone.has_value()) << name;
    EXPECT_EQ(lone->cycles, spec.block_latency_cycles()) << name;

    const auto sr = drv.stream(in, out, kBlocks, /*encrypt=*/true);
    ASSERT_TRUE(sr.has_value()) << name;
    EXPECT_EQ(out, want) << name;
    EXPECT_EQ(sr->cycles,
              spec.block_latency_cycles() +
                  static_cast<int>(kBlocks - 1) * spec.issue_interval_cycles())
        << name << ": the pipeline is not keeping " << spec.blocks_in_flight()
        << " blocks in flight";
  }
}

// The behavioral twin keeps the same schedule through the generic bus
// driver's streaming mode (the farm's fast path).
TEST(VariantPipeline, BehavioralTwinStreamsOnSchedule) {
  constexpr std::size_t kBlocks = 20;
  const aes::Aes128 ref(kKey);
  std::vector<std::array<std::uint8_t, 16>> blocks(kBlocks);
  std::mt19937 rng(11);
  for (auto& b : blocks)
    for (auto& v : b) v = static_cast<std::uint8_t>(rng());

  for (const char* name : {"unroll-xtime", "pipe2-xtime", "pipe5-xtime", "pipe10-xtime"}) {
    const auto spec = must_parse(name);
    aesip::hdl::Simulator sim;
    arch::VariantIp ip(sim, spec, core::IpMode::kBoth);
    core::GenericBusDriver<arch::VariantIp> bus(sim, ip);
    bus.reset();
    EXPECT_EQ(bus.load_key(kKey),
              static_cast<std::uint64_t>(spec.key_setup_cycles(core::IpMode::kBoth)))
        << name;

    const auto got = bus.stream(blocks, /*encrypt=*/true);
    ASSERT_EQ(got.size(), kBlocks) << name;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      std::array<std::uint8_t, 16> want{};
      ref.encrypt_block(blocks[i], want);
      EXPECT_EQ(got[i], want) << name << " block " << i;
    }
    EXPECT_EQ(bus.last_stream_cycles(),
              static_cast<std::uint64_t>(spec.block_latency_cycles() +
                                         (kBlocks - 1) * spec.issue_interval_cycles()))
        << name;
  }
}

// The hazard rule (docs/variants.md): wr_key flushes every in-flight
// block — the key schedule is global state, so nothing started under the
// old key may emit. Gate level, raw ports: admit a block, re-key
// mid-flight, and data_ok must stay low until traffic under the NEW key.
TEST(VariantPipeline, WrKeyFlushesBlocksInFlight) {
  const auto spec = must_parse("pipe5-xtime");
  const auto nl = arch::synthesize_variant(spec, core::IpMode::kBoth);
  core::GateIpDriver drv(nl);
  drv.reset();
  drv.load_key(kKey, spec.key_setup_cycles(core::IpMode::kBoth));

  const std::array<std::uint8_t, 16> pt{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  // Admit a block and let it travel a few stages deep.
  drv.set("encdec", true);
  drv.set_din(pt);
  drv.set("wr_data", true);
  drv.clock();
  drv.set("wr_data", false);
  drv.clock();
  drv.clock();

  // Re-key mid-flight. The in-flight block must be flushed, not finished.
  std::array<std::uint8_t, 16> key2 = kKey;
  key2[0] ^= 0xff;
  drv.set_din(key2);
  drv.set("wr_key", true);
  drv.clock();
  drv.set("wr_key", false);
  bool leaked = false;
  for (int i = 0; i < spec.key_setup_cycles(core::IpMode::kBoth) + 2 * spec.block_latency_cycles();
       ++i) {
    drv.clock();
    leaked = leaked || drv.data_ok();
  }
  EXPECT_FALSE(leaked) << "a block keyed under the old schedule emitted after wr_key";

  // The core is healthy under the new key.
  const aes::Aes128 ref2(key2);
  std::array<std::uint8_t, 16> want{};
  ref2.encrypt_block(pt, want);
  const auto r = drv.process(pt, /*encrypt=*/true);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->data, want);
  EXPECT_EQ(r->cycles, spec.block_latency_cycles());
}

// --- the farm: per-worker variant mix ----------------------------------------

TEST(VariantFarm, MixedVariantWorkersServeCorrectTraffic) {
  farm::FarmConfig cfg;
  cfg.workers = 4;
  cfg.engine = engine::EngineKind::kBehavioral;
  cfg.worker_variants = {must_parse("pipe5-xtime"), must_parse("unroll-xtime"),
                         VariantSpec{},  // the paper core
                         must_parse("pipe10-xtime")};
  farm::Farm f(cfg);

  // Every worker advertises what it runs; the default spec keeps the bare
  // kind name (identical to a farm with no variant mix at all).
  const auto st = f.stats();
  ASSERT_EQ(st.per_worker.size(), 4u);
  EXPECT_EQ(st.per_worker[0].engine, "behavioral:pipe5-xtime");
  EXPECT_EQ(st.per_worker[1].engine, "behavioral:unroll-xtime");
  EXPECT_EQ(st.per_worker[2].engine, "behavioral");
  EXPECT_EQ(st.per_worker[3].engine, "behavioral:pipe10-xtime");

  std::mt19937 rng(3);
  farm::Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const aes::Aes128 ref(key);

  std::vector<std::future<farm::Result>> pending;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int i = 0; i < 64; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i);  // spread across workers
    req.mode = farm::Mode::kCbc;
    req.encrypt = true;
    req.key = key;
    for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
    req.payload.resize(16 * (1 + i % 3));
    for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
    expect.push_back(
        aes::cbc_encrypt(ref, std::span<const std::uint8_t, 16>(req.iv.data(), 16), req.payload));
    pending.push_back(f.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < pending.size(); ++i)
    EXPECT_EQ(pending[i].get().data, expect[i]) << "request " << i;
}

// A netlist farm with a variant mix synthesizes one shared netlist per
// DISTINCT variant and still answers correctly (small traffic: gate-level
// workers simulate the full netlist per cycle).
TEST(VariantFarm, NetlistVariantMixSharesSynthesis) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.engine = engine::EngineKind::kNetlist;
  cfg.worker_variants = {VariantSpec{}, must_parse("pipe2-xtime")};
  farm::Farm f(cfg);

  const auto st = f.stats();
  ASSERT_EQ(st.per_worker.size(), 2u);
  EXPECT_EQ(st.per_worker[0].engine, "netlist");
  EXPECT_EQ(st.per_worker[1].engine, "netlist:pipe2-xtime");

  std::mt19937 rng(5);
  farm::Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const aes::Aes128 ref(key);
  std::vector<std::future<farm::Result>> pending;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int i = 0; i < 6; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i);
    req.mode = farm::Mode::kEcb;
    req.encrypt = true;
    req.key = key;
    req.payload.resize(16);
    for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
    expect.push_back(aes::ecb_encrypt(ref, req.payload));
    pending.push_back(f.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < pending.size(); ++i)
    EXPECT_EQ(pending[i].get().data, expect[i]) << "request " << i;
}

// --- fleet: hot-swap between variants ----------------------------------------

TEST(VariantFleet, SwapBetweenVariantsUnderTraffic) {
  farm::FarmConfig cfg;
  cfg.workers = 2;
  cfg.engine = engine::EngineKind::kBehavioral;
  farm::Farm f(cfg);
  // Fleet-wide swap: every worker's control job is queued first (the swaps
  // overlap), then joined. The farm never drains.
  const auto swap_all = [&](const VariantSpec& variant) {
    std::vector<std::future<farm::SwapReport>> pending;
    for (int w = 0; w < cfg.workers; ++w)
      pending.push_back(f.swap_engine(w, engine::EngineKind::kBehavioral, variant));
    std::vector<farm::SwapReport> reports;
    for (auto& p : pending) reports.push_back(p.get());
    return reports;
  };

  std::mt19937 rng(9);
  farm::Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const aes::Aes128 ref(key);

  auto one_round = [&](int salt) {
    std::vector<std::future<farm::Result>> pending;
    std::vector<std::vector<std::uint8_t>> expect;
    for (int i = 0; i < 16; ++i) {
      farm::Request req;
      req.session_id = static_cast<std::uint64_t>(salt * 100 + i);
      req.mode = farm::Mode::kCtr;
      req.key = key;
      for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
      req.payload.resize(24);  // CTR takes any length
      for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
      expect.push_back(aes::ctr_crypt(
          ref, std::span<const std::uint8_t, 16>(req.iv.data(), 16), req.payload));
      pending.push_back(f.submit(std::move(req)));
    }
    for (std::size_t i = 0; i < pending.size(); ++i)
      EXPECT_EQ(pending[i].get().data, expect[i]) << "salt " << salt << " request " << i;
  };

  one_round(0);
  const auto rep =
      f.swap_engine(0, engine::EngineKind::kBehavioral, must_parse("pipe5-xtime")).get();
  EXPECT_EQ(rep.to, "behavioral:pipe5-xtime");
  one_round(1);
  EXPECT_EQ(f.stats().per_worker[0].engine, "behavioral:pipe5-xtime");

  // Fleet-wide swap to another variant; then back to the paper core, whose
  // label is the bare kind name again.
  const auto reps = swap_all(must_parse("unroll-xtime"));
  ASSERT_EQ(reps.size(), 2u);
  for (const auto& r : reps) EXPECT_EQ(r.to, "behavioral:unroll-xtime");
  one_round(2);
  swap_all(VariantSpec{});
  one_round(3);
  for (const auto& w : f.stats().per_worker) EXPECT_EQ(w.engine, "behavioral");
}

TEST(VariantFleet, WireAdminSwapCarriesVariantName) {
  net::ServerConfig cfg;
  cfg.farm.workers = 2;
  cfg.farm.engine = engine::EngineKind::kSoftware;
  net::LoopbackTransport transport;
  net::Server server(transport, "variants", cfg);
  server.start();
  {
    net::Client client(transport, "variants", 1);

    // kind 1 = behavioral, with a variant name appended to the payload.
    const auto swapped = client.fleet_swap(0, 1, "pipe5-xtime");
    EXPECT_NE(swapped.find("behavioral:pipe5-xtime"), std::string::npos) << swapped;

    // The empty variant keeps the paper core: the destination label is the
    // bare kind name (the "from" side still names the variant swapped out).
    const auto plain = client.fleet_swap(0, 1);
    EXPECT_NE(plain.find("-> behavioral,"), std::string::npos) << plain;

    try {
      client.fleet_swap(0, 1, "pipe7-xtime");
      FAIL() << "unknown variant accepted over the wire";
    } catch (const net::WireError& e) {
      EXPECT_EQ(e.code(), net::ErrorCode::kBadPayload);
      EXPECT_NE(std::string(e.what()).find("unknown variant"), std::string::npos);
    }
    client.bye();
  }
  server.stop();
}
