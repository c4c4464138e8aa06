// The worked examples from docs/*.md, compiled and executed.  Each test
// is the code block from one page, kept in the same shape so the docs
// cannot drift from the real APIs: if a page's example stops compiling
// or stops holding, this suite fails.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "aes/ttable.hpp"
#include "arch/variant.hpp"
#include "engine/engine.hpp"
#include "core/bfm.hpp"
#include "core/ip_synth.hpp"
#include "core/rijndael_ip.hpp"
#include "fpga/device.hpp"
#include "fpga/fitter.hpp"
#include "hdl/module.hpp"
#include "hdl/signal.hpp"
#include "hdl/simulator.hpp"
#include "farm/farm.hpp"
#include "fleet/fleet.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/synth.hpp"
#include "techmap/techmap.hpp"

using namespace aesip;

namespace {

std::array<std::uint8_t, 16> doc_key() {
  return {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

// --- docs/hdl.md: the Counter worked example ------------------------------

class Counter final : public hdl::Module {
 public:
  hdl::Signal<std::uint8_t> value;
  hdl::Signal<bool> at_max;

  explicit Counter(hdl::Simulator& sim)
      : hdl::Module("counter"), value(sim, "value", 4), at_max(sim, "at_max", 1) {
    sim.add_module(*this);
  }

  void evaluate() override { at_max.write(value.read() == 15); }  // combinational
  void tick() override {                                          // rising edge
    value.write(static_cast<std::uint8_t>((value.read() + 1) & 0xf));
  }
};

TEST(DocsHdl, CounterExampleRunsAsDocumented) {
  hdl::Simulator sim;
  Counter ctr(sim);
  sim.settle();                 // settle the reset state
  sim.run(15);                  // 15 clock cycles
  EXPECT_EQ(ctr.value.read(), 15);
  EXPECT_TRUE(ctr.at_max.read());
  sim.step();                   // wraps
  EXPECT_EQ(ctr.value.read(), 0);
  EXPECT_EQ(sim.cycle(), 16u);
}

// --- docs/core.md: the bus-driver worked example --------------------------

TEST(DocsCore, BusDriverExampleRunsAsDocumented) {
  const auto key = doc_key();
  const std::array<std::uint8_t, 16> pt{};

  hdl::Simulator sim;
  core::RijndaelIp ip(sim, core::IpMode::kBoth);
  core::BusDriver bus(sim, ip);

  bus.reset();                                  // the paper's setup period
  bus.load_key(key);                            // 40-cycle decrypt key setup
  auto ct = bus.process_block(pt, true);        // encrypt: data_ok after 50 cycles
  auto rt = bus.process_block(ct, false);       // decrypt round-trips
  EXPECT_EQ(bus.last_latency(), 50u);
  EXPECT_EQ(rt, pt);

  // The live cycle accounting (docs/obs.md):
  const auto& c = ip.counters();
  EXPECT_DOUBLE_EQ(c.cycles_per_round(), 5.0);
  EXPECT_DOUBLE_EQ(c.cycles_per_block(), 50.0);
  EXPECT_EQ(c.key_setup_cycles, 40u);           // one decrypt-capable key load
}

// --- docs/aes.md: CBC + PKCS#7 over both engines, seekable CTR ------------

TEST(DocsAes, SoftwareExampleRunsAsDocumented) {
  const auto key = doc_key();
  const std::array<std::uint8_t, 16> iv{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5,
                                        0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
                                        0xfc, 0xfd, 0xfe, 0xff};
  std::vector<std::uint8_t> message(47, 0xa5);  // any byte length

  aes::Aes128 ref(key);
  aes::TTableAes128 fast(key);

  auto padded = aes::pkcs7_pad(message);
  auto ct_ref = aes::cbc_encrypt(ref, iv, padded);
  auto ct_fast = aes::cbc_encrypt(fast, iv, padded);
  EXPECT_EQ(ct_ref, ct_fast);

  auto round_trip = aes::pkcs7_unpad(aes::cbc_decrypt(ref, iv, ct_ref));
  EXPECT_EQ(round_trip, message);

  // CTR is seekable: block i of the keystream starts at ctr_counter_at(iv, i).
  auto stream = aes::ctr_crypt(ref, iv, padded);
  auto tail = aes::ctr_crypt(ref, aes::ctr_counter_at(iv, 1),
                             std::span(padded).subspan(16));
  EXPECT_EQ(tail, std::vector<std::uint8_t>(stream.begin() + 16, stream.end()));
}

// --- docs/backend.md: synthesize -> map -> fit ----------------------------

TEST(DocsBackend, ImplementationFlowRunsAsDocumented) {
  auto netlist = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  auto mapped = techmap::map_to_luts(netlist);
  auto report = fpga::fit(mapped, fpga::ep1k100fc484_1());

  EXPECT_TRUE(report.fits);
  EXPECT_GT(report.logic_elements, 0u);
  EXPECT_GT(report.le_pct, 0.0);
  EXPECT_EQ(report.memory_bits, static_cast<std::size_t>(
                                    core::expected_rom_bits(core::IpMode::kEncrypt)));
  EXPECT_EQ(report.pins, core::expected_pins(core::IpMode::kEncrypt));
  EXPECT_GT(report.timing.clock_period_ns, 0.0);
  EXPECT_DOUBLE_EQ(report.latency_ns(50), 50.0 * report.timing.clock_period_ns);
  EXPECT_GT(report.throughput_mbps(128, 50), 0.0);
}

// --- docs/netlist.md: lanes() simulations through one settle --------------

TEST(DocsNetlist, BatchEvaluatorExampleRunsAsDocumented) {
  aesip::netlist::Netlist nl;
  const auto in = nl.add_input_bus("a", 8);
  const auto out = aesip::netlist::synth_xtime(nl, in);
  nl.add_output_bus(out, "y");

  // The default config auto-detects the widest backend; force one with
  // BatchConfig / AESIP_BATCH_BACKEND.
  aesip::netlist::BatchEvaluator batch(nl);     // compiles the tape once
  const std::size_t lanes = batch.lanes();      // 64 .. 512, backend-dependent
  EXPECT_GE(lanes, 64u);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    batch.set_bus(in, lane, lane * 3 % 256);    // every lane a different input
  batch.settle();                               // ONE pass, `lanes` results

  aesip::netlist::Evaluator oracle(nl);         // the scalar oracle agrees
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    oracle.set_bus(in, lane * 3 % 256);
    oracle.settle();
    EXPECT_EQ(oracle.get_bus(out), batch.get_bus(out, lane)) << lane;
  }
}

// --- docs/net.md: the loopback client/server worked example ---------------

TEST(DocsNet, LoopbackExampleRunsAsDocumented) {
  const auto key = doc_key();
  const std::array<std::uint8_t, 16> iv{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5,
                                        0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
                                        0xfc, 0xfd, 0xfe, 0xff};
  const auto padded = aes::pkcs7_pad(std::vector<std::uint8_t>(47, 0xa5));

  net::LoopbackTransport transport;        // or TcpTransport + "127.0.0.1:0"

  net::ServerConfig cfg;
  cfg.farm.workers = 2;
  cfg.farm.engine = engine::EngineKind::kSoftware;
  net::Server server(transport, "demo", cfg);
  server.start();                          // serve on a background thread

  net::Client client(transport, "demo", /*session_id=*/7);
  client.set_key(key);
  auto ct = client.enc_blocks(/*cbc=*/true, iv, padded);  // one round trip
  auto rt = client.dec_blocks(/*cbc=*/true, iv, ct);      // rt == padded
  EXPECT_EQ(rt, padded);
  client.drain();                          // barrier: everything answered
  client.bye();
  server.stop();                           // graceful drain + join

  // The wire is a translation layer, not a cipher: same answer as the
  // in-process software reference.
  aes::Aes128 ref(key);
  EXPECT_EQ(ct, aes::cbc_encrypt(ref, iv, padded));
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// --- docs/cluster.md: the two-node sharded cluster worked example ---------

TEST(DocsCluster, TwoNodeExampleRunsAsDocumented) {
  const auto key = doc_key();
  const farm::Key128 iv{};
  const std::vector<std::uint8_t> blocks(32, 0xa5);

  auto transport = net::make_tcp_transport();

  net::ServerConfig cfg;                         // node 0
  cfg.farm.workers = 1;
  cfg.farm.engine = engine::EngineKind::kSoftware;
  cfg.cluster = net::ClusterConfig{.node_id = "n0"};
  cfg.cluster->gossip_interval = std::chrono::milliseconds(20);
  net::Server n0(*transport, "127.0.0.1:0", cfg);
  n0.start();

  cfg.cluster = net::ClusterConfig{              // node 1 seeds off n0
      .node_id = "n1", .seeds = {n0.address()}};
  cfg.cluster->gossip_interval = std::chrono::milliseconds(20);
  net::Server n1(*transport, "127.0.0.1:0", cfg);
  n1.start();

  // ... wait until both directors report alive_count == 2 ...
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const net::Server* s : {&n0, &n1})
    while (s->director()->alive_count(std::chrono::steady_clock::now()) < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(n0.director()->alive_count(std::chrono::steady_clock::now()), 2u);

  // Dial either node; the ring + kRedirect land the session on its owner.
  net::Client client(*transport, n0.address(), /*session_id=*/42);
  client.set_key(key);
  auto ct = client.enc_blocks(/*cbc=*/false, iv, blocks);  // maybe 1 hop
  client.bye();                       // client.redirects() says how many
  EXPECT_LE(client.redirects(), 1u);

  // The shard move is a routing detail, not a cipher change.
  aes::Aes128 ref(key);
  EXPECT_EQ(ct, aes::ecb_encrypt(ref, blocks));
  n1.stop();
  n0.stop();
  EXPECT_EQ(n0.stats().protocol_errors + n1.stats().protocol_errors, 0u);
}

// --- docs/variants.md: naming a point on the Pareto curve ------------------

TEST(DocsVariants, PipelinedSpecExampleRunsAsDocumented) {
  const auto key = doc_key();
  const std::array<std::uint8_t, 16> pt{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                                        0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};

  // Name a point on the curve. "paper" parses as the iterative default.
  const auto spec = arch::VariantSpec::parse("pipe5-xtime").value();
  // 5 stages x 2 rounds: latency 10, a new block admitted every 2 cycles.
  EXPECT_EQ(spec.block_latency_cycles(), 10);
  EXPECT_EQ(spec.issue_interval_cycles(), 2);
  EXPECT_TRUE(arch::VariantSpec::parse("paper").has_value());

  // Same CipherEngine interface as every other kind (engine.md).
  auto e = engine::make_engine(engine::EngineKind::kBehavioral, spec);
  e->load_key(key);                    // 10-cycle stored-key expansion
  const auto ct = e->process_block(pt, /*encrypt=*/true);
  EXPECT_EQ(e->last_latency(), 10u);

  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> want{};
  ref.encrypt_block(pt, want);
  EXPECT_EQ(ct, want);
}

// --- docs/fleet.md: inject, detect, heal — bit-exact throughout -----------

TEST(DocsFleet, ChaosExampleRunsAsDocumented) {
  const auto key = doc_key();
  const std::vector<std::uint8_t> plain(16, 0x3c);
  aes::Aes128 oracle(key);
  std::vector<std::uint8_t> want(16);
  oracle.encrypt_block(plain, want);

  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.engine = engine::EngineKind::kNetlist;
  cfg.spot_check_fraction = 1.0;        // check every job
  farm::Farm f(cfg);
  fleet::ChaosInjector chaos(f, /*seed=*/0xc4a05);

  farm::Request req;
  req.session_id = 1;
  req.mode = farm::Mode::kEcb;
  req.key = key;
  req.payload = plain;

  auto r0 = f.process(req);             // warm: installs the key
  EXPECT_EQ(r0.data, want);

  // A classified-corrupting site can still mask under this traffic, so
  // loop injections until the spot-check fires — bit-exact every time.
  bool detected = false;
  for (int attempt = 0; attempt < 12 && !detected; ++attempt) {
    auto ev = chaos.inject(/*worker=*/0); // flip a corrupting DFF site
    ASSERT_TRUE(ev.injected);
    auto r1 = f.process(req);             // farm catches + heals inline
    EXPECT_EQ(r1.data, want);             // ALWAYS — oracle bytes on mismatch
    detected = r1.replayed;
  }
  EXPECT_TRUE(detected);

  const auto st = f.stats();
  EXPECT_EQ(st.spot_mismatches, st.replayed_jobs);
  EXPECT_GE(st.heals, 1u);
}

// --- docs/keysizes.md: AES-256 from reference to RTL to wire --------------

TEST(DocsKeysizes, Aes256ExampleRunsAsDocumented) {
  std::array<std::uint8_t, 32> key{};                  // 00 01 02 ... 1f
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 16> pt{};                   // 00 11 22 ... ff
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(0x11 * i);

  // Software reference: the key length selects the geometry.
  const aes::Rijndael ref = aes::Rijndael::for_key(key);   // Nk=8, Nr=14
  std::array<std::uint8_t, 16> ct{};
  ref.encrypt_block(pt, ct);                // FIPS-197 C.3: 8ea2b7ca...
  const std::array<std::uint8_t, 16> fips_c3{0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf,
                                             0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49, 0x60, 0x89};
  EXPECT_EQ(ct, fips_c3);

  // The paper's core, re-geometried: 5 cycles/round x 14 rounds.
  const auto spec = arch::VariantSpec::parse("paper@256").value();
  EXPECT_EQ(spec.nr(), 14);
  EXPECT_EQ(spec.block_latency_cycles(), 70);
  EXPECT_EQ(spec.key_setup_cycles(core::IpMode::kBoth), 56);
  auto e = engine::make_engine(engine::EngineKind::kBehavioral, spec);
  e->load_key(key);                         // 56-cycle decrypt key setup
  EXPECT_EQ(e->process_block(pt, /*encrypt=*/true), ct);
  EXPECT_EQ(e->last_latency(), 70u);

  // Over the wire: a 32-byte kSetKey payload IS the AES-256 select.
  net::LoopbackTransport transport;
  net::ServerConfig cfg;
  cfg.farm.workers = 1;
  cfg.farm.engine = engine::EngineKind::kSoftware;
  net::Server server(transport, "demo256", cfg);
  server.start();
  net::Client client(transport, "demo256", /*session_id=*/1);
  client.set_key(key);
  const auto wire_ct = client.enc_blocks(/*cbc=*/false, /*iv=*/{},
                                         {pt.begin(), pt.end()});
  client.bye();
  server.stop();
  EXPECT_EQ(wire_ct, std::vector<std::uint8_t>(ct.begin(), ct.end()));
}

}  // namespace
