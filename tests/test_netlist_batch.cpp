// BatchEvaluator vs. Evaluator: the lane-packed compiled tape must agree
// bit-for-bit with the scalar interpreter on every netlist this repository
// can produce — every synthesized datapath block (all cell kinds, ROMs),
// random LUT networks over every arity, clock-enabled flip-flops with
// per-lane enables, and the full IP through the Table 1 protocol across
// partial batch widths. The scalar evaluator is the oracle; any divergence
// here is a compile bug in the tape, not a netlist bug.
//
// The whole suite runs against whatever backend AESIP_BATCH_BACKEND forces
// (the ctest matrix runs it once per compiled-in backend: u64, avx2,
// avx512 — and neon on aarch64).  When the forced backend is not
// supported on this host, every test skips with the reason, mirroring the
// hw<4 skips elsewhere in the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "aes/sbox.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "engine/engine.hpp"
#include "farm/farm.hpp"
#include "fleet/fleet.hpp"
#include "netlist/batch_backend.hpp"
#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "netlist/synth.hpp"
#include "settle_probe.hpp"

namespace nlist = aesip::netlist;
namespace aes = aesip::aes;
namespace core = aesip::core;
namespace farm = aesip::farm;
namespace fleet = aesip::fleet;
using nlist::BatchEvaluator;
using nlist::Bus;
using nlist::Evaluator;
using nlist::Netlist;

namespace {

/// Base fixture: skip with a reason when AESIP_BATCH_BACKEND forces a
/// backend this host cannot run (the backend-matrix ctest rows rely on
/// this — same shape as the hw<4 conformance skips).
class NetlistBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const auto forced = nlist::env_forced_backend();
        forced && !nlist::backend_supported(*forced))
      GTEST_SKIP() << "batch backend '" << nlist::backend_name(*forced)
                   << "' is not supported on this host";
  }
};

/// The cache tests keep their own suite name on the same skip guard.
using NetlistBatchCache = NetlistBatch;

/// Drive every primary input with independent random data in EVERY lane
/// word (so a wide backend's upper words are exercised, not just word 0),
/// then check every primary output in every lane against the scalar
/// evaluator fed the corresponding lane's bits. Combinational only.
void check_comb_parity(const Netlist& nl, std::uint32_t seed, int rounds = 4) {
  Evaluator scalar(nl);
  BatchEvaluator batch(nl);
  std::mt19937_64 rng(seed);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::pair<nlist::NetId, std::vector<std::uint64_t>>> stim;
    for (const auto& pin : nl.inputs()) {
      std::vector<std::uint64_t> words(batch.stride());
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        words[wi] = rng();
        batch.set_word(pin.net, words[wi], wi);
      }
      stim.emplace_back(pin.net, std::move(words));
    }
    batch.settle();
    for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
      for (const auto& [net, words] : stim)
        scalar.set(net, (words[lane / 64] >> (lane % 64)) & 1U);
      scalar.settle();
      for (const auto& pout : nl.outputs())
        ASSERT_EQ(scalar.get(pout.net), batch.get(pout.net, lane))
            << "output " << pout.name << " lane " << lane << " round " << r;
    }
  }
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Every net's lane words, net-major.
std::vector<std::uint64_t> all_words(const Netlist& nl, const BatchEvaluator& ev) {
  std::vector<std::uint64_t> out;
  for (nlist::NetId n = 0; n < nl.net_count(); ++n)
    for (std::size_t g = 0; g < ev.stride(); ++g) out.push_back(ev.word(n, g));
  return out;
}

/// The nets a freshly built evaluator settles to when given `subject`'s
/// primary inputs and flip-flop state.  A fresh evaluator always sweeps
/// on its first settle, so this is the ground truth for that state.
std::vector<std::uint64_t> settled_image(const Netlist& nl, const BatchEvaluator& subject) {
  BatchEvaluator fresh(nl);
  for (const auto& pin : nl.inputs())
    for (std::size_t g = 0; g < subject.stride(); ++g)
      fresh.set_word(pin.net, subject.word(pin.net, g), g);
  std::size_t index = 0;
  for (const auto& cell : nl.cells()) {
    if (cell.kind != nlist::CellKind::kDff) continue;
    std::vector<std::uint64_t> q(subject.stride());
    for (std::size_t g = 0; g < q.size(); ++g) q[g] = subject.word(cell.out, g);
    fresh.flip_dff_mask(index++, q);  // fresh state is all zero
  }
  fresh.settle();
  return all_words(nl, fresh);
}

/// din/dout net ids of an IP netlist, bit 8k+b = bit b of byte k.
Bus port_bus(const std::vector<Netlist::PortBit>& ports, const std::string& name) {
  Bus bus(128, nlist::kNoNet);
  for (const auto& p : ports)
    for (std::size_t i = 0; i < 128; ++i)
      if (p.name == name + "[" + std::to_string(i) + "]") bus[i] = p.net;
  return bus;
}

}  // namespace

// Every synthesized datapath block, lane-for-lane. Exercises every
// combinational cell kind the generators emit: primitive gates (xtime,
// MixColumn), pure wiring (ShiftRows), ROM macros, and the kLut networks of
// the Shannon and composite-field S-boxes.
TEST_F(NetlistBatch, SynthesizedBlocksMatchScalar) {
  struct Block {
    const char* name;
    void (*build)(Netlist&);
  };
  const Block blocks[] = {
      {"xtime",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_xtime(nl, nl.add_input_bus("a", 8)), "y");
       }},
      {"mix_column_fwd",
       [](Netlist& nl) {
         std::array<Bus, 4> in;
         for (int i = 0; i < 4; ++i)
           in[static_cast<std::size_t>(i)] = nl.add_input_bus("a" + std::to_string(i), 8);
         const auto out = nlist::synth_mix_column(nl, in, false);
         for (int i = 0; i < 4; ++i)
           nl.add_output_bus(out[static_cast<std::size_t>(i)], "y" + std::to_string(i));
       }},
      {"mix_column_inv",
       [](Netlist& nl) {
         std::array<Bus, 4> in;
         for (int i = 0; i < 4; ++i)
           in[static_cast<std::size_t>(i)] = nl.add_input_bus("a" + std::to_string(i), 8);
         const auto out = nlist::synth_mix_column(nl, in, true);
         for (int i = 0; i < 4; ++i)
           nl.add_output_bus(out[static_cast<std::size_t>(i)], "y" + std::to_string(i));
       }},
      {"mix_columns128_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_mix_columns128(nl, nl.add_input_bus("state", 128), false), "y");
       }},
      {"mix_columns128_inv",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_mix_columns128(nl, nl.add_input_bus("state", 128), true), "y");
       }},
      {"shift_rows128_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_shift_rows128(nl.add_input_bus("state", 128), false),
                           "y");
       }},
      {"shift_rows128_inv",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_shift_rows128(nl.add_input_bus("state", 128), true),
                           "y");
       }},
      {"sbox_rom",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_sbox_rom(nl, aes::kSBox, nl.add_input_bus("addr", 8), "sbox"), "y");
       }},
      {"sbox_logic",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_logic(nl, aes::kSBox, nl.add_input_bus("addr", 8)),
                           "y");
       }},
      {"sbox_composite_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_composite(nl, nl.add_input_bus("addr", 8), false),
                           "y");
       }},
      {"sbox_composite_inv",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_composite(nl, nl.add_input_bus("addr", 8), true),
                           "y");
       }},
      {"sub_word32_rom",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sub_word32(nl, aes::kSBox, nl.add_input_bus("w", 32),
                                                   /*as_rom=*/true, "bank"),
                           "y");
       }},
      {"sub_word32_logic",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sub_word32(nl, aes::kSBox, nl.add_input_bus("w", 32),
                                                   /*as_rom=*/false, "bank"),
                           "y");
       }},
  };
  std::uint32_t seed = 1;
  for (const auto& b : blocks) {
    SCOPED_TRACE(b.name);
    Netlist nl;
    b.build(nl);
    check_comb_parity(nl, seed++);
  }
}

// Random pre-mapped LUT networks across every legal arity (1..4) with
// random truth tables — the Shannon expansion's constant-cofactor collapse
// paths all get hit somewhere in here.
TEST_F(NetlistBatch, RandomLutNetworksMatchScalar) {
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(seed);
    Netlist nl;
    std::mt19937 rng(1000 + seed);
    std::vector<nlist::NetId> pool = nl.add_input_bus("in", 8);
    pool.push_back(nl.const0());
    pool.push_back(nl.const1());
    Bus outs;
    for (int i = 0; i < 48; ++i) {
      const int arity = 1 + i % 4;
      std::vector<nlist::NetId> in(static_cast<std::size_t>(arity));
      for (auto& n : in) n = pool[rng() % pool.size()];
      // Unmasked masks include constant-0/constant-1 tables, so every
      // Shannon constant-cofactor collapse path gets exercised.
      const auto all = static_cast<std::uint16_t>((1U << (1U << arity)) - 1U);
      const auto mask = static_cast<std::uint16_t>(rng() & all);
      const nlist::NetId q = nl.add_lut(mask, in);
      pool.push_back(q);
      if (i % 4 == 3) outs.push_back(q);
    }
    nl.add_output_bus(outs, "y");
    check_comb_parity(nl, 2000 + seed, /*rounds=*/2);
  }
}

// Every ROM gather, exhaustively: one-ROM netlists over the AES S-box, its
// inverse and a seeded random table.  Settle s drives lane L with address
// (s + L) mod 256, so over 256 settles every lane of every lane group reads
// every address byte — both halves of a split-table lookup, in every byte
// position of every vector.  Every output byte is checked against the
// table, and lanes 0, 63, 64 and lanes()-1 against the scalar Evaluator.
TEST_F(NetlistBatch, RomGatherIsExhaustivelyExact) {
  std::array<std::uint8_t, 256> random_table{};
  const auto bytes = random_bytes(256, 22);
  std::copy(bytes.begin(), bytes.end(), random_table.begin());
  const std::pair<const char*, const std::array<std::uint8_t, 256>*> tables[] = {
      {"sbox", &aes::kSBox}, {"inv_sbox", &aes::kInvSBox}, {"random", &random_table}};
  for (const auto& [name, table] : tables) {
    SCOPED_TRACE(name);
    Netlist nl;
    const Bus addr = nl.add_input_bus("a", 8);
    const Bus data = nl.add_rom(*table, addr, name);
    nl.add_output_bus(data, "d");
    BatchEvaluator batch(nl);
    Evaluator scalar(nl);
    const std::size_t L = batch.lanes();
    std::vector<std::size_t> probes;
    for (const std::size_t lane : {std::size_t{0}, std::size_t{63}, std::size_t{64}, L - 1})
      if (lane < L) probes.push_back(lane);
    for (unsigned s = 0; s < 256; ++s) {
      const auto address = [&](std::size_t lane) { return (s + lane) % 256; };
      for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t g = 0; g < batch.stride(); ++g) {
          std::uint64_t word = 0;
          for (std::size_t b = 0; b < 64; ++b)
            word |= std::uint64_t{(address(64 * g + b) >> i) & 1U} << b;
          batch.set_word(addr[i], word, g);
        }
      batch.settle();
      for (std::size_t lane = 0; lane < L; ++lane) {
        unsigned got = 0;
        for (std::size_t i = 0; i < 8; ++i)
          got |= static_cast<unsigned>((batch.word(data[i], lane / 64) >> (lane % 64)) & 1U) << i;
        ASSERT_EQ(got, (*table)[address(lane)]) << "lane " << lane << " settle " << s;
      }
      for (const std::size_t lane : probes) {
        scalar.set_bus(addr, address(lane));
        scalar.settle();
        ASSERT_EQ(scalar.get_bus(data), batch.get_bus(data, lane))
            << "lane " << lane << " settle " << s;
      }
    }
  }
}

// Sequential parity: flip-flops with and without clock-enables, where the
// enables differ per lane — so lanes genuinely diverge. One BatchEvaluator
// against 64 independent scalar evaluators over several clocks.
TEST_F(NetlistBatch, ClockEnableDffsDivergePerLane) {
  Netlist nl;
  const Bus d = nl.add_input_bus("d", 4);
  const nlist::NetId en0 = nl.add_input("en0");
  const nlist::NetId en1 = nl.add_input("en1");
  const nlist::NetId q0 = nl.add_dff(d[0]);                       // always enabled
  const nlist::NetId q1 = nl.add_dff(d[1], en0);                  // gated
  const nlist::NetId q2 = nl.add_dff(nl.gate_xor(q0, d[2]), en1); // gated, feedback cone
  const nlist::NetId q3 = nl.add_dff(nl.gate_mux(en0, q1, d[3])); // enable used as data
  const Bus q{q0, q1, q2, q3};
  nl.add_output_bus(q, "q");

  BatchEvaluator batch(nl);
  const std::size_t lanes = batch.lanes();
  std::vector<std::unique_ptr<Evaluator>> scalars;
  for (std::size_t lane = 0; lane < lanes; ++lane)
    scalars.push_back(std::make_unique<Evaluator>(nl));

  std::mt19937_64 rng(42);
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::vector<std::pair<nlist::NetId, std::vector<std::uint64_t>>> stim;
    for (const auto& pin : nl.inputs()) {
      std::vector<std::uint64_t> words(batch.stride());
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        words[wi] = rng();
        batch.set_word(pin.net, words[wi], wi);
      }
      stim.emplace_back(pin.net, std::move(words));
    }
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (const auto& [net, words] : stim)
        scalars[lane]->set(net, (words[lane / 64] >> (lane % 64)) & 1U);
    batch.clock();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      scalars[lane]->clock();
      for (const auto& pout : nl.outputs())
        ASSERT_EQ(scalars[lane]->get(pout.net), batch.get(pout.net, lane))
            << "cycle " << cycle << " lane " << lane << " output " << pout.name;
    }
  }

  // reset() zeroes and publishes Q in every lane without settling — the
  // scalar evaluator's exact contract.
  batch.reset();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    scalars[lane]->reset();
    for (const nlist::NetId n : q) {
      ASSERT_FALSE(batch.get(n, lane)) << "lane " << lane;
      ASSERT_EQ(scalars[lane]->get(n), batch.get(n, lane));
    }
  }
}

// Both evaluators must reject a combinational cycle at construction. The
// normal builder API only produces DAGs; add_lut_with_out (the
// transformation-pass escape hatch) can miswire a loop — x = AND(a, y),
// y = AND(a, x) — and both constructors must refuse it identically.
TEST_F(NetlistBatch, CombinationalCycleRejectionParity) {
  Netlist nl;
  const nlist::NetId a = nl.add_input("a");
  const nlist::NetId x = nl.new_net();
  const nlist::NetId y = nl.new_net();
  const std::array<nlist::NetId, 2> in_x{a, y};
  const std::array<nlist::NetId, 2> in_y{a, x};
  nl.add_lut_with_out(x, 0b1000, in_x);
  nl.add_lut_with_out(y, 0b1000, in_y);
  nl.add_output(y, "y");
  EXPECT_THROW(Evaluator scalar(nl), std::runtime_error);
  EXPECT_THROW(BatchEvaluator batch(nl), std::runtime_error);
}

// settle() sweeps only when the network changed, so every mutator must
// mark it: settle, apply one mutator, settle again, and every net must
// equal what a freshly built evaluator settles to in the same state.  A
// mutator that forgot to mark the network leaves stale nets behind.
TEST_F(NetlistBatch, EveryMutatorMarksTheNetworkForSettle) {
  Netlist nl;
  const Bus a = aesip::testing::build_settle_probe(nl);
  BatchEvaluator ev(nl);
  const std::size_t S = ev.stride();
  const std::size_t L = ev.lanes();
  std::mt19937_64 rng(0x5e771e);
  for (int cycle = 0; cycle < 4; ++cycle) {  // random inputs and DFF state
    for (const auto& pin : nl.inputs())
      for (std::size_t g = 0; g < S; ++g) ev.set_word(pin.net, rng(), g);
    ev.settle();
    ev.clock();
  }

  struct Mutator {
    const char* name;
    std::function<void()> apply;
  };
  const std::vector<Mutator> mutators = {
      {"set", [&] { ev.set(a[1], L - 1, !ev.get(a[1], L - 1)); }},
      {"set_word", [&] { ev.set_word(a[2], ~ev.word(a[2], S - 1), S - 1); }},
      {"broadcast", [&] { ev.broadcast(a[3], !ev.get(a[3], 0)); }},
      {"set_bus", [&] { ev.set_bus(a, L / 2, ev.get_bus(a, L / 2) ^ 0x5A); }},
      {"broadcast_bus", [&] { ev.broadcast_bus(a, ev.get_bus(a, 0) ^ 0xFF); }},
      {"flip_dff", [&] { ev.flip_dff(2); }},
      {"flip_dff_lane", [&] { ev.flip_dff_lane(4, L - 1); }},
      {"flip_dff_mask",
       [&] { ev.flip_dff_mask(6, std::vector<std::uint64_t>(S, 0x0123456789ABCDEFull)); }},
      {"clock", [&] { ev.clock(); }},
      {"reset", [&] { ev.reset(); }},
  };
  for (const auto& m : mutators) {
    SCOPED_TRACE(m.name);
    ev.settle();
    const auto before = all_words(nl, ev);
    m.apply();
    const auto image = settled_image(nl, ev);
    ASSERT_NE(image, before) << "vacuous: the mutator changed nothing";
    ev.settle();
    ASSERT_EQ(all_words(nl, ev), image);
  }

  // A clock straight after a flip: the edge samples D as it stood, and its
  // own sweep must still settle the network.
  for (std::size_t i = 0; i < ev.dff_count(); ++i) {
    SCOPED_TRACE("flip_dff_lane then clock, dff " + std::to_string(i));
    ev.settle();
    ev.flip_dff_lane(i, (37 * i) % L);
    ev.clock();
    ASSERT_EQ(all_words(nl, ev), settled_image(nl, ev));
  }

  // Pruned edges of the IP: each edge sweeps only its control state's
  // cone, so most nets are stale until a read needs them.  Reading every
  // net must still see exactly the fully settled network.
  const auto ip = core::synthesize_ip(core::IpMode::kBoth, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver drv(ip);
  auto& pruned = drv.evaluator();
  drv.reset();
  drv.load_key(random_bytes(16, 5), /*needs_setup=*/true);
  drv.set_din_lanes(random_bytes(16 * drv.lanes(), 6), drv.lanes());
  drv.set_broadcast("wr_data", true);
  for (int edge = 0; edge < 12; ++edge) {
    SCOPED_TRACE("pruned edge " + std::to_string(edge));
    const std::uint64_t ops = pruned.ops_executed();
    const std::uint64_t sweeps = pruned.sweeps();
    drv.clock();
    ASSERT_LT(pruned.ops_executed() - ops, (pruned.sweeps() - sweeps) * pruned.tape_size())
        << "vacuous: the edge swept the whole tape";
    ASSERT_EQ(all_words(ip, pruned), settled_image(ip, pruned));
    drv.set_broadcast("wr_data", false);
  }
}

// The sweep counter: a fresh evaluator's first settle sweeps, a settle of
// an unchanged network is free, clock() always sweeps once, and a full
// AES-128 pass costs one sweep per clock edge plus one for each edge that
// follows an input change (the load edge and the edge that drops wr_data).
// Those sweeps run live cones, so the pass executes a fraction of the ops
// and flip-flop samples full sweeps and clocks would.
TEST_F(NetlistBatch, SettleSweepsOnlyAChangedNetwork) {
  Netlist probe;
  const Bus a = aesip::testing::build_settle_probe(probe);
  BatchEvaluator ev(probe);
  ASSERT_EQ(ev.sweeps(), 0u);
  ev.settle();
  ASSERT_EQ(ev.sweeps(), 1u);
  ev.settle();
  ev.settle();
  EXPECT_EQ(ev.sweeps(), 1u);
  ev.clock();
  EXPECT_EQ(ev.sweeps(), 2u);
  ev.set(a[0], 0, true);
  ev.settle();
  ev.clock();
  EXPECT_EQ(ev.sweeps(), 4u);

  const auto nl = core::synthesize_ip(core::IpMode::kBoth, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver batch(nl);
  const auto key = random_bytes(16, 91);
  batch.reset();
  batch.load_key(key, /*needs_setup=*/true);
  const auto plain = random_bytes(16, 92);
  std::vector<std::uint8_t> got(16);
  const auto& ev_ip = batch.evaluator();
  const std::uint64_t before = ev_ip.sweeps();
  const std::uint64_t ops = ev_ip.ops_executed();
  const std::uint64_t dffs = ev_ip.dffs_clocked();
  const auto r = batch.process_batch(plain, got, 1, /*encrypt=*/true);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cycles, 50);
  EXPECT_EQ(ev_ip.sweeps() - before, 53u);
  // The live cones: at least 4x fewer ops than 53 full sweeps, and at
  // least 4x fewer flip-flop samples than 51 full clocks.
  EXPECT_LT(4 * (ev_ip.ops_executed() - ops), 53 * ev_ip.tape_size());
  EXPECT_LT(4 * (ev_ip.dffs_clocked() - dffs), 51 * ev_ip.dff_count());
  std::array<std::uint8_t, 16> want{};
  aes::Aes128(std::span<const std::uint8_t, 16>(key.data(), 16))
      .encrypt_block(std::span<const std::uint8_t, 16>(plain.data(), 16), want);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
}

namespace {

/// Copy `from`'s primary inputs and flip-flop state into `to`.
void mirror(const Netlist& nl, const BatchEvaluator& from, BatchEvaluator& to) {
  for (const auto& pin : nl.inputs())
    for (std::size_t g = 0; g < from.stride(); ++g)
      to.set_word(pin.net, from.word(pin.net, g), g);
  std::size_t index = 0;
  std::vector<std::uint64_t> mask(from.stride());
  for (const auto& cell : nl.cells()) {
    if (cell.kind != nlist::CellKind::kDff) continue;
    for (std::size_t g = 0; g < mask.size(); ++g)
      mask[g] = from.word(cell.out, g) ^ to.word(cell.out, g);
    to.flip_dff_mask(index++, mask);
  }
}

/// One clock edge through `drv`, checked against `twin`, an evaluator
/// given the same inputs and state and read in full (so fully settled).
/// Before the edge, the D and enable of every flip-flop enabled in some
/// lane, and every output, must already be current — reading them may not
/// cost a sweep; after it, every flip-flop holds what a full clock of
/// every flip-flop would have latched.
void checked_edge(const Netlist& nl, core::GateIpBatchDriver& drv, BatchEvaluator& twin) {
  BatchEvaluator& ev = drv.evaluator();
  const std::size_t S = ev.stride();
  ev.settle();
  mirror(nl, ev, twin);
  twin.settle();
  const std::uint64_t sweeps = ev.sweeps();
  std::vector<std::uint64_t> next;
  for (const auto& cell : nl.cells()) {
    if (cell.kind != nlist::CellKind::kDff) continue;
    bool enabled = false;
    for (std::size_t g = 0; g < S; ++g) {
      const std::uint64_t d = twin.word(cell.in[0], g);
      const std::uint64_t en = cell.in[1] == nlist::kNoNet ? ~0ULL : twin.word(cell.in[1], g);
      next.push_back((en & d) | (~en & ev.word(cell.out, g)));
      enabled = enabled || en != 0;
    }
    if (!enabled) continue;  // off in every lane: the edge may skip it
    for (std::size_t g = 0; g < S; ++g) {
      ASSERT_EQ(ev.word(cell.in[0], g), twin.word(cell.in[0], g)) << "D of dff net " << cell.out;
      if (cell.in[1] != nlist::kNoNet) {
        ASSERT_EQ(ev.word(cell.in[1], g), twin.word(cell.in[1], g)) << "enable of " << cell.out;
      }
    }
  }
  for (const auto& po : nl.outputs())
    for (std::size_t g = 0; g < S; ++g)
      ASSERT_EQ(ev.word(po.net, g), twin.word(po.net, g)) << "output " << po.name;
  ASSERT_EQ(ev.sweeps(), sweeps) << "a live net was stale before the edge";

  drv.clock();
  std::size_t k = 0;
  for (const auto& cell : nl.cells()) {
    if (cell.kind != nlist::CellKind::kDff) continue;
    for (std::size_t g = 0; g < S; ++g)
      ASSERT_EQ(ev.word(cell.out, g), next[k++]) << "dff net " << cell.out << " word " << g;
  }
}

}  // namespace

// Live-cone edges against full sweeps, edge by edge: the Table 1
// protocol for every key size — reset, a per-lane random key install and
// an encrypt and a decrypt pass of random blocks — with every edge checked
// by checked_edge().  The bytes must also match the software reference
// in every lane, and clean traffic never diverges.
TEST_F(NetlistBatch, PrunedEdgeMatchesFullSweep) {
  for (const int bits : {128, 192, 256}) {
    SCOPED_TRACE("AES-" + std::to_string(bits));
    const auto nl = aesip::engine::make_ip_netlist(core::IpMode::kBoth, bits);
    core::GateIpBatchDriver drv(*nl);
    BatchEvaluator twin(*nl);
    const std::size_t L = drv.lanes();
    const std::size_t kl = static_cast<std::size_t>(bits / 8);
    const auto edge = [&] { checked_edge(*nl, drv, twin); };

    drv.set_broadcast("setup", true);
    ASSERT_NO_FATAL_FAILURE(edge());
    drv.set_broadcast("setup", false);
    ASSERT_NO_FATAL_FAILURE(edge());

    const auto keys = random_bytes(kl * L, 700 + static_cast<std::uint32_t>(bits));
    std::vector<std::uint8_t> beat(16 * L);
    for (std::size_t off = 0; off < kl; off += 16) {
      std::fill(beat.begin(), beat.end(), std::uint8_t{0});
      for (std::size_t l = 0; l < L; ++l)
        std::copy_n(keys.begin() + static_cast<std::ptrdiff_t>(kl * l + off),
                    std::min<std::size_t>(16, kl - off),
                    beat.begin() + static_cast<std::ptrdiff_t>(16 * l));
      drv.set_din_lanes(beat, L);
      drv.set_broadcast("wr_key", true);
      ASSERT_NO_FATAL_FAILURE(edge());
      drv.set_broadcast("wr_key", false);
    }
    for (int i = 0; i < 4 * (bits / 32 + 6); ++i) ASSERT_NO_FATAL_FAILURE(edge());

    for (const bool enc : {true, false}) {
      SCOPED_TRACE(enc ? "encrypt" : "decrypt");
      const auto in = random_bytes(16 * L, 710 + static_cast<std::uint32_t>(bits) + enc);
      drv.set_broadcast("encdec", enc);
      drv.set_din_lanes(in, L);
      drv.set_broadcast("wr_data", true);
      ASSERT_NO_FATAL_FAILURE(edge());
      drv.set_broadcast("wr_data", false);
      int cycles = 0;
      while (!drv.data_ok()) {
        ASSERT_LT(++cycles, 200) << "data_ok never rose";
        ASSERT_NO_FATAL_FAILURE(edge());
      }
      EXPECT_EQ(cycles, 5 * (bits / 32 + 6));
      std::vector<std::uint8_t> out(16 * L);
      drv.read_dout_lanes(out, L);
      for (std::size_t l = 0; l < L; ++l) {
        const auto ref = aes::Rijndael::for_key(
            std::span<const std::uint8_t>(keys.data() + kl * l, kl));
        const std::span<const std::uint8_t> block(in.data() + 16 * l, 16);
        const auto want = enc ? aes::ecb_encrypt(ref, block) : aes::ecb_decrypt(ref, block);
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               out.begin() + static_cast<std::ptrdiff_t>(16 * l)))
            << "lane " << l;
      }
    }
    EXPECT_EQ(drv.evaluator().lane_divergences(), 0u);
  }
}

// A control flip-flop upset in one lane splits the lanes' control state:
// the sweeps from then on run the whole tape and count a divergence, and
// every other lane still computes exactly.  Clean traffic never counts one.
TEST_F(NetlistBatch, ControlFlipInOneLaneFallsBack) {
  const auto nl = core::synthesize_ip(core::IpMode::kBoth, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver drv(nl);
  auto& ev = drv.evaluator();
  const std::size_t L = drv.lanes();
  const auto& control = ev.control_dffs();
  ASSERT_FALSE(control.empty());
  const std::array<nlist::NetId, 1> not_a_pin{nl.outputs().front().net};
  EXPECT_THROW(BatchEvaluator(nl, {}, not_a_pin), std::invalid_argument)
      << "only a primary input can be a broadcast pin";
  const auto key = random_bytes(16, 81);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const auto in = random_bytes(16 * L, 82);
  std::vector<std::uint8_t> want(16 * L);
  for (std::size_t l = 0; l < L; ++l)
    ref.encrypt_block(std::span<const std::uint8_t, 16>(in.data() + 16 * l, 16),
                      std::span<std::uint8_t, 16>(want.data() + 16 * l, 16));
  std::vector<std::uint8_t> out(16 * L);

  drv.reset();
  drv.load_key(key, /*needs_setup=*/true);
  ASSERT_TRUE(drv.process_batch(in, out, L, /*encrypt=*/true).has_value());
  ASSERT_EQ(out, want);
  ASSERT_EQ(ev.lane_divergences(), 0u) << "clean traffic diverged";

  for (const std::size_t site : {control.front(), control[control.size() / 2], control.back()}) {
    SCOPED_TRACE("control dff " + std::to_string(site));
    drv.reset();
    drv.load_key(key, /*needs_setup=*/true);
    const std::uint64_t before = ev.lane_divergences();
    drv.set_broadcast("encdec", true);
    drv.set_din_lanes(in, L);
    drv.set_broadcast("wr_data", true);
    drv.clock();
    drv.set_broadcast("wr_data", false);
    for (int i = 0; i < 7; ++i) drv.clock();  // into the second round
    ev.flip_dff_lane(site, L - 1);
    drv.clock();
    EXPECT_GT(ev.lane_divergences(), before) << "the split edge did not fall back";
    int cycles = 8;
    while (!drv.data_ok() && cycles < 200) {
      drv.clock();
      ++cycles;
    }
    ASSERT_TRUE(drv.data_ok()) << "lane 0 hung";
    EXPECT_EQ(cycles, 50);
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    drv.read_dout_lanes(out, L);
    for (std::size_t l = 0; l + 1 < L; ++l)
      ASSERT_TRUE(std::equal(want.begin() + static_cast<std::ptrdiff_t>(16 * l),
                             want.begin() + static_cast<std::ptrdiff_t>(16 * l + 16),
                             out.begin() + static_cast<std::ptrdiff_t>(16 * l)))
          << "lane " << l;
  }
}

// The control-state cache is bounded.  Sixteen control flip-flops count
// through all 65 536 states, and each state enables a different set of
// data flip-flops, so an unbounded cache would take every state's own op
// and flip-flop sets.  Past kMaxCacheBytes a new state sweeps the whole
// tape uncached, and every lane stays exact against the scalar oracle.
TEST_F(NetlistBatchCache, CounterStatesStayWithinTheCap) {
  Netlist nl;
  Bus count;
  for (int i = 0; i < 16; ++i) count.push_back(nl.new_net());
  const Bus next = nl.increment(count);
  for (int i = 0; i < 16; ++i) nl.add_dff_with_out(count[i], next[i]);
  const Bus din = nl.add_input_bus("din", 16);
  Bus data;
  for (int i = 0; i < 16; ++i) {
    data.push_back(nl.new_net());
    nl.add_dff_with_out(data[i], nl.gate_xor(din[i], data[i]), count[i]);
  }
  nl.add_output_bus(data, "data");

  BatchEvaluator ev(nl);
  ASSERT_EQ(ev.control_dffs().size(), 16u);
  const std::size_t L = ev.lanes();
  Evaluator first(nl), last(nl);  // lanes 0 and L - 1
  ev.reset();
  first.reset();
  last.reset();
  std::mt19937_64 rng(16);
  for (int edge = 0; edge < 70000; ++edge) {
    for (const nlist::NetId n : din)
      for (std::size_t g = 0; g < ev.stride(); ++g) ev.set_word(n, rng(), g);
    first.set_bus(din, ev.get_bus(din, 0));
    last.set_bus(din, ev.get_bus(din, L - 1));
    for (auto* e : {&first, &last}) {
      e->settle();
      e->clock();
    }
    ev.settle();
    ev.clock();
    ASSERT_EQ(ev.get_bus(data, 0), first.get_bus(data)) << "edge " << edge;
    ASSERT_EQ(ev.get_bus(data, L - 1), last.get_bus(data)) << "edge " << edge;
  }
  EXPECT_GT(ev.uncached_sweeps(), 0u) << "the cache never filled";
  EXPECT_LE(ev.cache_bytes(), BatchEvaluator::kMaxCacheBytes);
  EXPECT_EQ(ev.lane_divergences(), 0u);
}

// An AESIP_BATCH_BACKEND value that names no backend must throw, like one
// the host cannot run: a silent fallback to auto-detection would let a
// misspelled batch_backend_* row test the widest backend under another
// backend's name.  The variable is restored for the rest of the run.
TEST(NetlistBatchBackend, UnknownEnvBackendNameThrows) {
  const char* env = std::getenv("AESIP_BATCH_BACKEND");
  const std::optional<std::string> saved = env ? std::optional<std::string>(env) : std::nullopt;
  for (const char* name : {"jit", "avx-512"}) {
    ::setenv("AESIP_BATCH_BACKEND", name, 1);
    EXPECT_THROW(nlist::resolve_backend({}), std::runtime_error) << name;
  }
  if (saved)
    ::setenv("AESIP_BATCH_BACKEND", saved->c_str(), 1);
  else
    ::unsetenv("AESIP_BATCH_BACKEND");
}

// The avx512 backend's ROM gather is a vpermi2b lookup, so the backend
// needs VBMI as well as F and BW; a host without it runs avx2.  A wrong
// predicate would not fail any parity test — the dispatch would quietly
// resolve to avx2 — so the rule is pinned here against CPUID directly.
TEST(NetlistBatchBackend, Avx512RequiresVbmi) {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  const bool has = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                   __builtin_cpu_supports("avx512vbmi");
  EXPECT_EQ(nlist::backend_supported(nlist::BatchBackend::kAvx512), has);
  EXPECT_EQ(nlist::detect_backend() == nlist::BatchBackend::kAvx512, has)
      << "detected " << nlist::backend_name(nlist::detect_backend());
#else
  GTEST_SKIP() << "the avx512 backend exists only on x86-64";
#endif
}

// The full IP through the Table 1 protocol at every partial batch width
// 1..63 (and 64): ciphertexts must match the software reference bit for
// bit, per-lane latency must match the scalar gate driver, and the cycle
// counter must advance by exactly active-lanes x scalar-cycles-per-block.
TEST_F(NetlistBatch, FullIpPartialBatchesMatchReference) {
  const auto nl = core::synthesize_ip(core::IpMode::kBoth, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver batch(nl);
  core::GateIpDriver scalar(nl);

  const auto key = random_bytes(16, 7);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  batch.reset();
  batch.load_key(key, /*needs_setup=*/true);
  scalar.reset();
  scalar.load_key(key, /*needs_setup=*/true);

  // Scalar oracle latency from one block.
  const auto plain0 = random_bytes(16, 8);
  const auto r0 = scalar.process(plain0, /*encrypt=*/true);
  ASSERT_TRUE(r0.has_value());
  const int scalar_latency = r0->cycles;

  // Every width through 64 (the historical sweep), then a handful of wide
  // widths up to the backend's full lane count.
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= std::min<std::size_t>(64, batch.lanes()); ++n)
    widths.push_back(n);
  if (batch.lanes() > 64)
    for (const std::size_t n :
         {std::size_t{65}, batch.lanes() / 2, batch.lanes() - 1, batch.lanes()})
      widths.push_back(n);
  std::uint32_t seed = 100;
  for (const std::size_t n : widths) {
    const auto plain = random_bytes(16 * n, seed++);
    std::vector<std::uint8_t> got(16 * n);
    const std::uint64_t before = batch.cycles();
    const auto r = batch.process_batch(plain, got, n, /*encrypt=*/true);
    ASSERT_TRUE(r.has_value()) << "n=" << n;
    ASSERT_EQ(r->cycles, scalar_latency) << "n=" << n;
    // Load edge + latency clocks, each weighted by the active lane count.
    ASSERT_EQ(batch.cycles() - before,
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(scalar_latency + 1))
        << "n=" << n;
    for (std::size_t blk = 0; blk < n; ++blk) {
      std::array<std::uint8_t, 16> want{};
      ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16 * blk, 16), want);
      ASSERT_EQ(std::vector<std::uint8_t>(got.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                                          got.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16)),
                std::vector<std::uint8_t>(want.begin(), want.end()))
          << "n=" << n << " block " << blk;
    }
  }

  // Decrypt parity against the scalar gate driver on a handful of widths.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{17}, batch.lanes()}) {
    const auto cipher = random_bytes(16 * n, seed++);
    std::vector<std::uint8_t> got(16 * n);
    const auto r = batch.process_batch(cipher, got, n, /*encrypt=*/false);
    ASSERT_TRUE(r.has_value()) << "n=" << n;
    for (std::size_t blk = 0; blk < n; ++blk) {
      const auto want = scalar.process(
          std::span<const std::uint8_t>(cipher.data() + 16 * blk, 16), /*encrypt=*/false);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(r->cycles, want->cycles) << "n=" << n << " block " << blk;
      ASSERT_TRUE(std::equal(want->data.begin(), want->data.end(), got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
          << "n=" << n << " block " << blk;
    }
  }
}

// Lane packing against the per-bit loop it replaced: set_din_lanes must
// produce the same din words (lanes >= n replicating lane 0), and
// read_dout_lanes must unpack exactly 16*n bytes — guard bytes after them
// stay untouched — and round-trip what set_din_lanes packed.
TEST_F(NetlistBatch, LanePackingMatchesBitLoop) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver batch(nl);
  auto& ev = batch.evaluator();
  const Bus din = port_bus(nl.inputs(), "din");
  const Bus dout = port_bus(nl.outputs(), "dout");
  const std::size_t stride = ev.stride();
  constexpr std::uint8_t kGuard = 0xA5;

  std::uint32_t seed = 300;
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}, batch.lanes()}) {
    if (n > batch.lanes()) continue;
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto in = random_bytes(16 * n, seed++);
    batch.set_din_lanes(in, n);
    for (std::size_t i = 0; i < 128; ++i)
      for (std::size_t g = 0; g < stride; ++g) {
        std::uint64_t want = 0;
        for (std::size_t l = 0; l < 64; ++l) {
          const std::size_t lane = 64 * g + l;
          const std::size_t src = lane < n ? lane : 0;
          want |= std::uint64_t{(in[16 * src + i / 8] >> (i % 8)) & 1U} << l;
        }
        ASSERT_EQ(ev.word(din[i], g), want) << "din bit " << i << " word " << g;
      }

    // Round trip: the packed din words, copied onto dout, unpack to `in`.
    for (std::size_t i = 0; i < 128; ++i)
      for (std::size_t g = 0; g < stride; ++g) ev.set_word(dout[i], ev.word(din[i], g), g);
    std::vector<std::uint8_t> out(16 * n + 32, kGuard);
    batch.read_dout_lanes(out, n);
    ASSERT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
    ASSERT_TRUE(std::all_of(out.begin() + static_cast<std::ptrdiff_t>(16 * n), out.end(),
                            [](std::uint8_t b) { return b == kGuard; }));

    // Arbitrary dout words against the bit loop.
    std::mt19937_64 rng(seed++);
    for (std::size_t i = 0; i < 128; ++i)
      for (std::size_t g = 0; g < stride; ++g) ev.set_word(dout[i], rng(), g);
    std::fill(out.begin(), out.end(), kGuard);
    batch.read_dout_lanes(out, n);
    std::vector<std::uint8_t> want(16 * n + 32, kGuard);
    std::fill_n(want.begin(), 16 * n, std::uint8_t{0});
    for (std::size_t i = 0; i < 128; ++i)
      for (std::size_t lane = 0; lane < n; ++lane)
        if (ev.get(dout[i], lane))
          want[16 * lane + i / 8] |= static_cast<std::uint8_t>(1U << (i % 8));
    ASSERT_EQ(out, want);
  }
}

// Per-lane key install: one multi-beat wr_key write carries a different
// key into each lane.  Every lane must then compute under its own key —
// bytes equal to the software reference and to the scalar gate driver
// loaded with that key, latency equal to the scalar driver's — and the
// install must cost `charged` scalar key loads exactly.  Covers every key
// size, both directions, lane counts around the 64-lane word boundary, and
// a reinstall that rewrites only some lanes.
TEST_F(NetlistBatch, PerLaneKeyInstallMatchesScalar) {
  for (const int bits : {128, 192, 256}) {
    SCOPED_TRACE("AES-" + std::to_string(bits));
    const auto nl = aesip::engine::make_ip_netlist(core::IpMode::kBoth, bits);
    core::GateIpBatchDriver batch(*nl);
    core::GateIpDriver scalar(*nl);
    batch.reset();
    scalar.reset();
    const std::size_t lanes = batch.lanes();
    const std::size_t kl = static_cast<std::size_t>(bits / 8);

    // A pool of keys; lane L of a table takes pool[(L + shift) % pool].
    std::vector<std::vector<std::uint8_t>> pool;
    std::vector<aes::Rijndael> refs;
    for (std::uint32_t k = 0; k < 5; ++k) {
      pool.push_back(random_bytes(kl, 900 + k + static_cast<std::uint32_t>(bits)));
      refs.push_back(aes::Rijndael::for_key(pool.back()));
    }
    std::vector<std::size_t> lane_key(lanes);
    const auto install = [&](std::size_t n, std::size_t shift, std::uint64_t charged) {
      std::vector<std::uint8_t> table(kl * n);
      for (std::size_t l = 0; l < n; ++l) {
        lane_key[l] = (l + shift) % pool.size();
        std::copy(pool[lane_key[l]].begin(), pool[lane_key[l]].end(),
                  table.begin() + static_cast<std::ptrdiff_t>(kl * l));
      }
      for (std::size_t l = n; l < lanes; ++l) lane_key[l] = lane_key[0];
      const std::uint64_t s0 = scalar.cycles();
      scalar.load_key(pool[lane_key[0]], /*needs_setup=*/true);
      const std::uint64_t one_load = scalar.cycles() - s0;
      const std::uint64_t c0 = batch.cycles();
      batch.load_key_lanes(table, kl, n, 4 * (bits / 32 + 6), charged);
      EXPECT_EQ(batch.cycles() - c0, charged * one_load) << "n=" << n;
    };
    // Run every lane and check each against its own key.
    std::uint32_t seed = 1000;
    const auto check_all_lanes = [&](const char* what) {
      for (const bool enc : {true, false}) {
        const auto data = random_bytes(16 * lanes, seed++);
        std::vector<std::uint8_t> got(16 * lanes);
        const std::uint64_t c0 = batch.cycles();
        const auto r = batch.process_batch(data, got, lanes, enc);
        ASSERT_TRUE(r.has_value()) << what;
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::span<const std::uint8_t> block(data.data() + 16 * l, 16);
          const auto want = enc ? aes::ecb_encrypt(refs[lane_key[l]], block)
                                : aes::ecb_decrypt(refs[lane_key[l]], block);
          ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin() + static_cast<std::ptrdiff_t>(16 * l)))
              << what << " lane " << l << (enc ? " enc" : " dec");
        }
        // The scalar driver under lane 0's and the last lane's keys.
        for (const std::size_t l : {std::size_t{0}, lanes - 1}) {
          scalar.load_key(pool[lane_key[l]], /*needs_setup=*/true);
          const auto want = scalar.process(
              std::span<const std::uint8_t>(data.data() + 16 * l, 16), enc);
          ASSERT_TRUE(want.has_value());
          EXPECT_EQ(r->cycles, want->cycles) << what;
          EXPECT_TRUE(std::equal(want->data.begin(), want->data.end(),
                                 got.begin() + static_cast<std::ptrdiff_t>(16 * l)))
              << what << " lane " << l << " vs scalar";
        }
        EXPECT_EQ(batch.cycles() - c0, lanes * static_cast<std::uint64_t>(r->cycles + 1));
      }
    };

    std::vector<std::size_t> counts;
    for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, lanes})
      if (n <= lanes && std::ranges::find(counts, n) == counts.end()) counts.push_back(n);
    std::uint64_t charged = 1;
    for (const std::size_t n : counts) {
      install(n, n, charged);
      check_all_lanes(("n=" + std::to_string(n)).c_str());
      charged = (charged + 1) % 4;  // 0 too: an install that only spreads held keys
    }

    // Reinstall over a full table where only the odd lanes change key: the
    // even lanes are rewritten with the key they already hold and keep it.
    std::vector<std::uint8_t> table(kl * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (l % 2) lane_key[l] = (lane_key[l] + 1) % pool.size();
      std::copy(pool[lane_key[l]].begin(), pool[lane_key[l]].end(),
                table.begin() + static_cast<std::ptrdiff_t>(kl * l));
    }
    batch.load_key_lanes(table, kl, lanes, 4 * (bits / 32 + 6), 1);
    check_all_lanes("partial reinstall");
  }
}

// NetlistEngine::process_keyed: blocks of several keys share passes.
// Bytes match the software reference; each span's cycles add up to the
// engine's cycles() delta; a key no lane held costs exactly one key load
// (write beats + declared setup) on its first span, and a key still
// resident costs nothing the next time.
TEST_F(NetlistBatch, KeyedBatchPacksKeysPerLane) {
  for (const int bits : {128, 256}) {
    SCOPED_TRACE("AES-" + std::to_string(bits));
    aesip::arch::VariantSpec spec;
    spec.key_bits = bits;
    aesip::engine::NetlistEngine e(aesip::engine::make_ip_netlist(core::IpMode::kBoth, bits),
                                   spec, core::IpMode::kBoth);
    const std::size_t kl = static_cast<std::size_t>(bits / 8);
    const std::uint64_t setup = 4 * static_cast<std::uint64_t>(bits / 32 + 6);
    const std::uint64_t one_load = (kl + 15) / 16 + setup;
    const std::uint64_t per_block = 5 * static_cast<std::uint64_t>(bits / 32 + 6) + 1;  // + load edge
    std::vector<std::vector<std::uint8_t>> keys;
    for (std::uint32_t k = 0; k < 4; ++k) keys.push_back(random_bytes(kl, 40 + k));
    // Spans: key 0, 1, 0, 2, 3 — more blocks than one pass holds.
    const std::size_t lanes = e.batch_lanes();
    const std::vector<std::pair<std::size_t, std::size_t>> layout = {
        {0, 3}, {1, lanes / 2}, {0, 5}, {2, lanes}, {3, 1}};
    for (int round = 0; round < 2; ++round) {
      std::vector<aesip::engine::CipherEngine::KeySpan> spans;
      std::size_t n = 0;
      for (const auto& [k, b] : layout) {
        spans.push_back({keys[k], b});
        n += b;
      }
      const auto in = random_bytes(16 * n, 60 + static_cast<std::uint32_t>(round));
      std::vector<std::uint8_t> out(in.size());
      const std::uint64_t c0 = e.cycles();
      const auto k0 = e.counters();
      e.process_keyed(in, out, spans, /*encrypt=*/round == 0);
      std::uint64_t sum = 0, setup_sum = 0;
      for (const auto& s : spans) {
        sum += s.cycles;
        setup_sum += s.setup_cycles;
      }
      EXPECT_EQ(sum, e.cycles() - c0);
      EXPECT_EQ(setup_sum, e.counters().key_setup_cycles - k0.key_setup_cycles);
      EXPECT_EQ(e.counters().blocks() - k0.blocks(), n);
      std::size_t at = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto ref = aes::Rijndael::for_key(keys[layout[i].first]);
        const std::span<const std::uint8_t> blk(in.data() + 16 * at, 16 * spans[i].blocks);
        const auto want = round == 0 ? aes::ecb_encrypt(ref, blk) : aes::ecb_decrypt(ref, blk);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + static_cast<std::ptrdiff_t>(16 * at)))
            << "span " << i << " round " << round;
        // On the fresh engine each key loads once, on its first span;
        // the second span of key 0 costs blocks only.
        if (round == 0) {
          const bool first_use = i != 2;
          EXPECT_EQ(spans[i].setup_cycles, first_use ? setup : 0u) << "span " << i;
        }
        EXPECT_EQ(spans[i].cycles,
                  spans[i].blocks * per_block + (spans[i].setup_cycles ? one_load : 0))
            << "span " << i;
        at += spans[i].blocks;
      }
    }
  }
}

// The farm's batched dispatch end to end: 4 netlist workers draining
// multi-job batches, verified against the software reference across
// ECB/CBC/CTR — including a CTR payload large enough to fan out.
TEST_F(NetlistBatch, FarmBatchDispatchMatchesReference) {
  farm::FarmConfig cfg;
  cfg.workers = 4;
  cfg.engine = aesip::engine::EngineKind::kNetlist;
  farm::Farm f(cfg);

  std::mt19937 rng(77);
  std::vector<std::pair<farm::Request, std::vector<std::uint8_t>>> cases;
  for (int i = 0; i < 9; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 3);
    farm::Key128 kb;
    for (auto& b : kb) b = static_cast<std::uint8_t>(rng() + i % 3);
    req.key = kb;
    for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
    const std::size_t blocks = (i == 8) ? 96 : 2 + i;  // the last one fans out
    req.mode = (i % 3 == 0) ? farm::Mode::kEcb : (i % 3 == 1) ? farm::Mode::kCbc
                                                              : farm::Mode::kCtr;
    req.encrypt = (i % 2) == 0;
    if (i == 8) req.mode = farm::Mode::kCtr;
    req.payload = random_bytes(blocks * 16, 500 + static_cast<std::uint32_t>(i));

    const aes::Rijndael ref = aes::Rijndael::for_key(req.key.view());
    const std::span<const std::uint8_t, 16> iv(req.iv.data(), 16);
    std::vector<std::uint8_t> want;
    switch (req.mode) {
      case farm::Mode::kEcb:
        want = req.encrypt ? aes::ecb_encrypt(ref, req.payload)
                           : aes::ecb_decrypt(ref, req.payload);
        break;
      case farm::Mode::kCbc:
        want = req.encrypt ? aes::cbc_encrypt(ref, iv, req.payload)
                           : aes::cbc_decrypt(ref, iv, req.payload);
        break;
      case farm::Mode::kCtr:
        want = aes::ctr_crypt(ref, iv, req.payload);
        break;
    }
    cases.emplace_back(std::move(req), std::move(want));
  }

  std::vector<std::future<farm::Result>> futures;
  for (auto& [req, want] : cases) futures.push_back(f.submit(req));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto result = futures[i].get();
    EXPECT_EQ(result.data, cases[i].second) << "request " << i;
  }
}

// SEU-injection parity: flipping the same DFF in the scalar evaluator and
// in lane 0 of the BatchEvaluator (lane mask 1) must corrupt — or mask, or
// hang — identically, while the batch's untouched lane 1 keeps producing
// clean ciphertext. This is what lets the fleet's chaos machinery
// (fleet::ChaosInjector, seu/live.hpp) classify sites on the scalar
// evaluator and trust the classification for batch-mode engines.
TEST_F(NetlistBatch, SeuFlipParityScalarVsLaneZero) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateIpDriver scalar(nl);
  core::GateIpBatchDriver batch(nl);

  const auto key = random_bytes(16, 31);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = scalar.has_input("encdec");
  scalar.reset();
  scalar.load_key(key, setup);
  batch.reset();
  batch.load_key(key, setup);

  const std::size_t n_dffs = scalar.evaluator().dff_count();
  ASSERT_EQ(batch.evaluator().dff_count(), n_dffs);
  ASSERT_GT(n_dffs, 0u);

  std::mt19937 rng(77);
  const auto plain = random_bytes(32, 33);  // lane 0 and lane 1 payloads
  std::array<std::uint8_t, 16> clean1{};
  ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16, 16), clean1);

  int corrupting = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t site = rng() % n_dffs;

    // The standby upset, between blocks: scalar and batch lane 0 only.
    scalar.evaluator().flip_dff(site);
    scalar.evaluator().settle();
    batch.evaluator().flip_dff_lane(site, 0);
    batch.evaluator().settle();

    const auto sres =
        scalar.process(std::span<const std::uint8_t>(plain.data(), 16), /*encrypt=*/true);
    std::vector<std::uint8_t> got(32);
    const auto bres = batch.process_batch(plain, got, /*n=*/2, /*encrypt=*/true);

    ASSERT_EQ(sres.has_value(), bres.has_value()) << "site " << site << ": one hung";
    if (!sres) {
      // Both hung identically; resynchronize and keep sampling.
      scalar.reset();
      scalar.load_key(key, setup);
      batch.reset();
      batch.load_key(key, setup);
      continue;
    }
    // Lane 0 tracks the scalar evaluator bit-for-bit, corrupted or not...
    EXPECT_TRUE(std::equal(sres->data.begin(), sres->data.end(), got.begin()))
        << "site " << site << ": lane 0 diverged from the scalar evaluator";
    // ...and the flip never leaks into the untouched lane 1.
    EXPECT_TRUE(std::equal(clean1.begin(), clean1.end(), got.begin() + 16))
        << "site " << site << ": lane mask leaked into lane 1";

    std::array<std::uint8_t, 16> clean0{};
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data(), 16), clean0);
    if (!std::equal(clean0.begin(), clean0.end(), sres->data.begin())) ++corrupting;
  }
  // The sweep must have exercised at least one genuinely corrupting flip,
  // or the parity claim was tested only on masked sites.
  EXPECT_GT(corrupting, 0);
}

// Per-lane SEU isolation at wide widths: a flip targeted at one lane —
// including lanes above 63, in the upper words of a wide backend — may
// corrupt only that lane. Every other lane of a full-width batch must keep
// producing bit-clean ciphertext, or the lane-mask plumbing leaks across
// the 64-lane word boundary.
TEST_F(NetlistBatch, SeuFlipLaneIsolationAtWideWidths) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver batch(nl);
  const std::size_t lanes = batch.lanes();

  const auto key = random_bytes(16, 51);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = batch.has_input("encdec");

  const auto plain = random_bytes(16 * lanes, 52);
  std::vector<std::uint8_t> clean(16 * lanes);
  for (std::size_t blk = 0; blk < lanes; ++blk)
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16 * blk, 16),
                      std::span<std::uint8_t, 16>(clean.data() + 16 * blk, 16));

  const std::size_t n_dffs = batch.evaluator().dff_count();
  ASSERT_GT(n_dffs, 0u);
  std::mt19937 rng(53);

  // Lane picks that straddle every interesting word boundary.
  std::vector<std::size_t> targets{0, lanes - 1};
  if (lanes > 64) {
    targets.push_back(63);
    targets.push_back(64);  // first lane of word 1
    targets.push_back(lanes / 2);
  }
  int corrupting = 0;
  for (const std::size_t lane : targets) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t site = rng() % n_dffs;
      batch.reset();
      batch.load_key(key, setup);
      batch.evaluator().flip_dff_lane(site, lane);
      batch.evaluator().settle();

      std::vector<std::uint8_t> got(16 * lanes);
      const auto r = batch.process_batch(plain, got, lanes, /*encrypt=*/true);
      if (!r.has_value()) continue;  // flip hung the (shared) FSM; resync next trial
      for (std::size_t blk = 0; blk < lanes; ++blk) {
        if (blk == lane) {
          if (!std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                          clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                          got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            ++corrupting;
          continue;  // the targeted lane is allowed to corrupt
        }
        ASSERT_TRUE(std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                               clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                               got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            << "site " << site << " flipped in lane " << lane << " leaked into lane " << blk;
      }
    }
  }
  // The sweep must have seen at least one real corruption, or isolation was
  // only ever tested on masked flips.
  EXPECT_GT(corrupting, 0);
}

// flip_dff_mask with a multi-word mask: exactly the selected lanes may
// diverge; lanes whose mask bits are clear stay bit-clean — in every word.
TEST_F(NetlistBatch, SeuFlipMaskSelectsExactLanes) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateIpBatchDriver batch(nl);
  const std::size_t lanes = batch.lanes();
  const std::size_t words = lanes / 64;

  const auto key = random_bytes(16, 61);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = batch.has_input("encdec");

  const auto plain = random_bytes(16 * lanes, 62);
  std::vector<std::uint8_t> clean(16 * lanes);
  for (std::size_t blk = 0; blk < lanes; ++blk)
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16 * blk, 16),
                      std::span<std::uint8_t, 16>(clean.data() + 16 * blk, 16));

  // Select lane 5 of the first word and lane 7 of the last word (the same
  // lane twice when the backend is 64 wide).
  std::vector<std::uint64_t> mask(words, 0);
  mask.front() |= std::uint64_t{1} << 5;
  mask.back() |= std::uint64_t{1} << 7;
  std::vector<std::size_t> selected{5, (words - 1) * 64 + 7};

  const std::size_t n_dffs = batch.evaluator().dff_count();
  std::mt19937 rng(63);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t site = rng() % n_dffs;
    batch.reset();
    batch.load_key(key, setup);
    batch.evaluator().flip_dff_mask(site, mask);
    batch.evaluator().settle();

    std::vector<std::uint8_t> got(16 * lanes);
    const auto r = batch.process_batch(plain, got, lanes, /*encrypt=*/true);
    if (!r.has_value()) continue;
    for (std::size_t blk = 0; blk < lanes; ++blk) {
      if (std::find(selected.begin(), selected.end(), blk) != selected.end()) continue;
      ASSERT_TRUE(std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                             clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                             got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
          << "site " << site << " mask leaked into unselected lane " << blk;
    }
  }
}

// The fleet's chaos machinery against THIS backend: ChaosInjector flips
// every lane of a live wide engine (Farm::inject_fault -> flip_dff), the
// farm's spot-check catches the corruption, and every response stays
// bit-exact. Runs once per backend through the ctest matrix.
TEST_F(NetlistBatch, ChaosInjectionHealsOnWideEngines) {
  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.engine = aesip::engine::EngineKind::kNetlist;
  cfg.spot_check_fraction = 1.0;
  farm::Farm f(cfg);
  fleet::ChaosInjector chaos(f, /*seed=*/0x51de);

  std::mt19937 rng(71);
  farm::Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());

  auto fresh_request = [&](std::size_t blocks) {
    farm::Request req;
    req.session_id = 1;
    req.key = key;
    req.mode = farm::Mode::kEcb;
    req.encrypt = true;
    req.payload = random_bytes(blocks * 16, rng());
    return req;
  };
  const aes::Rijndael ref =
      aes::Rijndael::for_key(std::span<const std::uint8_t>(key.data(), key.size()));

  ASSERT_EQ(f.process(fresh_request(1)).worker, 0);  // warm the key

  bool detected = false;
  for (int attempt = 0; attempt < 12 && !detected; ++attempt) {
    const auto ev = chaos.inject(0);
    ASSERT_TRUE(ev.injected) << "netlist engine refused the flip";
    for (int i = 0; i < 2; ++i) {
      auto req = fresh_request(3);
      const auto expect = aes::ecb_encrypt(ref, req.payload);
      const auto res = f.process(std::move(req));
      ASSERT_EQ(res.data, expect) << "corrupted bytes reached the client";
      detected |= res.replayed;
    }
  }
  EXPECT_TRUE(detected) << "no injection was ever caught by the spot-check";
}

// The batch_backend_* rows force a backend through AESIP_BATCH_BACKEND and
// pass --skip-exit.  When the host cannot run that backend, every fixture
// test skips, and a clean run then exits kSkipExit, the rows'
// SKIP_RETURN_CODE.  A failing test exits 1 before that, so a row never
// reports Skipped over a failure.  Without the flag a clean run exits 0.
// (This main() wins over gtest_main's: the static archive member that
// defines the other one is never pulled in.)
int main(int argc, char** argv) {
  constexpr int kSkipExit = 77;
  ::testing::InitGoogleTest(&argc, argv);
  const bool skip_exit = argc > 1 && std::string_view(argv[1]) == "--skip-exit";
  if (RUN_ALL_TESTS() != 0) return 1;
  const auto forced = nlist::env_forced_backend();
  return skip_exit && forced && !nlist::backend_supported(*forced) ? kSkipExit : 0;
}
