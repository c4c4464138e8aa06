// Netlist construction, the functional evaluator, and the bus builders
// (xor trees, muxes, comparators, counters) the IP synthesis rests on.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "settle_probe.hpp"

namespace nlist = aesip::netlist;
using nlist::Bus;
using nlist::Netlist;
using nlist::NetId;

TEST(Netlist, ConstantsAndGates) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.gate_xor(a, b);
  const NetId n = nl.gate_not(a);
  const NetId o = nl.gate_or(a, b);
  const NetId m = nl.gate_mux(a, b, nl.const1());
  nlist::Evaluator ev(nl);
  for (int av = 0; av < 2; ++av)
    for (int bv = 0; bv < 2; ++bv) {
      ev.set(a, av);
      ev.set(b, bv);
      ev.settle();
      EXPECT_EQ(ev.get(x), av != bv);
      EXPECT_EQ(ev.get(n), !av);
      EXPECT_EQ(ev.get(o), av || bv);
      EXPECT_EQ(ev.get(m), av ? true : bv);
      EXPECT_FALSE(ev.get(nl.const0()));
      EXPECT_TRUE(ev.get(nl.const1()));
    }
}

TEST(Netlist, LutCellEvaluates) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 3);
  // Majority function of 3 inputs: indices 3,5,6,7.
  const NetId maj = nl.add_lut(0b11101000, in);
  nlist::Evaluator ev(nl);
  for (int v = 0; v < 8; ++v) {
    ev.set_bus(in, static_cast<std::uint64_t>(v));
    ev.settle();
    const int ones = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(ev.get(maj), ones >= 2) << v;
  }
}

TEST(Netlist, LutRejectsWideInput) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 5);
  EXPECT_THROW(nl.add_lut(0, in), std::invalid_argument);
}

TEST(Netlist, XorTreeMatchesParity) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 9);
  const NetId x = nl.xor_tree(in);
  nlist::Evaluator ev(nl);
  std::mt19937 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t v = rng() & 0x1ff;
    ev.set_bus(in, v);
    ev.settle();
    EXPECT_EQ(ev.get(x), __builtin_parityll(v) != 0);
  }
}

TEST(Netlist, XorTreeOfNothingIsZero) {
  Netlist nl;
  const NetId x = nl.xor_tree({});
  EXPECT_EQ(x, nl.const0());
}

TEST(Netlist, MuxNSelectsBinaryIndex) {
  Netlist nl;
  const Bus sel = nl.add_input_bus("sel", 2);
  std::vector<Bus> choices;
  for (int i = 0; i < 4; ++i) choices.push_back(nl.add_input_bus("c" + std::to_string(i), 8));
  const Bus out = nl.mux_n(sel, choices);
  nlist::Evaluator ev(nl);
  for (int i = 0; i < 4; ++i)
    ev.set_bus(choices[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(0x10 + i));
  for (int s = 0; s < 4; ++s) {
    ev.set_bus(sel, static_cast<std::uint64_t>(s));
    ev.settle();
    EXPECT_EQ(ev.get_bus(out), static_cast<std::uint64_t>(0x10 + s)) << s;
  }
}

TEST(Netlist, MuxNTenWayConstant) {
  // The rcon mux shape: 11 constant choices on a 4-bit select.
  Netlist nl;
  const Bus sel = nl.add_input_bus("sel", 4);
  std::vector<Bus> choices;
  for (int i = 0; i < 11; ++i)
    choices.push_back(nl.constant_bus(static_cast<std::uint64_t>(i * 3 + 1), 8));
  const Bus out = nl.mux_n(sel, choices);
  nlist::Evaluator ev(nl);
  for (int s = 0; s < 11; ++s) {
    ev.set_bus(sel, static_cast<std::uint64_t>(s));
    ev.settle();
    EXPECT_EQ(ev.get_bus(out), static_cast<std::uint64_t>(s * 3 + 1)) << s;
  }
}

TEST(Netlist, EqConstComparator) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 4);
  const NetId eq10 = nl.eq_const(in, 10);
  const NetId eq0 = nl.eq_const(in, 0);
  nlist::Evaluator ev(nl);
  for (int v = 0; v < 16; ++v) {
    ev.set_bus(in, static_cast<std::uint64_t>(v));
    ev.settle();
    EXPECT_EQ(ev.get(eq10), v == 10) << v;
    EXPECT_EQ(ev.get(eq0), v == 0) << v;
  }
}

TEST(Netlist, IncrementWraps) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 4);
  const Bus out = nl.increment(in);
  nlist::Evaluator ev(nl);
  for (int v = 0; v < 16; ++v) {
    ev.set_bus(in, static_cast<std::uint64_t>(v));
    ev.settle();
    EXPECT_EQ(ev.get_bus(out), static_cast<std::uint64_t>((v + 1) & 0xf)) << v;
  }
}

TEST(Netlist, XorConstUsesNotGatesOnlyWhereSet) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 8);
  const auto gates_before = nl.stats().gates;
  const Bus out = nl.xor_const(in, 0x0f);
  EXPECT_EQ(nl.stats().gates - gates_before, 4u) << "only 4 set bits need inverters";
  nlist::Evaluator ev(nl);
  ev.set_bus(in, 0x55);
  ev.settle();
  EXPECT_EQ(ev.get_bus(out), 0x55u ^ 0x0fu);
}

TEST(Netlist, RomMacroReadsTable) {
  Netlist nl;
  const Bus addr = nl.add_input_bus("addr", 8);
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i)
    table[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 7 + 3);
  const Bus out = nl.add_rom(table, addr, "rom");
  nlist::Evaluator ev(nl);
  for (int a = 0; a < 256; a += 13) {
    ev.set_bus(addr, static_cast<std::uint64_t>(a));
    ev.settle();
    EXPECT_EQ(ev.get_bus(out), table[static_cast<std::size_t>(a)]) << a;
  }
  EXPECT_EQ(nl.stats().roms, 1u);
  EXPECT_EQ(nl.stats().rom_bits, 2048u);
}

TEST(Netlist, RomRequiresEightAddressBits) {
  Netlist nl;
  const Bus addr = nl.add_input_bus("addr", 4);
  std::array<std::uint8_t, 256> table{};
  EXPECT_THROW(nl.add_rom(table, addr, "rom"), std::invalid_argument);
}

TEST(Netlist, DffSequentialBehaviour) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_dff(d);
  nlist::Evaluator ev(nl);
  ev.set(d, true);
  ev.settle();
  EXPECT_FALSE(ev.get(q)) << "before any clock the register holds reset value";
  ev.clock();
  EXPECT_TRUE(ev.get(q));
  ev.set(d, false);
  ev.settle();
  EXPECT_TRUE(ev.get(q)) << "q changes only at the clock edge";
  ev.clock();
  EXPECT_FALSE(ev.get(q));
}

TEST(Netlist, DffEnableGates) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId en = nl.add_input("en");
  const NetId q = nl.add_dff(d, en);
  nlist::Evaluator ev(nl);
  ev.set(d, true);
  ev.set(en, false);
  ev.settle();
  ev.clock();
  EXPECT_FALSE(ev.get(q)) << "disabled register must hold";
  ev.set(en, true);
  ev.settle();
  ev.clock();
  EXPECT_TRUE(ev.get(q));
}

TEST(Netlist, DffFeedbackToggles) {
  // q <= not q : a divide-by-two toggler, exercising pre-created Q nets.
  Netlist nl;
  const NetId q = nl.new_net();
  const NetId d = nl.gate_not(q);
  nl.add_dff_with_out(q, d);
  nlist::Evaluator ev(nl);
  ev.settle();
  bool expected = false;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ev.get(q), expected);
    ev.clock();
    expected = !expected;
  }
}

TEST(Netlist, CounterCircuit) {
  // 4-bit counter from increment + DFFs.
  Netlist nl;
  Bus q;
  for (int i = 0; i < 4; ++i) q.push_back(nl.new_net());
  const Bus d = nl.increment(q);
  for (int i = 0; i < 4; ++i)
    nl.add_dff_with_out(q[static_cast<std::size_t>(i)], d[static_cast<std::size_t>(i)]);
  nlist::Evaluator ev(nl);
  ev.settle();
  for (int v = 0; v < 20; ++v) {
    EXPECT_EQ(ev.get_bus(q), static_cast<std::uint64_t>(v & 0xf));
    ev.clock();
  }
}

TEST(Netlist, PinCounting) {
  Netlist nl;
  const Bus in = nl.add_input_bus("in", 9);
  nl.add_output_bus(in, "out");
  (void)nl.add_input("extra");
  EXPECT_EQ(nl.pin_count(), 19);
  EXPECT_EQ(nl.inputs().size(), 10u);
  EXPECT_EQ(nl.outputs().size(), 9u);
}

TEST(Netlist, StatsCountKinds) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.gate_xor(a, b);
  (void)nl.gate_and(a, x);
  (void)nl.add_dff(x);
  const std::array<NetId, 2> lut_in{a, b};
  (void)nl.add_lut(0x6, lut_in);
  const auto s = nl.stats();
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.dffs, 1u);
  EXPECT_EQ(s.luts, 1u);
}

namespace {

std::vector<std::uint8_t> all_nets(const nlist::Evaluator& ev) {
  const auto v = ev.net_values();
  return std::vector<std::uint8_t>(v.begin(), v.end());
}

/// What a freshly built evaluator (whose first settle always sweeps)
/// settles to with `subject`'s inputs and flip-flop state.
std::vector<std::uint8_t> settled_image(const Netlist& nl, const nlist::Evaluator& subject) {
  nlist::Evaluator fresh(nl);
  for (const auto& pin : nl.inputs()) fresh.set(pin.net, subject.get(pin.net));
  std::size_t index = 0;
  for (const auto& cell : nl.cells()) {
    if (cell.kind != nlist::CellKind::kDff) continue;
    if (subject.get(cell.out)) fresh.flip_dff(index);  // fresh state is all zero
    ++index;
  }
  fresh.settle();
  return all_nets(fresh);
}

}  // namespace

// settle() sweeps only a changed network, so every mutator must mark it:
// after settle, mutate, settle, every net must match a fresh evaluator
// settled in the same state.
TEST(Netlist, EveryMutatorMarksTheNetworkForSettle) {
  Netlist nl;
  const Bus a = aesip::testing::build_settle_probe(nl);
  nlist::Evaluator ev(nl);
  std::mt19937 rng(0x5e771e);
  for (int cycle = 0; cycle < 4; ++cycle) {  // random inputs and DFF state
    for (const auto& pin : nl.inputs()) ev.set(pin.net, rng() & 1U);
    ev.settle();
    ev.clock();
  }
  // Leave some Q bits set for reset() to clear.
  ev.flip_dff(0);
  ev.flip_dff(5);

  struct Mutator {
    const char* name;
    std::function<void()> apply;
  };
  const std::vector<Mutator> mutators = {
      {"set", [&] { ev.set(a[1], !ev.get(a[1])); }},
      {"set_bus", [&] { ev.set_bus(a, ev.get_bus(a) ^ 0x5A); }},
      {"flip_dff", [&] { ev.flip_dff(2); }},
      {"clock", [&] { ev.clock(); }},
      {"reset", [&] { ev.reset(); }},
  };
  for (const auto& m : mutators) {
    SCOPED_TRACE(m.name);
    ev.settle();
    const auto before = all_nets(ev);
    m.apply();
    const auto image = settled_image(nl, ev);
    ASSERT_NE(image, before) << "vacuous: the mutator changed nothing";
    ev.settle();
    ASSERT_EQ(all_nets(ev), image);
  }

  // A clock straight after a flip still settles the network.
  for (std::size_t i = 0; i < ev.dff_count(); ++i) {
    SCOPED_TRACE("flip_dff then clock, dff " + std::to_string(i));
    ev.settle();
    ev.flip_dff(i);
    ev.clock();
    ASSERT_EQ(all_nets(ev), settled_image(nl, ev));
  }
}
