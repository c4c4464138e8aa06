// Mapper fuzzing: random gate DAGs (seeded, reproducible) are technology
// mapped and then *proven* equivalent to their sources with the BDD
// engine; random sequential circuits are additionally co-simulated.  This
// generalizes the hand-written covering tests to thousands of structural
// corner cases (shared fanout, constants, deep chains, mux pyramids).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "bdd/netlist_bdd.hpp"
#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "netlist/writer.hpp"
#include "techmap/techmap.hpp"

namespace bdd = aesip::bdd;
namespace nlist = aesip::netlist;
namespace txm = aesip::techmap;
using nlist::Bus;
using nlist::Netlist;
using nlist::NetId;

namespace {

/// Random combinational DAG over `inputs` primary inputs.
Netlist random_comb(std::uint32_t seed, int inputs, int gates, int outputs) {
  std::mt19937 rng(seed);
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(nl.add_input("in[" + std::to_string(i) + "]"));
  pool.push_back(nl.const0());
  pool.push_back(nl.const1());
  auto pick = [&] { return pool[rng() % pool.size()]; };
  for (int g = 0; g < gates; ++g) {
    NetId out;
    switch (rng() % 6) {
      case 0:
        out = nl.gate_not(pick());
        break;
      case 1:
        out = nl.gate_and(pick(), pick());
        break;
      case 2:
        out = nl.gate_or(pick(), pick());
        break;
      case 3:
        out = nl.gate_xor(pick(), pick());
        break;
      case 4:
        out = nl.gate_mux(pick(), pick(), pick());
        break;
      default: {
        const std::array<NetId, 3> ins{pick(), pick(), pick()};
        out = nl.add_lut(static_cast<std::uint16_t>(rng() & 0xff), ins);
        break;
      }
    }
    pool.push_back(out);
  }
  for (int o = 0; o < outputs; ++o)
    nl.add_output(pool[pool.size() - 1 - static_cast<std::size_t>(o)],
                  "out[" + std::to_string(o) + "]");
  return nl;
}

/// Random sequential circuit: a comb DAG plus registers with feedback.
Netlist random_seq(std::uint32_t seed, int inputs, int regs, int gates) {
  std::mt19937 rng(seed);
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(nl.add_input("in[" + std::to_string(i) + "]"));
  Bus q;
  for (int r = 0; r < regs; ++r) {
    q.push_back(nl.new_net());
    pool.push_back(q.back());
  }
  auto pick = [&] { return pool[rng() % pool.size()]; };
  for (int g = 0; g < gates; ++g) {
    const int kind = static_cast<int>(rng() % 4);
    NetId out = kind == 0   ? nl.gate_not(pick())
                : kind == 1 ? nl.gate_and(pick(), pick())
                : kind == 2 ? nl.gate_xor(pick(), pick())
                            : nl.gate_mux(pick(), pick(), pick());
    pool.push_back(out);
  }
  for (int r = 0; r < regs; ++r) {
    const bool enabled = (rng() & 1) != 0;
    nl.add_dff_with_out(q[static_cast<std::size_t>(r)], pick(),
                        enabled ? pick() : nlist::kNoNet);
  }
  nl.add_output(q[0], "q0");
  nl.add_output(pool.back(), "comb");
  return nl;
}

}  // namespace

class MapperFuzzComb : public ::testing::TestWithParam<int> {};

TEST_P(MapperFuzzComb, MappedDagIsFormallyEquivalent) {
  const auto seed = static_cast<std::uint32_t>(GetParam());
  const Netlist nl = random_comb(seed, 6 + seed % 5, 40 + static_cast<int>(seed % 60), 6);
  ASSERT_TRUE(nl.validate().empty());
  const auto mapped = txm::map_to_luts(nl);
  ASSERT_TRUE(mapped.mapped.validate().empty());
  const auto r = bdd::prove_equivalent(nl, mapped.mapped);
  EXPECT_TRUE(r.equivalent) << "seed " << seed << ": " << r.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperFuzzComb, ::testing::Range(0, 40));

class MapperFuzzSeq : public ::testing::TestWithParam<int> {};

TEST_P(MapperFuzzSeq, MappedSequentialIsFormallyEquivalent) {
  const auto seed = static_cast<std::uint32_t>(GetParam()) + 1000;
  const Netlist nl = random_seq(seed, 4, 5 + static_cast<int>(seed % 4), 30);
  ASSERT_TRUE(nl.validate().empty());
  const auto mapped = txm::map_to_luts(nl);
  const auto r = bdd::prove_equivalent(nl, mapped.mapped);
  EXPECT_TRUE(r.equivalent) << "seed " << seed << ": " << r.mismatch;
}

TEST_P(MapperFuzzSeq, MappedSequentialCoSimulates) {
  const auto seed = static_cast<std::uint32_t>(GetParam()) + 2000;
  const Netlist nl = random_seq(seed, 4, 6, 25);
  const auto mapped = txm::map_to_luts(nl);
  nlist::Evaluator e1(nl), e2(mapped.mapped);
  std::mt19937 rng(seed ^ 0xabcd);
  e1.settle();
  e2.settle();
  for (int cycle = 0; cycle < 64; ++cycle) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const bool v = (rng() & 1) != 0;
      e1.set(nl.inputs()[i].net, v);
      e2.set(mapped.mapped.inputs()[i].net, v);
    }
    e1.settle();
    e2.settle();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o)
      ASSERT_EQ(e1.get(nl.outputs()[o].net), e2.get(mapped.mapped.outputs()[o].net))
          << "seed " << seed << " cycle " << cycle << " output " << o;
    e1.clock();
    e2.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperFuzzSeq, ::testing::Range(0, 25));

class SweepFuzz : public ::testing::TestWithParam<int> {};

// The batch evaluator's live-cone sweeps skip the logic each control
// state leaves dead; that must never change what the outputs show.  The
// first two inputs are declared broadcast pins and driven alike in every
// lane, so the flip-flops they alone steer become control state; the
// others differ per lane.  Every output in every lane is co-simulated
// against the scalar oracle.
TEST_P(SweepFuzz, SweepNeverChangesObservableBehaviour) {
  const auto seed = static_cast<std::uint32_t>(GetParam()) + 3000;
  const Netlist nl = random_seq(seed, 4, 6, 25);
  const Netlist mapped = txm::map_to_luts(nl).mapped;
  const auto& ins = mapped.inputs();
  const std::array<NetId, 2> pins{ins[0].net, ins[1].net};
  nlist::BatchEvaluator batch(mapped, {}, pins);
  std::vector<std::unique_ptr<nlist::Evaluator>> lanes;
  for (std::size_t l = 0; l < batch.lanes(); ++l)
    lanes.push_back(std::make_unique<nlist::Evaluator>(mapped));
  std::mt19937_64 rng(seed ^ 0x1234);
  for (int cycle = 0; cycle < 48; ++cycle) {
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const bool pin = i < pins.size();
      const bool v = (rng() & 1) != 0;
      if (pin) batch.broadcast(ins[i].net, v);
      for (std::size_t g = 0; g < batch.stride(); ++g)
        if (!pin) batch.set_word(ins[i].net, rng(), g);
      for (std::size_t l = 0; l < lanes.size(); ++l)
        lanes[l]->set(ins[i].net, pin ? v : batch.get(ins[i].net, l));
    }
    batch.settle();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      lanes[l]->settle();
      for (const auto& po : mapped.outputs())
        ASSERT_EQ(lanes[l]->get(po.net), batch.get(po.net, l))
            << "seed " << seed << " cycle " << cycle << " lane " << l << " " << po.name;
      lanes[l]->clock();
    }
    batch.clock();
  }
  EXPECT_EQ(batch.lane_divergences(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepFuzz, ::testing::Range(0, 20));

class BlifFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BlifFuzz, RandomCircuitsSurviveTheBlifRoundTrip) {
  const auto seed = static_cast<std::uint32_t>(GetParam()) + 4000;
  const Netlist nl = random_comb(seed, 5, 35, 4);
  std::ostringstream os;
  nlist::write_blif(nl, os, "fuzz");
  std::istringstream is(os.str());
  const Netlist back = nlist::read_blif(is);
  const auto r = bdd::prove_equivalent(nl, back);
  EXPECT_TRUE(r.equivalent) << "seed " << seed << ": " << r.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlifFuzz, ::testing::Range(0, 20));
