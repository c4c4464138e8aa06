// Structural hygiene: Netlist::validate() on every construction and
// transformation path in the repository.
#include <gtest/gtest.h>

#include "core/ip_synth.hpp"
#include "netlist/netlist.hpp"
#include "seu/tmr.hpp"
#include "techmap/techmap.hpp"

namespace core = aesip::core;
namespace nlist = aesip::netlist;
namespace txm = aesip::techmap;
using core::IpMode;
using nlist::Netlist;
using nlist::NetId;

namespace {

void expect_valid(const Netlist& nl, const char* what) {
  const auto problems = nl.validate();
  EXPECT_TRUE(problems.empty()) << what << ": " << (problems.empty() ? "" : problems.front())
                                << " (" << problems.size() << " problems)";
}

}  // namespace

TEST(Validate, EmptyNetlistIsValid) {
  Netlist nl;
  expect_valid(nl, "empty");
}

TEST(Validate, FlagsUndrivenNet) {
  Netlist nl;
  const NetId floating = nl.new_net();
  const NetId a = nl.add_input("a");
  nl.add_output(nl.gate_and(a, floating), "y");
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("undriven"), std::string::npos);
}

TEST(Validate, FlagsDoubleDriver) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.new_net();
  nl.add_dff_with_out(q, a);
  nl.add_dff_with_out(q, a);  // same output net twice
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("driven twice"), std::string::npos);
}

TEST(Validate, FlagsDuplicatePortNames) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output(a, "y");
  nl.add_output(a, "y");
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("duplicate port"), std::string::npos);
}

TEST(Validate, EveryFlowArtifactIsWellFormed) {
  for (const auto mode : {IpMode::kEncrypt, IpMode::kDecrypt, IpMode::kBoth}) {
    for (const bool rom : {true, false}) {
      const Netlist ip = core::synthesize_ip(mode, rom);
      expect_valid(ip, "synthesized IP");
      const auto mapped = txm::map_to_luts(ip);
      expect_valid(mapped.mapped, "mapped IP");
    }
  }
}

TEST(Validate, TmrArtifactIsWellFormed) {
  const auto mapped = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, true));
  expect_valid(aesip::seu::harden_tmr(mapped.mapped).hardened, "TMR netlist");
}
