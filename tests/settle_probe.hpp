// A small sequential netlist for the settle-contract tests of both
// evaluators (test_netlist.cpp, test_netlist_batch.cpp).
#pragma once

#include <array>
#include <cstdint>

#include "netlist/netlist.hpp"

namespace aesip::testing {

/// Every primary input and every flip-flop has combinational fanout, so
/// any mutator leaves a settle work to do: an 8-bit ROM addressed by
/// a ^ q, 3-input parity LUTs over its data, and eight DFFs (odd ones
/// clock-enabled by `en`) fed back from it.  Returns the `a` bus.
inline netlist::Bus build_settle_probe(netlist::Netlist& nl) {
  const netlist::Bus a = nl.add_input_bus("a", 8);
  const netlist::NetId en = nl.add_input("en");
  netlist::Bus q;
  for (int i = 0; i < 8; ++i) q.push_back(nl.new_net());
  std::array<std::uint8_t, 256> table{};
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint8_t>(i * 167 + 13);  // a permutation
  const netlist::Bus r = nl.add_rom(table, nl.xor_bus(a, q), "perm");
  netlist::Bus y;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::array<netlist::NetId, 3> in{r[i], a[(i + 1) % 8], en};
    y.push_back(nl.add_lut(0x96, in));
  }
  for (std::size_t i = 0; i < 8; ++i)
    nl.add_dff_with_out(q[i], nl.gate_xor(r[i], a[i]), i % 2 ? en : netlist::kNoNet);
  nl.add_output_bus(y, "y");
  nl.add_output_bus(q, "q");
  return a;
}

}  // namespace aesip::testing
