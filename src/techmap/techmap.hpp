// Technology mapping onto 4-input-LUT logic elements.
//
// Models the Quartus flow the paper's LC numbers come from.  An Altera
// logic element (LE/LC) on both Acex1K and Cyclone is one 4-input LUT plus
// one flip-flop with clock enable; mapping therefore:
//
//  1. covers the primitive-gate network with 4-feasible cones
//     (greedy fanout-1 tree absorption in topological order),
//  2. folds constants and drops don't-care inputs from every LUT,
//  3. deduplicates structurally identical LUTs (this is what shrinks the
//     Shannon-decomposed S-box below its 31-LUTs-per-output worst case),
//  4. packs a flip-flop into the LE of the LUT that feeds it when that LUT
//     has no other fanout.
//
// The result is a new Netlist containing only kLut, kDff and ROM cells —
// suitable for sta:: levelized timing and fpga:: fitting — plus the LE
// accounting.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace aesip::techmap {

struct MapStats {
  std::size_t luts = 0;            ///< mapped 4-LUTs
  std::size_t dffs = 0;            ///< flip-flops
  std::size_t packed = 0;          ///< LUT+FF pairs sharing one LE
  std::size_t logic_elements = 0;  ///< luts + dffs - packed
  std::size_t roms = 0;            ///< memory-block S-boxes
  std::size_t rom_bits = 0;
  std::size_t deduped_luts = 0;    ///< LUTs removed by structural hashing
  std::size_t folded_const = 0;    ///< LUTs that folded to a constant
  int pins = 0;
};

struct MapResult {
  netlist::Netlist mapped;
  MapStats stats;
};

/// Map `design` onto 4-LUT logic elements. Port names are preserved, so
/// tests can drive the original and the mapped netlist identically and
/// compare outputs (combinational equivalence checking).
MapResult map_to_luts(const netlist::Netlist& design);

// --- LUT truth-table helpers (exposed for tests) ---------------------------

/// Restrict `mask` (over `arity` vars) by fixing variable `var` to `value`;
/// the result is a mask over arity-1 variables (var removed, higher
/// variables shifted down).
std::uint16_t lut_restrict(std::uint16_t mask, int arity, int var, bool value) noexcept;

/// True if the LUT function depends on variable `var`.
bool lut_depends(std::uint16_t mask, int arity, int var) noexcept;

}  // namespace aesip::techmap
