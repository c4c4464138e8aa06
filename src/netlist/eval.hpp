// Netlist evaluator: functional simulation of a gate-level netlist.
//
// Used to prove every synthesis generator correct — a synthesized block is
// evaluated against the reference library over randomized sweeps before its
// LC count or timing is believed.  Combinational cells (gates, LUTs, async
// ROM macros) are levelized once; DFFs are state elements advanced by
// clock().  A combinational cycle is rejected at construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace aesip::netlist {

class Evaluator {
 public:
  explicit Evaluator(const Netlist& nl);

  void set(NetId n, bool v) {
    values_[n] = v ? 1 : 0;
    dirty_ = true;
  }
  bool get(NetId n) const { return values_[n] != 0; }

  /// Drive a bus (bit 0 = LSB) from an integer.
  void set_bus(const Bus& b, std::uint64_t value);
  std::uint64_t get_bus(const Bus& b) const;

  /// Propagate through all combinational cells (call after changing inputs).
  /// Free when nothing changed since the last sweep: set/set_bus, reset,
  /// flip_dff and clock are the only mutators, and each marks the network
  /// dirty.
  void settle();

  /// Rising clock edge: every DFF whose enable is true (or absent) samples
  /// its D input as it stands (settle first after changing inputs); then
  /// the network settles — always one sweep, since Q was republished.
  void clock();

  /// Clear all flip-flop state to zero.
  void reset();

  // --- fault injection (SEU emulation) ---------------------------------------
  /// Number of flip-flops (injection sites).
  std::size_t dff_count() const noexcept { return dff_cells_.size(); }
  /// Invert the stored state of flip-flop `index` — a single-event upset.
  /// The caller settles afterwards so the flip propagates combinationally.
  void flip_dff(std::size_t index);

  /// Read-only view of every net's current value (activity probes for the
  /// power estimator; index = NetId).
  std::span<const std::uint8_t> net_values() const noexcept {
    return std::span<const std::uint8_t>(values_.data(), values_.size());
  }

 private:
  const Netlist& nl_;
  std::vector<std::uint8_t> values_;         // one per net
  std::vector<std::size_t> comb_order_;      // cell indices, topological
  std::vector<std::size_t> rom_position_;    // interleave ROMs in the order
  struct Step {
    bool is_rom;
    std::size_t index;  // cell index or rom index
  };
  std::vector<Step> order_;
  std::vector<std::size_t> dff_cells_;
  std::vector<std::uint8_t> dff_state_;
  bool dirty_ = true;  // a mutator ran since the last sweep
};

}  // namespace aesip::netlist
