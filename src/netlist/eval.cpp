#include "netlist/eval.hpp"

#include <stdexcept>

namespace aesip::netlist {

namespace {

/// Node in the scheduling graph: cells and ROM macros unified.
struct Node {
  bool is_rom;
  std::size_t index;
};

}  // namespace

Evaluator::Evaluator(const Netlist& nl) : nl_(nl), values_(nl.net_count(), 0) {
  // Build producer map: which node drives each net (combinational only).
  const auto& cells = nl.cells();
  const auto& roms = nl.roms();
  std::vector<Node> nodes;
  nodes.reserve(cells.size() + roms.size());
  std::vector<std::int32_t> producer(nl.net_count(), -1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.kind == CellKind::kDff) {
      dff_cells_.push_back(i);
      continue;  // Q is a state source, not a combinational product
    }
    if (c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1) continue;
    producer[c.out] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(Node{false, i});
  }
  for (std::size_t i = 0; i < roms.size(); ++i) {
    for (const NetId o : roms[i].out) producer[o] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(Node{true, i});
  }
  dff_state_.assign(dff_cells_.size(), 0);

  // Kahn topological sort over combinational dependencies.
  std::vector<int> pending(nodes.size(), 0);
  std::vector<std::vector<std::int32_t>> consumers(nodes.size());
  auto each_fanin = [&](const Node& n, auto&& fn) {
    if (n.is_rom) {
      for (const NetId a : roms[n.index].addr) fn(a);
    } else {
      const Cell& c = cells[n.index];
      for (int k = 0; k < c.fanin_count(); ++k)
        if (c.in[static_cast<std::size_t>(k)] != kNoNet) fn(c.in[static_cast<std::size_t>(k)]);
    }
  };
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    each_fanin(nodes[ni], [&](NetId fanin) {
      const std::int32_t p = producer[fanin];
      if (p >= 0) {
        ++pending[ni];
        consumers[static_cast<std::size_t>(p)].push_back(static_cast<std::int32_t>(ni));
      }
    });
  }
  std::vector<std::int32_t> ready;
  for (std::size_t ni = 0; ni < nodes.size(); ++ni)
    if (pending[ni] == 0) ready.push_back(static_cast<std::int32_t>(ni));
  order_.reserve(nodes.size());
  while (!ready.empty()) {
    const std::int32_t ni = ready.back();
    ready.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(ni)];
    order_.push_back(Step{n.is_rom, n.index});
    for (const std::int32_t consumer : consumers[static_cast<std::size_t>(ni)])
      if (--pending[static_cast<std::size_t>(consumer)] == 0) ready.push_back(consumer);
  }
  if (order_.size() != nodes.size())
    throw std::runtime_error("netlist::Evaluator: combinational cycle detected");

  // Constants are fixed for the evaluator's lifetime.
  values_[nl.const1()] = 1;
  reset();
}

void Evaluator::set_bus(const Bus& b, std::uint64_t value) {
  for (std::size_t i = 0; i < b.size(); ++i) set(b[i], (value >> i) & 1U);
}

std::uint64_t Evaluator::get_bus(const Bus& b) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (get(b[i])) v |= std::uint64_t{1} << i;
  return v;
}

void Evaluator::settle() {
  if (!dirty_) return;
  dirty_ = false;
  const auto& cells = nl_.cells();
  const auto& roms = nl_.roms();
  for (const Step& s : order_) {
    if (s.is_rom) {
      const Rom& r = roms[s.index];
      std::size_t addr = 0;
      for (int i = 0; i < 8; ++i)
        if (values_[r.addr[static_cast<std::size_t>(i)]]) addr |= std::size_t{1} << i;
      const std::uint8_t data = r.table[addr];
      for (int i = 0; i < 8; ++i)
        values_[r.out[static_cast<std::size_t>(i)]] = (data >> i) & 1U;
      continue;
    }
    const Cell& c = cells[s.index];
    std::uint8_t v = 0;
    switch (c.kind) {
      case CellKind::kNot:
        v = values_[c.in[0]] ^ 1U;
        break;
      case CellKind::kAnd2:
        v = values_[c.in[0]] & values_[c.in[1]];
        break;
      case CellKind::kOr2:
        v = values_[c.in[0]] | values_[c.in[1]];
        break;
      case CellKind::kXor2:
        v = values_[c.in[0]] ^ values_[c.in[1]];
        break;
      case CellKind::kMux2:
        v = values_[c.in[0]] ? values_[c.in[2]] : values_[c.in[1]];
        break;
      case CellKind::kLut: {
        std::uint16_t idx = 0;
        for (int k = 0; k < c.lut_arity; ++k)
          if (values_[c.in[static_cast<std::size_t>(k)]]) idx |= static_cast<std::uint16_t>(1U << k);
        v = (c.lut_mask >> idx) & 1U;
        break;
      }
      default:
        continue;
    }
    values_[c.out] = v;
  }
}

void Evaluator::clock() {
  const auto& cells = nl_.cells();
  // Sample every enabled D first (pre-edge values), then publish.
  std::vector<std::uint8_t> sampled(dff_cells_.size());
  for (std::size_t i = 0; i < dff_cells_.size(); ++i) {
    const Cell& c = cells[dff_cells_[i]];
    const bool enabled = c.in[1] == kNoNet || values_[c.in[1]] != 0;
    sampled[i] = enabled ? values_[c.in[0]] : dff_state_[i];
  }
  dff_state_ = std::move(sampled);
  for (std::size_t i = 0; i < dff_cells_.size(); ++i)
    values_[nl_.cells()[dff_cells_[i]].out] = dff_state_[i];
  dirty_ = true;
  settle();
}

void Evaluator::flip_dff(std::size_t index) {
  dff_state_[index] ^= 1U;
  values_[nl_.cells()[dff_cells_[index]].out] = dff_state_[index];
  dirty_ = true;
}

void Evaluator::reset() {
  dff_state_.assign(dff_cells_.size(), 0);
  for (std::size_t i = 0; i < dff_cells_.size(); ++i)
    values_[nl_.cells()[dff_cells_[i]].out] = 0;
  dirty_ = true;
}

}  // namespace aesip::netlist
