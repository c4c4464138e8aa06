#include "techmap/techmap.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

namespace aesip::techmap {

using netlist::Cell;
using netlist::CellKind;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;

namespace {

bool is_comb_gate(CellKind k) noexcept {
  return k == CellKind::kNot || k == CellKind::kAnd2 || k == CellKind::kOr2 ||
         k == CellKind::kXor2 || k == CellKind::kMux2;
}

/// Evaluate a primitive gate from its input bits.
bool eval_gate(const Cell& c, bool a, bool b, bool s) noexcept {
  switch (c.kind) {
    case CellKind::kNot:
      return !a;
    case CellKind::kAnd2:
      return a && b;
    case CellKind::kOr2:
      return a || b;
    case CellKind::kXor2:
      return a != b;
    case CellKind::kMux2:
      return a ? s : b;  // in0 = sel, in1 = lo, in2 = hi
    default:
      return false;
  }
}

struct ConeInfo {
  std::vector<NetId> leaves;  // <= 4, sorted insertion order
  bool computed = false;
};

}  // namespace

std::uint16_t lut_restrict(std::uint16_t mask, int arity, int var, bool value) noexcept {
  std::uint16_t out = 0;
  const int out_bits = 1 << (arity - 1);
  for (int idx2 = 0; idx2 < out_bits; ++idx2) {
    const int low = idx2 & ((1 << var) - 1);
    const int high = idx2 >> var;
    const int idx = low | ((value ? 1 : 0) << var) | (high << (var + 1));
    if ((mask >> idx) & 1U) out = static_cast<std::uint16_t>(out | (1U << idx2));
  }
  return out;
}

bool lut_depends(std::uint16_t mask, int arity, int var) noexcept {
  return lut_restrict(mask, arity, var, false) != lut_restrict(mask, arity, var, true);
}

MapResult map_to_luts(const Netlist& nl) {
  MapResult result;
  Netlist& m = result.mapped;
  MapStats& st = result.stats;

  const auto& cells = nl.cells();
  const auto& driver = nl.driver();

  // ---- fanout counts in the source netlist --------------------------------
  std::vector<int> fanout(nl.net_count(), 0);
  auto bump = [&](NetId n) {
    if (n != kNoNet) ++fanout[n];
  };
  for (const Cell& c : cells)
    for (int k = 0; k < c.fanin_count(); ++k) bump(c.in[static_cast<std::size_t>(k)]);
  for (const auto& rom : nl.roms())
    for (const NetId a : rom.addr) bump(a);
  for (const auto& po : nl.outputs()) bump(po.net);

  // ---- greedy cone covering ------------------------------------------------
  std::vector<ConeInfo> cone(cells.size());
  std::vector<char> absorbed(cells.size(), 0);

  auto is_const = [&](NetId n) { return n == nl.const0() || n == nl.const1(); };

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& c = cells[ci];
    if (!is_comb_gate(c.kind)) continue;
    ConeInfo& info = cone[ci];
    info.computed = true;
    auto add_leaf = [&](NetId n) {
      if (std::find(info.leaves.begin(), info.leaves.end(), n) == info.leaves.end())
        info.leaves.push_back(n);
    };
    // Start from the direct fanins (at most 3 leaves), then repeatedly
    // substitute an absorbable leaf (fanout-1 gate) by its own cone leaves
    // while the total support stays within 4 inputs.  The fixpoint handles
    // overlapping supports naturally — e.g. a constant-mux tree whose every
    // level selects on the same counter bits collapses into a single LUT,
    // exactly as a synthesis tool flattens it.
    for (int k = 0; k < c.fanin_count(); ++k) {
      const NetId f = c.in[static_cast<std::size_t>(k)];
      if (!is_const(f)) add_leaf(f);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t li = 0; li < info.leaves.size(); ++li) {
        const NetId f = info.leaves[li];
        const std::int32_t d = driver[f];
        const bool absorbable = d >= 0 &&
                                is_comb_gate(cells[static_cast<std::size_t>(d)].kind) &&
                                fanout[f] == 1 && cone[static_cast<std::size_t>(d)].computed;
        if (!absorbable) continue;
        std::vector<NetId> merged;
        merged.reserve(4);
        for (const NetId other : info.leaves)
          if (other != f) merged.push_back(other);
        for (const NetId leaf : cone[static_cast<std::size_t>(d)].leaves)
          if (std::find(merged.begin(), merged.end(), leaf) == merged.end())
            merged.push_back(leaf);
        if (merged.size() <= 4) {
          info.leaves = std::move(merged);
          absorbed[static_cast<std::size_t>(d)] = 1;
          changed = true;
          break;
        }
      }
    }
    if (info.leaves.size() > 4)
      throw std::runtime_error("techmap: cone wider than 4 inputs");  // unreachable
  }

  // ---- cone truth-table evaluation ----------------------------------------
  // Recursive evaluation over absorbed gates only.
  auto eval_cone = [&](NetId root_out, const std::vector<NetId>& leaves,
                       std::uint16_t assignment) {
    auto rec = [&](auto&& self, NetId n) -> bool {
      if (n == nl.const0()) return false;
      if (n == nl.const1()) return true;
      for (std::size_t li = 0; li < leaves.size(); ++li)
        if (leaves[li] == n) return (assignment >> li) & 1U;
      const std::int32_t d = driver[n];
      const Cell& g = cells[static_cast<std::size_t>(d)];
      const bool a = self(self, g.in[0]);
      const bool b = g.fanin_count() > 1 ? self(self, g.in[1]) : false;
      const bool s = g.fanin_count() > 2 ? self(self, g.in[2]) : false;
      return eval_gate(g, a, b, s);
    };
    return rec(rec, root_out);
  };

  // ---- build the mapped netlist in net-creation (topological) order -------
  std::vector<NetId> netmap(nl.net_count(), kNoNet);
  netmap[nl.const0()] = m.const0();
  netmap[nl.const1()] = m.const1();
  for (const auto& pi : nl.inputs()) netmap[pi.net] = m.add_input(pi.name);
  for (const Cell& c : cells)
    if (c.kind == CellKind::kDff) netmap[c.out] = m.new_net();

  // Structural-hash dedup table: (arity, mask, inputs) -> mapped output net.
  std::map<std::array<std::uint32_t, 6>, NetId> dedup;

  auto add_mapped_lut = [&](std::uint16_t mask, std::vector<NetId> ins) -> NetId {
    // Fold constant inputs.
    for (int v = static_cast<int>(ins.size()) - 1; v >= 0; --v) {
      if (ins[static_cast<std::size_t>(v)] == m.const0() ||
          ins[static_cast<std::size_t>(v)] == m.const1()) {
        mask = lut_restrict(mask, static_cast<int>(ins.size()), v,
                            ins[static_cast<std::size_t>(v)] == m.const1());
        ins.erase(ins.begin() + v);
      }
    }
    // Drop don't-care inputs.
    for (int v = static_cast<int>(ins.size()) - 1; v >= 0; --v) {
      if (!lut_depends(mask, static_cast<int>(ins.size()), v)) {
        mask = lut_restrict(mask, static_cast<int>(ins.size()), v, false);
        ins.erase(ins.begin() + v);
      }
    }
    if (ins.empty()) {
      ++st.folded_const;
      return (mask & 1U) ? m.const1() : m.const0();
    }
    // Buffer elimination: a 1-input identity LUT is just a wire.
    if (ins.size() == 1 && mask == 0b10) {
      ++st.folded_const;
      return ins[0];
    }
    std::array<std::uint32_t, 6> key{};
    key[0] = mask;
    key[1] = static_cast<std::uint32_t>(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) key[2 + i] = ins[i];
    if (const auto it = dedup.find(key); it != dedup.end()) {
      ++st.deduped_luts;
      return it->second;
    }
    const NetId out = m.add_lut(mask, ins);
    dedup.emplace(key, out);
    return out;
  };

  // Work items sorted by output net id == creation order == topological.
  struct Item {
    NetId order_net;
    enum Kind { kRoot, kPassLut, kRomItem } kind;
    std::size_t index;
  };
  std::vector<Item> items;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& c = cells[ci];
    if (is_comb_gate(c.kind) && !absorbed[ci]) items.push_back({c.out, Item::kRoot, ci});
    else if (c.kind == CellKind::kLut) items.push_back({c.out, Item::kPassLut, ci});
  }
  for (std::size_t ri = 0; ri < nl.roms().size(); ++ri)
    items.push_back({nl.roms()[ri].out[0], Item::kRomItem, ri});
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.order_net < b.order_net; });

  for (const Item& item : items) {
    if (item.kind == Item::kRomItem) {
      const auto& rom = nl.roms()[item.index];
      netlist::Bus addr;
      for (const NetId a : rom.addr) addr.push_back(netmap[a]);
      const netlist::Bus outs = m.add_rom(rom.table, addr, rom.name);
      for (int i = 0; i < 8; ++i)
        netmap[rom.out[static_cast<std::size_t>(i)]] = outs[static_cast<std::size_t>(i)];
      continue;
    }
    const Cell& c = cells[item.index];
    if (item.kind == Item::kPassLut) {
      std::vector<NetId> ins;
      for (int k = 0; k < c.lut_arity; ++k) ins.push_back(netmap[c.in[static_cast<std::size_t>(k)]]);
      netmap[c.out] = add_mapped_lut(c.lut_mask, std::move(ins));
      continue;
    }
    // Root gate: compute the cone truth table over its leaves.
    const ConeInfo& info = cone[item.index];
    const int arity = static_cast<int>(info.leaves.size());
    std::uint16_t mask = 0;
    for (std::uint16_t idx = 0; idx < (1U << arity); ++idx)
      if (eval_cone(c.out, info.leaves, idx)) mask = static_cast<std::uint16_t>(mask | (1U << idx));
    std::vector<NetId> ins;
    for (const NetId leaf : info.leaves) ins.push_back(netmap[leaf]);
    netmap[c.out] = add_mapped_lut(mask, std::move(ins));
  }

  // ---- sequential cells and ports ------------------------------------------
  for (const Cell& c : cells) {
    if (c.kind != CellKind::kDff) continue;
    const NetId en = c.in[1] == kNoNet ? kNoNet : netmap[c.in[1]];
    m.add_dff_with_out(netmap[c.out], netmap[c.in[0]], en);
  }
  for (const auto& po : nl.outputs()) m.add_output(netmap[po.net], po.name);

  // ---- LE accounting --------------------------------------------------------
  const auto mstats = m.stats();
  st.luts = mstats.luts;
  st.dffs = mstats.dffs;
  st.roms = mstats.roms;
  st.rom_bits = mstats.rom_bits;
  st.pins = m.pin_count();

  std::vector<int> mfanout(m.net_count(), 0);
  for (const Cell& c : m.cells())
    for (int k = 0; k < c.fanin_count(); ++k)
      if (c.in[static_cast<std::size_t>(k)] != kNoNet) ++mfanout[c.in[static_cast<std::size_t>(k)]];
  for (const auto& rom : m.roms())
    for (const NetId a : rom.addr) ++mfanout[a];
  for (const auto& po : m.outputs()) ++mfanout[po.net];

  for (const Cell& c : m.cells()) {
    if (c.kind != CellKind::kDff) continue;
    const std::int32_t d = m.driver()[c.in[0]];
    if (d >= 0 && m.cells()[static_cast<std::size_t>(d)].kind == CellKind::kLut &&
        mfanout[c.in[0]] == 1)
      ++st.packed;
  }
  st.logic_elements = st.luts + st.dffs - st.packed;
  return result;
}

}  // namespace aesip::techmap
