#include "netlist/batch_eval.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "netlist/batch_kernels.hpp"

namespace aesip::netlist {

namespace {

/// Node in the scheduling graph: cells and ROM macros unified (same shape
/// as the scalar evaluator's — the two levelizations must agree on what is
/// combinational).
struct Node {
  bool is_rom;
  std::size_t index;
};

const batchdetail::Kernels* kernels_for(BatchBackend b) {
  switch (b) {
    case BatchBackend::kU64: return batchdetail::kernels_u64();
    case BatchBackend::kNeon: return batchdetail::kernels_neon();
    case BatchBackend::kAvx2: return batchdetail::kernels_avx2();
    case BatchBackend::kAvx512: return batchdetail::kernels_avx512();
  }
  return nullptr;
}

}  // namespace

BatchEvaluator::BatchEvaluator(const Netlist& nl, const BatchConfig& cfg)
    : nl_(nl),
      backend_(resolve_backend(cfg)),
      stride_(backend_lanes(backend_) / kBaseLanes),
      slots_(nl.net_count()),
      const0_word_(nl.const0()),
      const1_word_(nl.const1()) {
  const auto& cells = nl.cells();
  const auto& netlist_roms = nl.roms();

  // Same producer map + Kahn sort as the scalar Evaluator: DFF outputs are
  // state sources, constants are fixed, everything else is scheduled.
  std::vector<Node> nodes;
  nodes.reserve(cells.size() + netlist_roms.size());
  std::vector<std::int32_t> producer(nl.net_count(), -1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.kind == CellKind::kDff) {
      dffs_.push_back(Dff{c.in[0], c.out, c.in[1] == kNoNet ? kNoWord : c.in[1]});
      continue;
    }
    if (c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1) continue;
    producer[c.out] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(Node{false, i});
  }
  for (std::size_t i = 0; i < netlist_roms.size(); ++i) {
    for (const NetId o : netlist_roms[i].out) producer[o] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(Node{true, i});
    RomSpec spec{};
    for (int k = 0; k < 8; ++k) {
      spec.addr[k] = netlist_roms[i].addr[static_cast<std::size_t>(k)];
      spec.out[k] = netlist_roms[i].out[static_cast<std::size_t>(k)];
    }
    spec.table = netlist_roms[i].table.data();
    roms_.push_back(spec);
  }

  std::vector<int> pending(nodes.size(), 0);
  std::vector<std::vector<std::int32_t>> consumers(nodes.size());
  auto each_fanin = [&](const Node& n, auto&& fn) {
    if (n.is_rom) {
      for (const NetId a : netlist_roms[n.index].addr) fn(a);
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

  // Compile each node in topological order straight onto the tape.
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const std::int32_t ni = ready.back();
    ready.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(ni)];
    ++scheduled;
    if (n.is_rom) {
      emit(OpKind::kRom, static_cast<std::uint32_t>(n.index), 0);
    } else {
      const Cell& c = cells[n.index];
      switch (c.kind) {
        case CellKind::kNot:
          emit(OpKind::kNot, c.out, c.in[0]);
          break;
        case CellKind::kAnd2:
          emit(OpKind::kAnd, c.out, c.in[0], c.in[1]);
          break;
        case CellKind::kOr2:
          emit(OpKind::kOr, c.out, c.in[0], c.in[1]);
          break;
        case CellKind::kXor2:
          emit(OpKind::kXor, c.out, c.in[0], c.in[1]);
          break;
        case CellKind::kMux2:
          emit(OpKind::kMux, c.out, c.in[0], c.in[1], c.in[2]);
          break;
        case CellKind::kLut: {
          std::uint32_t ins[4] = {0, 0, 0, 0};
          for (int k = 0; k < c.lut_arity; ++k) ins[k] = c.in[static_cast<std::size_t>(k)];
          compile_lut(c.lut_mask, c.lut_arity, ins, c.out);
          break;
        }
        default:
          break;
      }
    }
    for (const std::int32_t consumer : consumers[static_cast<std::size_t>(ni)])
      if (--pending[static_cast<std::size_t>(consumer)] == 0) ready.push_back(consumer);
  }
  if (scheduled != nodes.size())
    throw std::runtime_error("netlist::BatchEvaluator: combinational cycle detected");

  build_levels();

  // Backend hookup.  The slot count is final only now (LUT temporaries),
  // so physical storage allocates here.
  words_.assign(slots_ * stride_, 0);
  dff_state_.assign(dffs_.size() * stride_, 0);
  dff_sample_.assign(dffs_.size() * stride_, 0);
  kern_ = kernels_for(backend_);
  if (!kern_)  // resolve_backend() already vetted support; belt and braces
    throw std::runtime_error("netlist::BatchEvaluator: backend kernels missing");

  broadcast(const1_word_, true);
  reset();
}

std::uint32_t BatchEvaluator::emit(OpKind kind, std::uint32_t dst, std::uint32_t a,
                                   std::uint32_t b, std::uint32_t c) {
  tape_.push_back(Op{kind, dst, a, b, c});
  return dst;
}

// Shannon decomposition over the highest input: split the truth table into
// the select=0 and select=1 cofactors and recurse.  Constant cofactors
// collapse the mux into single-word gates, so LUT evaluation costs a few
// word ops per cell instead of a per-lane table index.
std::uint32_t BatchEvaluator::compile_lut(std::uint16_t mask, int arity,
                                          const std::uint32_t* inputs, std::uint32_t dst) {
  const std::uint32_t width = 1u << arity;  // truth-table entries
  const std::uint16_t all = static_cast<std::uint16_t>((width >= 16 ? 0x10000u : (1u << width)) - 1);
  const std::uint16_t m = static_cast<std::uint16_t>(mask & all);
  if (m == 0) return dst == kNoWord ? const0_word_ : emit(OpKind::kCopy, dst, const0_word_);
  if (m == all) return dst == kNoWord ? const1_word_ : emit(OpKind::kCopy, dst, const1_word_);

  const std::uint32_t half = width >> 1;  // arity >= 1 here (m not constant)
  const std::uint16_t lo_m = static_cast<std::uint16_t>(m & ((1u << half) - 1));
  const std::uint16_t hi_m = static_cast<std::uint16_t>(m >> half);
  if (lo_m == hi_m) return compile_lut(lo_m, arity - 1, inputs, dst);

  const std::uint32_t sel = inputs[arity - 1];
  const std::uint32_t lo = compile_lut(lo_m, arity - 1, inputs, kNoWord);
  const std::uint32_t hi = compile_lut(hi_m, arity - 1, inputs, kNoWord);
  const bool lo0 = lo == const0_word_, lo1 = lo == const1_word_;
  const bool hi0 = hi == const0_word_, hi1 = hi == const1_word_;

  if (lo0 && hi1) return dst == kNoWord ? sel : emit(OpKind::kCopy, dst, sel);
  const std::uint32_t d = dst == kNoWord ? new_temp() : dst;
  if (lo1 && hi0) return emit(OpKind::kNot, d, sel);
  if (lo0) return emit(OpKind::kAnd, d, sel, hi);
  if (hi0) return emit(OpKind::kAndn, d, sel, lo);  // ~sel & lo
  if (lo1) return emit(OpKind::kOrn, d, sel, hi);   // ~sel | hi
  if (hi1) return emit(OpKind::kOr, d, sel, lo);
  return emit(OpKind::kMux, d, sel, lo, hi);
}

// Longest-path level per op over the word-slot dependency graph, then a
// stable sort into level bands.  Any level order is a valid topological
// order (an op's operands are produced at strictly lower levels).  This
// is the op order every kernel sweeps.
void BatchEvaluator::build_levels() {
  std::vector<std::uint32_t> slot_level(slots_, 0);
  std::vector<std::uint32_t> op_level(tape_.size(), 0);
  for (std::size_t i = 0; i < tape_.size(); ++i) {
    const Op& op = tape_[i];
    std::uint32_t lvl = 0;
    if (op.kind == OpKind::kRom) {
      for (const std::uint32_t a : roms_[op.dst].addr) lvl = std::max(lvl, slot_level[a]);
      ++lvl;
      for (const std::uint32_t o : roms_[op.dst].out) slot_level[o] = lvl;
    } else {
      lvl = slot_level[op.a];
      if (op.kind != OpKind::kCopy && op.kind != OpKind::kNot)
        lvl = std::max(lvl, slot_level[op.b]);
      if (op.kind == OpKind::kMux) lvl = std::max(lvl, slot_level[op.c]);
      ++lvl;
      slot_level[op.dst] = lvl;
    }
    op_level[i] = lvl;
  }

  std::vector<std::uint32_t> order(tape_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return op_level[x] < op_level[y];
  });
  std::vector<Op> sorted;
  sorted.reserve(tape_.size());
  for (const std::uint32_t i : order) sorted.push_back(tape_[i]);
  tape_ = std::move(sorted);
}

void BatchEvaluator::set_bus(const Bus& b, std::size_t lane, std::uint64_t value) {
  for (std::size_t i = 0; i < b.size(); ++i) set(b[i], lane, (value >> i) & 1U);
}

std::uint64_t BatchEvaluator::get_bus(const Bus& b, std::size_t lane) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (get(b[i], lane)) v |= std::uint64_t{1} << i;
  return v;
}

void BatchEvaluator::broadcast_bus(const Bus& b, std::uint64_t value) {
  for (std::size_t i = 0; i < b.size(); ++i) broadcast(b[i], (value >> i) & 1U);
}

void BatchEvaluator::settle() {
  if (!dirty_) return;
  kern_->settle(tape_.data(), tape_.size(), words_.data(), roms_.data());
  dirty_ = false;
  ++sweeps_;
}

void BatchEvaluator::clock() {
  // Sample every enabled D first (pre-edge values in every lane), then
  // publish, then settle — Evaluator::clock() semantics, lanes() wide.
  kern_->clock_dffs(dffs_.data(), dffs_.size(), words_.data(), dff_state_.data(),
                    dff_sample_.data());
  dirty_ = true;
  settle();
}

void BatchEvaluator::reset() {
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    for (std::size_t g = 0; g < stride_; ++g) dff_state_[i * stride_ + g] = 0;
    publish_dff(i);
  }
}

void BatchEvaluator::publish_dff(std::size_t index) {
  for (std::size_t g = 0; g < stride_; ++g)
    words_[dffs_[index].q * stride_ + g] = dff_state_[index * stride_ + g];
  dirty_ = true;
}

void BatchEvaluator::flip_dff(std::size_t index) {
  for (std::size_t g = 0; g < stride_; ++g) dff_state_[index * stride_ + g] ^= ~Word{0};
  publish_dff(index);
}

void BatchEvaluator::flip_dff_lane(std::size_t index, std::size_t lane) {
  dff_state_[index * stride_ + lane / kBaseLanes] ^= Word{1} << (lane % kBaseLanes);
  publish_dff(index);
}

void BatchEvaluator::flip_dff_mask(std::size_t index, std::span<const Word> mask) {
  const std::size_t n = std::min(mask.size(), stride_);
  for (std::size_t g = 0; g < n; ++g) dff_state_[index * stride_ + g] ^= mask[g];
  publish_dff(index);
}

}  // namespace aesip::netlist
