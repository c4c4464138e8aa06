#include "netlist/batch_eval.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

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

constexpr std::size_t kBits = BatchEvaluator::kBaseLanes;  // per bitmap word

std::size_t bitmap_words(std::size_t bits) { return (bits + kBits - 1) / kBits; }

void set_bit(std::vector<BatchEvaluator::Word>& bits, std::size_t i) {
  bits[i / kBits] |= BatchEvaluator::Word{1} << (i % kBits);
}

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

BatchEvaluator::BatchEvaluator(const Netlist& nl, const BatchConfig& cfg,
                               std::span<const NetId> broadcast_pins)
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
  // A LUT output folded to a constant, as its consumers' LUTs read it.
  std::vector<std::uint32_t> tied_word(nl.net_count(), kNoWord);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.kind == CellKind::kDff) {
      dffs_.push_back(Dff{c.in[0], c.out, c.in[1] == kNoNet ? kNoWord : c.in[1],
                          static_cast<std::uint32_t>(dffs_.size())});
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
          for (int k = 0; k < c.lut_arity; ++k) {
            const NetId in = c.in[static_cast<std::size_t>(k)];
            ins[k] = tied_word[in] == kNoWord ? in : tied_word[in];
          }
          compile_lut(c.lut_mask, c.lut_arity, ins, c.out);
          if (!tied_.empty() && tied_.back().first == c.out)
            tied_word[c.out] = tied_.back().second ? const1_word_ : const0_word_;
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
  for (const Op& op : tape_) full_.push(op);
  full_.roms = roms_;
  producer_.assign(slots_, kNoWord);
  for (std::uint32_t i = 0; i < tape_.size(); ++i) {
    if (tape_[i].kind != OpKind::kRom) {
      producer_[tape_[i].dst] = i;
      continue;
    }
    for (const std::uint32_t o : roms_[tape_[i].dst].out) producer_[o] = i;
  }
  find_control(broadcast_pins);
  alias_.resize(slots_);
  std::iota(alias_.begin(), alias_.end(), 0u);
  for (const auto& [slot, value] : tied_) alias_[slot] = value ? const1_word_ : const0_word_;
  marked_.assign(slots_, 0);

  // Backend hookup.  The slot count is final only now (LUT temporaries),
  // so physical storage allocates here.
  words_.assign(slots_ * stride_, 0);
  dff_state_.assign(dffs_.size() * stride_, 0);
  kern_ = kernels_for(backend_);
  if (!kern_)  // resolve_backend() already vetted support; belt and braces
    throw std::runtime_error("netlist::BatchEvaluator: backend kernels missing");

  broadcast(const1_word_, true);
  for (const auto& [slot, value] : tied_)
    if (value) broadcast(slot, true);
  reset();
}

std::uint32_t BatchEvaluator::emit(OpKind kind, std::uint32_t dst, std::uint32_t a,
                                   std::uint32_t b, std::uint32_t c) {
  tape_.push_back(Op{kind, dst, a, b, c});
  return dst;
}

std::uint32_t BatchEvaluator::copy_into(std::uint32_t dst, std::uint32_t w) {
  if (dst == kNoWord) return w;
  if (w == const0_word_ || w == const1_word_) {
    tied_.emplace_back(dst, w == const1_word_);
    return dst;
  }
  return emit(OpKind::kCopy, dst, w);
}

// Shannon decomposition over the highest input: split the truth table into
// the select=0 and select=1 cofactors and recurse.  Constant cofactors
// collapse the mux into single-word gates, so LUT evaluation costs a few
// word ops per cell instead of a per-lane table index.  An input tied to a
// constant net selects its cofactor at compile time, so the cofactors of a
// LUT with constant inputs can come out as the same word, and a LUT can
// come out constant: its output is then tied, set once like the constant
// nets, and costs no op.
std::uint32_t BatchEvaluator::compile_lut(std::uint16_t mask, int arity,
                                          const std::uint32_t* inputs, std::uint32_t dst) {
  const std::uint32_t width = 1u << arity;  // truth-table entries
  const std::uint16_t all = static_cast<std::uint16_t>((width >= 16 ? 0x10000u : (1u << width)) - 1);
  const std::uint16_t m = static_cast<std::uint16_t>(mask & all);
  if (m == 0) return copy_into(dst, const0_word_);
  if (m == all) return copy_into(dst, const1_word_);

  const std::uint32_t half = width >> 1;  // arity >= 1 here (m not constant)
  const std::uint16_t lo_m = static_cast<std::uint16_t>(m & ((1u << half) - 1));
  const std::uint16_t hi_m = static_cast<std::uint16_t>(m >> half);
  const std::uint32_t sel = inputs[arity - 1];
  if (lo_m == hi_m || sel == const0_word_) return compile_lut(lo_m, arity - 1, inputs, dst);
  if (sel == const1_word_) return compile_lut(hi_m, arity - 1, inputs, dst);

  const std::uint32_t lo = compile_lut(lo_m, arity - 1, inputs, kNoWord);
  const std::uint32_t hi = compile_lut(hi_m, arity - 1, inputs, kNoWord);
  // Cofactors that differ only where a constant input can never select
  // them compile to the same word: the select does not matter.
  if (lo == hi) return copy_into(dst, lo);
  const bool lo0 = lo == const0_word_, lo1 = lo == const1_word_;
  const bool hi0 = hi == const0_word_, hi1 = hi == const1_word_;

  if (lo0 && hi1) return copy_into(dst, sel);
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
// order (an op's operands are produced at strictly lower levels), so the
// ops of a band may go in any order: same-kind ops are made adjacent, in
// ascending kind order on even bands and descending on odd ones, so a
// band's last run can continue into the next band.  This is the op order
// every program keeps.
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
  const auto band_key = [&](std::uint32_t i) {
    const auto kind = static_cast<std::uint32_t>(tape_[i].kind);
    return std::pair{op_level[i], op_level[i] % 2 ? ~kind : kind};
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) { return band_key(x) < band_key(y); });
  std::vector<Op> sorted;
  sorted.reserve(tape_.size());
  for (const std::uint32_t i : order) sorted.push_back(tape_[i]);
  tape_ = std::move(sorted);
}

// The control state: the broadcast pins plus the control flip-flops, the
// greatest set of flip-flops whose D and enable are functions of the pins,
// the constants and each other.  Start from every flip-flop and drop the
// ones whose D or enable reads a non-uniform slot until nothing changes.
// A slot is uniform when every lane holds the same value whenever the
// control sources do: constants, pins, control Qs and ops over them.
void BatchEvaluator::find_control(std::span<const NetId> broadcast_pins) {
  sources_.assign(bitmap_words(slots_), 0);
  set_bit(sources_, const0_word_);
  set_bit(sources_, const1_word_);
  for (const auto& t : tied_) set_bit(sources_, t.first);
  for (const auto& pi : nl_.inputs()) set_bit(sources_, pi.net);
  for (const Dff& f : dffs_) set_bit(sources_, f.q);
  for (const NetId pin : broadcast_pins) {
    if (std::none_of(nl_.inputs().begin(), nl_.inputs().end(),
                     [&](const Netlist::PortBit& pi) { return pi.net == pin; }))
      throw std::invalid_argument("netlist::BatchEvaluator: broadcast pin " +
                                  std::to_string(pin) + " is not a primary input");
    control_slots_.push_back(pin);
  }

  auto op_uniform = [&](const Op& op) {
    if (op.kind == OpKind::kRom)
      return std::all_of(std::begin(roms_[op.dst].addr), std::end(roms_[op.dst].addr),
                         [&](std::uint32_t a) { return uniform_[a]; });
    bool u = uniform_[op.a];
    if (op.kind != OpKind::kCopy && op.kind != OpKind::kNot) u = u && uniform_[op.b];
    if (op.kind == OpKind::kMux) u = u && uniform_[op.c];
    return u;
  };
  std::vector<std::uint8_t> control(dffs_.size(), 1);
  for (bool changed = true; changed;) {
    uniform_.assign(slots_, false);
    uniform_[const0_word_] = uniform_[const1_word_] = true;
    for (const auto& t : tied_) uniform_[t.first] = true;
    for (const std::uint32_t pin : control_slots_) uniform_[pin] = true;
    for (std::size_t i = 0; i < dffs_.size(); ++i)
      if (control[i]) uniform_[dffs_[i].q] = true;
    for (const Op& op : tape_) {
      if (!op_uniform(op)) continue;
      if (op.kind == OpKind::kRom)
        for (const std::uint32_t o : roms_[op.dst].out) uniform_[o] = true;
      else
        uniform_[op.dst] = true;
    }
    changed = false;
    for (std::size_t i = 0; i < dffs_.size(); ++i) {
      const Dff& f = dffs_[i];
      if (control[i] && (!uniform_[f.d] || (f.enable != kNoWord && !uniform_[f.enable]))) {
        control[i] = 0;
        changed = true;
      }
    }
  }
  for (std::uint32_t i = 0; i < dffs_.size(); ++i)
    if (control[i]) {
      control_dffs_.push_back(i);
      control_slots_.push_back(dffs_[i].q);
    }
  key_.assign(bitmap_words(control_slots_.size()), 0);

  // The decisions: uniform operands that can cut a datapath operand out
  // of the cone, and uniform enables.
  std::vector<std::uint8_t> decides(slots_, 0);
  for (std::uint32_t i = 0; i < tape_.size(); ++i) {
    const Op& op = tape_[i];
    if (op_uniform(op)) {
      uniform_ops_.push_back(i);
      continue;
    }
    switch (op.kind) {
      case OpKind::kAnd:
      case OpKind::kAndn:
      case OpKind::kOr:
      case OpKind::kOrn:
        decides[op.a] |= uniform_[op.a];
        decides[op.b] |= uniform_[op.b];
        break;
      case OpKind::kMux:
        decides[op.a] |= uniform_[op.a];
        break;
      default:
        break;
    }
  }
  for (const Dff& f : dffs_)
    if (f.enable != kNoWord && uniform_[f.enable]) decides[f.enable] = 1;
  for (std::uint32_t s = 0; s < slots_; ++s)
    if (decides[s]) decision_slots_.push_back(s);
  // What one new state can add to the cache at most: its key and control
  // values, a new decision key and a new program.  A program's ops are a
  // folded subsequence of the tape's, so its operands take no more words
  // than the whole tape's; a fold that turns an XOR, ANDN or ORN into a
  // NOT can split a run in three, so its runs are at most the whole
  // tape's plus two for each such op.  Its clock list, root table and
  // control list name each flip-flop, D, enable, output and control slot
  // at most once.
  std::size_t controls = 0;  // uniform slots that are not sources: what a state may write
  for (std::uint32_t s = 0; s < slots_; ++s)
    controls += uniform_[s] && !(sources_[s / kBits] >> (s % kBits) & 1U);
  std::size_t splits = 0;
  for (const Op& op : tape_)
    splits += op.kind == OpKind::kXor || op.kind == OpKind::kAndn || op.kind == OpKind::kOrn;
  const std::size_t runs = std::min(tape_.size(), full_.runs.size() + 2 * splits);
  max_state_bytes_ =
      (key_.size() + bitmap_words(controls) + bitmap_words(decision_slots_.size()) +
       bitmap_words(tape_.size()) + bitmap_words(dffs_.size()) + bitmap_words(slots_)) *
          sizeof(Word) +
      runs * sizeof(batchdetail::Run) + full_.args.size() * sizeof(std::uint32_t) +
      roms_.size() * sizeof(RomSpec) + dffs_.size() * sizeof(Dff) +
      (2 * dffs_.size() + nl_.outputs().size()) * sizeof(std::pair<std::uint32_t, std::uint32_t>) +
      controls * sizeof(std::uint32_t) + sizeof(Cone) + sizeof(const ConeProgram*) +
      sizeof(ConeProgram);
}

const BatchEvaluator::Cone* BatchEvaluator::current_cone() {
  std::fill(key_.begin(), key_.end(), Word{0});
  for (std::size_t i = 0; i < control_slots_.size(); ++i) {
    const Word* w = words_.data() + std::size_t{control_slots_[i]} * stride_;
    bool split = w[0] != 0 && w[0] != ~Word{0};
    for (std::size_t g = 1; g < stride_; ++g) split |= w[g] != w[0];
    if (split) {
      ++lane_divergences_;
      return nullptr;
    }
    key_[i / kBaseLanes] |= (w[0] & 1U) << (i % kBaseLanes);
  }
  auto it = by_state_.find(key_);
  if (it == by_state_.end()) {
    // A full cache takes no new state: it is swept whole, uncached.
    if (cache_bytes_ + max_state_bytes_ > kMaxCacheBytes) {
      ++uncached_sweeps_;
      return nullptr;
    }
    Cone cone = build_cone();
    cache_bytes_ += (key_.size() + cone.control.size()) * sizeof(Word) + sizeof(Cone);
    it = by_state_.emplace(key_, std::move(cone)).first;
  }
  return &it->second;
}

// A new control state: evaluate the control network in scalar (one byte
// per slot, no lane-wide sweep), read off the decisions, find the program
// of the live sets they make (walking the tape only when no earlier state
// made the same ones), and keep the values of the control slots that
// program reads.
BatchEvaluator::Cone BatchEvaluator::build_cone() {
  std::vector<std::uint8_t> v(slots_, 0);
  v[const1_word_] = 1;
  for (const auto& [slot, value] : tied_) v[slot] = value;
  for (std::size_t i = 0; i < control_slots_.size(); ++i)
    v[control_slots_[i]] = key_[i / kBaseLanes] >> (i % kBaseLanes) & 1U;
  for (const std::uint32_t i : uniform_ops_) {
    const Op& op = tape_[i];
    switch (op.kind) {
      case OpKind::kRom: {
        const RomSpec& r = roms_[op.dst];
        unsigned addr = 0;
        for (int k = 0; k < 8; ++k) addr |= unsigned{v[r.addr[k]]} << k;
        for (int k = 0; k < 8; ++k) v[r.out[k]] = r.table[addr] >> k & 1U;
        break;
      }
      case OpKind::kCopy: v[op.dst] = v[op.a]; break;
      case OpKind::kNot: v[op.dst] = v[op.a] ^ 1U; break;
      case OpKind::kAnd: v[op.dst] = v[op.a] & v[op.b]; break;
      case OpKind::kAndn: v[op.dst] = (v[op.a] ^ 1U) & v[op.b]; break;
      case OpKind::kOr: v[op.dst] = v[op.a] | v[op.b]; break;
      case OpKind::kOrn: v[op.dst] = (v[op.a] ^ 1U) | v[op.b]; break;
      case OpKind::kXor: v[op.dst] = v[op.a] ^ v[op.b]; break;
      case OpKind::kMux: v[op.dst] = v[op.a] ? v[op.c] : v[op.b]; break;
    }
  }
  std::vector<Word> decisions(bitmap_words(decision_slots_.size()), 0);
  for (std::size_t i = 0; i < decision_slots_.size(); ++i)
    if (v[decision_slots_[i]]) set_bit(decisions, i);
  auto it = by_decisions_.find(decisions);
  if (it == by_decisions_.end()) {
    const ConeProgram* program = live_program(v);
    cache_bytes_ += decisions.size() * sizeof(Word) + sizeof(const ConeProgram*);
    it = by_decisions_.emplace(std::move(decisions), program).first;
  }
  const ConeProgram* program = it->second;
  Cone cone{program, std::vector<Word>(bitmap_words(program->control.size()), 0)};
  for (std::size_t i = 0; i < program->control.size(); ++i)
    if (v[program->control[i]]) set_bit(cone.control, i);
  return cone;
}

// Roots: the D and enable of every flip-flop not disabled in state `v`,
// and the primary outputs.  One backward pass over the (topologically
// ordered) tape collects the datapath ops they need; control ops are
// left out, since the state's values stand in for them.
const BatchEvaluator::ConeProgram* BatchEvaluator::live_program(
    const std::vector<std::uint8_t>& v) {
  std::vector<std::uint8_t> need(slots_, 0);
  const std::size_t op_bits = bitmap_words(tape_.size()) * kBits;
  std::vector<Word> key(bitmap_words(tape_.size()) + bitmap_words(dffs_.size()), 0);
  for (std::uint32_t i = 0; i < dffs_.size(); ++i) {
    const Dff& f = dffs_[i];
    if (f.enable != kNoWord && uniform_[f.enable] && !v[f.enable]) continue;
    set_bit(key, op_bits + i);
    need[f.d] = 1;
    if (f.enable != kNoWord) need[f.enable] = 1;
  }
  for (const auto& po : nl_.outputs()) need[po.net] = 1;
  // A two-input op needs only operand `a` when it is uniform and holds
  // `a_decides` (say an AND's 0), only `b` likewise, else both.
  auto follow = [&](const Op& op, std::uint8_t a_decides, std::uint8_t b_decides) {
    if (uniform_[op.a] && v[op.a] == a_decides) {
      need[op.a] = 1;
    } else if (uniform_[op.b] && v[op.b] == b_decides) {
      need[op.b] = 1;
    } else {
      need[op.a] = need[op.b] = 1;
    }
  };
  for (std::size_t i = tape_.size(); i-- > 0;) {
    const Op& op = tape_[i];
    if (op.kind == OpKind::kRom) {
      const RomSpec& r = roms_[op.dst];
      if (uniform_[r.out[0]] || std::none_of(std::begin(r.out), std::end(r.out),
                                             [&](std::uint32_t o) { return need[o] != 0; }))
        continue;
      for (const std::uint32_t a : r.addr) need[a] = 1;
      set_bit(key, i);
      continue;
    }
    if (!need[op.dst] || uniform_[op.dst]) continue;
    set_bit(key, i);
    switch (op.kind) {
      case OpKind::kCopy:
      case OpKind::kNot: need[op.a] = 1; break;
      case OpKind::kXor: need[op.a] = need[op.b] = 1; break;
      case OpKind::kAnd: follow(op, 0, 0); break;
      case OpKind::kAndn: follow(op, 1, 0); break;  // ~a & b
      case OpKind::kOr: follow(op, 1, 1); break;
      case OpKind::kOrn: follow(op, 0, 1); break;   // ~a | b
      case OpKind::kMux:
        need[op.a] = 1;
        if (uniform_[op.a]) {
          need[v[op.a] ? op.c : op.b] = 1;
        } else {
          need[op.b] = need[op.c] = 1;
        }
        break;
      case OpKind::kRom: break;  // handled above
    }
  }

  auto it = programs_.find(key);
  if (it == programs_.end()) {
    ConeProgram p = compile_cone(key);
    cache_bytes_ += (key.size() + p.fresh.size()) * sizeof(Word) + p.program.bytes() +
                    p.clock.size() * sizeof(Dff) + p.roots.size() * sizeof(p.roots[0]) +
                    p.control.size() * sizeof(std::uint32_t) + sizeof(ConeProgram);
    it = programs_.emplace(std::move(key), std::move(p)).first;
  }
  return &it->second;
}

// Compile one live op set and flip-flop list, walking only its ops in
// tape order.  alias_ maps each slot to the slot holding its value; an op
// the set implies, or one over a constant, only sets its destination's
// alias (or becomes a NOT), and every later op reads through the aliases.
// Every state this program serves made the walk above pick the same
// ops, so where it cut a datapath operand out — a MUX leg, an AND's or
// OR's non-deciding operand — the control operand facing it decided the
// op the same way in all of them.
BatchEvaluator::ConeProgram BatchEvaluator::compile_cone(const std::vector<Word>& key) {
  const std::uint32_t k0 = const0_word_;
  const std::uint32_t k1 = const1_word_;
  const auto has = [](const std::vector<Word>& bits, std::size_t i) {
    return (bits[i / kBits] >> (i % kBits) & 1U) != 0;
  };
  const auto computed = [&](std::uint32_t s) {
    return uniform_[s] || producer_[s] == kNoWord || has(key, producer_[s]);
  };
  ConeProgram p;
  p.fresh = sources_;
  // A control slot the sweep reads: each state writes it.
  const auto read = [&](std::uint32_t s) {
    if (uniform_[s] && !marked_[s] && !has(sources_, s)) {
      marked_[s] = 1;
      p.control.push_back(s);
    }
    return s;
  };
  const auto alias = [&](std::uint32_t dst, std::uint32_t s) {
    alias_[dst] = s;
    touched_.push_back(dst);
  };
  const auto put = [&](OpKind kind, std::uint32_t dst, std::uint32_t a, std::uint32_t b = 0,
                       std::uint32_t c = 0) {
    Op op{kind, dst, read(a)};
    if (kind != OpKind::kNot) op.b = read(b);
    if (kind == OpKind::kMux) op.c = read(c);
    p.program.push(op);
    set_bit(p.fresh, dst);
  };
  const auto invert = [&](std::uint32_t dst, std::uint32_t s) {
    if (s == k0 || s == k1) {
      alias(dst, s == k0 ? k1 : k0);
    } else {
      put(OpKind::kNot, dst, s);
    }
  };
  const auto root = [&](std::uint32_t net, std::uint32_t s) {
    if (s != net) p.roots.emplace_back(net, read(s));
  };

  const std::size_t op_words = bitmap_words(tape_.size());
  for (std::size_t w = 0; w < op_words; ++w) {
    for (Word bits = key[w]; bits != 0; bits &= bits - 1) {
      const Op& op = tape_[w * kBits + static_cast<std::size_t>(std::countr_zero(bits))];
      if (op.kind == OpKind::kRom) {
        RomSpec r = roms_[op.dst];
        for (std::uint32_t& a : r.addr) a = read(alias_[a]);
        for (const std::uint32_t o : r.out) set_bit(p.fresh, o);
        p.program.push(Op{OpKind::kRom, static_cast<std::uint32_t>(p.program.roms.size())});
        p.program.roms.push_back(r);
        continue;
      }
      const std::uint32_t a = alias_[op.a];
      const std::uint32_t b = alias_[op.b];
      const std::uint32_t c = alias_[op.c];
      // An AND/OR/ANDN/ORN whose control operand faces a datapath operand
      // the set does not compute: the control operand decided it.
      const auto implied = [&] {
        return (uniform_[op.a] && !computed(op.b)) || (uniform_[op.b] && !computed(op.a));
      };
      switch (op.kind) {
        case OpKind::kCopy: alias(op.dst, a); break;
        case OpKind::kNot: invert(op.dst, a); break;
        case OpKind::kAnd:
          if (a == k0 || b == k0 || implied()) {
            alias(op.dst, k0);
          } else if (a == k1 || b == k1) {
            alias(op.dst, a == k1 ? b : a);
          } else {
            put(op.kind, op.dst, a, b);
          }
          break;
        case OpKind::kAndn:  // ~a & b
          if (a == k1 || b == k0 || implied()) {
            alias(op.dst, k0);
          } else if (a == k0) {
            alias(op.dst, b);
          } else if (b == k1) {
            invert(op.dst, a);
          } else {
            put(op.kind, op.dst, a, b);
          }
          break;
        case OpKind::kOr:
          if (a == k1 || b == k1 || implied()) {
            alias(op.dst, k1);
          } else if (a == k0 || b == k0) {
            alias(op.dst, a == k0 ? b : a);
          } else {
            put(op.kind, op.dst, a, b);
          }
          break;
        case OpKind::kOrn:  // ~a | b
          if (a == k0 || b == k1 || implied()) {
            alias(op.dst, k1);
          } else if (a == k1) {
            alias(op.dst, b);
          } else if (b == k0) {
            invert(op.dst, a);
          } else {
            put(op.kind, op.dst, a, b);
          }
          break;
        case OpKind::kXor:
          if (a == k0 || b == k0) {
            alias(op.dst, a == k0 ? b : a);
          } else if (a == k1 || b == k1) {
            invert(op.dst, a == k1 ? b : a);
          } else if (a == b) {
            alias(op.dst, k0);
          } else {
            put(op.kind, op.dst, a, b);
          }
          break;
        case OpKind::kMux:  // a ? c : b
          if (a == k0 || (uniform_[op.a] && !computed(op.c))) {
            alias(op.dst, b);
          } else if (a == k1 || (uniform_[op.a] && !computed(op.b)) || b == c) {
            alias(op.dst, c);
          } else {
            put(op.kind, op.dst, a, b, c);
          }
          break;
        case OpKind::kRom: break;  // handled above
      }
    }
  }

  // The clock list.  A control enable is 1 in every state the program
  // serves (a 0 would have left the flip-flop out of the live set).
  std::vector<Dff> held;
  for (std::size_t w = op_words; w < key.size(); ++w) {
    for (Word bits = key[w]; bits != 0; bits &= bits - 1) {
      const auto i = static_cast<std::uint32_t>((w - op_words) * kBits +
                                                 static_cast<std::size_t>(std::countr_zero(bits)));
      const Dff& f = dffs_[i];
      Dff e{alias_[f.d], f.q, kNoWord, i};
      root(f.d, e.d);
      if (f.enable != kNoWord) {
        const std::uint32_t en = uniform_[f.enable] ? k1 : alias_[f.enable];
        root(f.enable, en);
        if (en != k1) e.enable = en;
      }
      if (e.d == f.q || e.enable == k0) {
        held.push_back(e);
      } else {
        read(e.d);
        if (e.enable != kNoWord) read(e.enable);
        p.clock.push_back(e);
      }
    }
  }
  p.clocked = p.clock.size();
  p.clock.insert(p.clock.end(), held.begin(), held.end());
  for (const auto& po : nl_.outputs()) root(po.net, read(alias_[po.net]));

  for (const std::uint32_t s : p.control) {
    set_bit(p.fresh, s);
    marked_[s] = 0;
  }
  for (const std::uint32_t s : touched_) alias_[s] = s;
  touched_.clear();
  std::sort(p.roots.begin(), p.roots.end());
  p.roots.erase(std::unique(p.roots.begin(), p.roots.end()), p.roots.end());
  std::erase_if(p.roots, [&](const auto& r) { return has(p.fresh, r.first); });
  p.program.runs.shrink_to_fit();
  p.program.args.shrink_to_fit();
  p.program.roms.shrink_to_fit();
  p.clock.shrink_to_fit();
  p.roots.shrink_to_fit();
  p.control.shrink_to_fit();
  return p;
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
  if (dirty_) sweep();
}

void BatchEvaluator::clock() {
  // Sample the live Ds first (pre-edge values in every lane, as the last
  // sweep left them), then publish, then settle — Evaluator::clock()
  // semantics, lanes() wide.  After a mutator froze the last program's
  // folded values into their home slots, the edge reads those slots, and
  // the flip-flops that hold sample too: a Q that changed since the sweep
  // no longer equals the D it folded to.
  std::span<const Dff> live = dffs_;
  if (cone_) {
    const ConeProgram& p = *cone_->program;
    live = std::span<const Dff>(p.clock.data(), p.clocked);
    if (dirty_) {
      frozen_clock_.clear();
      for (const Dff& e : p.clock) {
        const Dff& f = dffs_[e.index];
        frozen_clock_.push_back(Dff{f.d, f.q, e.enable == kNoWord ? kNoWord : f.enable, f.index});
      }
      live = frozen_clock_;
    }
  }
  kern_->clock_dffs(live.data(), live.size(), words_.data(), dff_state_.data());
  dffs_clocked_ += live.size();
  sweep();
}

void BatchEvaluator::sweep() {
  cone_ = current_cone();
  if (!cone_) {
    full_sweep();
    return;
  }
  const ConeProgram& p = *cone_->program;
  for (std::size_t i = 0; i < p.control.size(); ++i)
    fill(p.control[i], cone_->control[i / kBits] >> (i % kBits) & 1U);
  kern_->settle(p.program, words_.data());
  ++sweeps_;
  ops_executed_ += p.program.ops;
  stale_ = true;
  dirty_ = false;
}

void BatchEvaluator::full_sweep() const {
  // A mutator since the last sweep may have moved the control state, so
  // the next edge clocks every flip-flop.
  if (dirty_) cone_ = nullptr;
  kern_->settle(full_, words_.data());
  ++sweeps_;
  ops_executed_ += full_.ops;
  stale_ = false;
  dirty_ = false;
}

std::uint32_t BatchEvaluator::stale_slot(NetId n) const {
  // A folded net reads its root, or its home slot once a mutator froze it.
  const auto& roots = cone_->program->roots;
  const auto it = std::lower_bound(roots.begin(), roots.end(), std::pair{n, std::uint32_t{0}});
  if (it != roots.end() && it->first == n) return dirty_ ? n : it->second;
  full_sweep();
  return n;
}

void BatchEvaluator::freeze() {
  if (!cone_) return;
  for (const auto& [net, slot] : cone_->program->roots)
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(slot * stride_), stride_,
                words_.begin() + static_cast<std::ptrdiff_t>(net * stride_));
}

void BatchEvaluator::reset() {
  touch();
  std::fill(dff_state_.begin(), dff_state_.end(), Word{0});
  for (std::size_t i = 0; i < dffs_.size(); ++i) publish_dff(i);
}

void BatchEvaluator::publish_dff(std::size_t index) {
  for (std::size_t g = 0; g < stride_; ++g)
    words_[dffs_[index].q * stride_ + g] = dff_state_[index * stride_ + g];
}

void BatchEvaluator::flip_dff(std::size_t index) {
  touch();
  for (std::size_t g = 0; g < stride_; ++g) dff_state_[index * stride_ + g] ^= ~Word{0};
  publish_dff(index);
}

void BatchEvaluator::flip_dff_lane(std::size_t index, std::size_t lane) {
  touch();
  dff_state_[index * stride_ + lane / kBaseLanes] ^= Word{1} << (lane % kBaseLanes);
  publish_dff(index);
}

void BatchEvaluator::flip_dff_mask(std::size_t index, std::span<const Word> mask) {
  touch();
  const std::size_t n = std::min(mask.size(), stride_);
  for (std::size_t g = 0; g < n; ++g) dff_state_[index * stride_ + g] ^= mask[g];
  publish_dff(index);
}

}  // namespace aesip::netlist
