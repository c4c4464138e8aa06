// Bit-parallel netlist evaluator: 64-512 independent simulations per pass.
//
// The scalar Evaluator walks the levelized cell list interpreting one cell
// at a time for one set of net values — fine as a correctness oracle, far
// too slow for netlist-backed farm traffic or large fault campaigns.  This
// evaluator applies the classic SIMD-within-a-register trick (Biham's "A
// Fast New DES Implementation in Software"): each net holds a *lane word*
// whose bit L is that net's value in simulation lane L, so one bitwise op
// advances that many independent blocks at once.
//
// The lane word is no longer a fixed uint64_t.  At construction the
// evaluator resolves a BatchBackend (batch_backend.hpp) — AVX-512 (512
// lanes), AVX2 (256), NEON (128) or the portable uint64 fallback (64) —
// and sizes every net at `stride()` consecutive uint64 words
// (lanes() = 64 * stride()).  Backend selection
// is runtime CPUID dispatch, overridable via AESIP_BATCH_BACKEND or
// BatchConfig::backend; all backends interpret the SAME compiled tape and
// are bit-exact against the scalar oracle (tests/test_netlist_batch.cpp
// runs the conformance suite once per backend).
//
// The netlist is compiled ONCE at construction into a flat tape of
// word-level ops (batch_tape.hpp):
//
//   * NOT/AND2/OR2/XOR2 become single word ops; MUX2 becomes one kMux.
//   * kLut cells are expanded at compile time into their mux/sum-of-products
//     tree by Shannon decomposition over the LUT mask — constant cofactors
//     collapse into AND/ANDN/OR/ORN/NOT/COPY, so a typical 4-LUT costs a
//     handful of word ops and no per-bit truth-table indexing at runtime.
//   * ROM macros (the 256x8 S-box) stay byte lookups via a transposed
//     gather; the vector backends use fast gathers (AVX-512 byte masks /
//     8x8 bit-matrix transposes) while the u64 baseline keeps the original
//     per-lane loop.
//   * DFF state is kept as packed lane words; clock() samples every enabled
//     D (per-lane enable masking) as it stands, publishes Q, then settles —
//     the same pre-edge semantics as Evaluator::clock().
//
// The tape is then stably sorted by levelization band, and within a band
// by op kind.  A sweep runs one compiled Program (batch_tape.hpp): a
// subset of the tape in tape order, its operands packed densely and its
// ops grouped into runs of one kind, which the kernels loop over with no
// per-op dispatch.  Sweeps are single-threaded: the parallelism is the
// lanes, not cores.  Lane words and flip-flop state are 64-byte aligned,
// so no vector access splits a cache line.
//
// Live-cone sweeps.  The broadcast pins a driver names at construction
// (the IP's setup/wr_data/wr_key/encdec) drive every lane alike, and so do
// the *control* flip-flops: those whose D and enable depend only on
// constants, those pins and other control flip-flops (a fixed point over
// the tape).  Their lane-0 bits are one control state.  Every *control*
// net — one computed from the control state alone — then holds the same
// value in every lane, so a sweep does not compute it: a new state is
// evaluated once in scalar (one byte per slot), and its sweep writes the
// control nets its program, its flip-flops and the outputs read as
// broadcast words.  The program holds only datapath ops: those of the
// live cone, which feeds the D and enable of every flip-flop whose
// enable is not 0 in that state, and the primary outputs.  Where a MUX,
// AND, OR, ANDN or ORN has a control operand facing a datapath operand,
// the cone follows only the operand that decides the value.
//
// A cone program is compiled once per live op set and live flip-flop
// list, and what the set implies folds away: a MUX with a control select
// whose other leg the set does not compute takes the leg it does; an
// AND/OR/ANDN/ORN whose control operand faces an uncomputed datapath
// operand is the deciding constant; a COPY, an XOR with a constant and
// any op over a folded constant become an alias of another slot (or a
// NOT); and a flip-flop whose D folds to its own Q holds, so it leaves
// the clock list.  A folded net's home slot is not written: the program's
// root table names the slot that holds each folded D, enable and output,
// so reads of them never cost a sweep.  States are cached keyed through
// the *decisions* they make (a scalar evaluation of the control network,
// no lane-wide sweep); states with the same live sets share one program
// and keep only their control values.  The whole tape is a program too,
// built at construction.  A sweep whose pins or control flip-flops
// differ between lanes (a per-lane set() of a pin, flip_dff_lane() on a
// control flip-flop) runs the whole tape instead and counts a
// lane_divergences().  The cache holds at most kMaxCacheBytes; once full,
// a state it does not hold is swept whole too, and counts an
// uncached_sweeps().
//
// The network therefore holds *stale* nets outside the last cone.  Reads
// hide them: word(), get() and get_bus() of a net that the last sweep did
// not write, and that its root table does not name, run one full sweep
// first, so every read sees the network settled on its current inputs.
// Primary inputs, constants, flip-flop Qs and primary outputs are always
// current.  A settle() or clock() sweeps only when some mutator (set*,
// broadcast*, reset, the flip_dff family, clock) has run since the last
// sweep, so the drivers' `settle(); clock();` costs one sweep per clock
// edge, not two.  clock() samples each D as the last sweep left it: the
// first mutator after a sweep copies the last program's folded D, enable
// and output values into their home slots before it changes anything, so
// an edge taken without a settle samples what a full sweep would have
// left there.
//
// A combinational cycle is rejected at construction exactly like the scalar
// evaluator.  The scalar evaluator remains the oracle and keeps the
// single-lane SEU flip_dff path.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "netlist/batch_backend.hpp"
#include "netlist/batch_tape.hpp"
#include "netlist/netlist.hpp"

namespace aesip::netlist::batchdetail {
struct Kernels;
}  // namespace aesip::netlist::batchdetail

namespace aesip::netlist {

class BatchEvaluator {
 public:
  using Word = std::uint64_t;
  /// Lanes per uint64 word; lanes() is a multiple of this.
  static constexpr std::size_t kBaseLanes = 64;
  /// Bound on cache_bytes(): about 1.8x the largest cache the 128-bit
  /// round-engine family builds (2.3 MB, unroll-lut after an encrypt and
  /// a decrypt pass; docs/variants.md) and 1.3x the largest at any key
  /// size (3.2 MB, unroll-lut@256).
  static constexpr std::size_t kMaxCacheBytes = std::size_t{4} << 20;

  /// Compile `nl` and resolve the backend (throws std::runtime_error if
  /// an explicitly requested backend is unknown or unsupported on this
  /// host, or if the netlist has a combinational cycle).
  /// `broadcast_pins` names the primary inputs the caller drives alike in
  /// every lane (throws std::invalid_argument for a net that is not a
  /// primary input); they and the flip-flops they alone steer make up the
  /// control state that prunes each sweep.
  explicit BatchEvaluator(const Netlist& nl, const BatchConfig& cfg = {},
                          std::span<const NetId> broadcast_pins = {});
  BatchEvaluator(const BatchEvaluator&) = delete;
  BatchEvaluator& operator=(const BatchEvaluator&) = delete;

  // --- width / dispatch introspection -----------------------------------------
  /// The backend this evaluator resolved to (reported by aesip metrics,
  /// FarmStats and BENCH_simspeed).
  BatchBackend backend() const noexcept { return backend_; }
  /// Independent simulation lanes per pass (64 x stride()).
  std::size_t lanes() const noexcept { return stride_ * kBaseLanes; }
  /// uint64 words per net — the backend's vector width.
  std::size_t stride() const noexcept { return stride_; }

  // --- whole-word access (64 lanes per word index) ----------------------------
  /// Lane word `wi` of net `n`: bit L = the value in lane 64*wi + L.
  Word word(NetId n, std::size_t wi = 0) const { return words_[slot_of(n) * stride_ + wi]; }
  void set_word(NetId n, Word w, std::size_t wi = 0) {
    touch();
    words_[n * stride_ + wi] = w;
  }
  /// Drive net `n` to the same value in every lane.
  void broadcast(NetId n, bool v) {
    touch();
    fill(n, v);
  }
  void broadcast_bus(const Bus& b, std::uint64_t value);

  // --- per-lane access --------------------------------------------------------
  void set(NetId n, std::size_t lane, bool v) {
    touch();
    Word& w = words_[n * stride_ + lane / kBaseLanes];
    const Word bit = Word{1} << (lane % kBaseLanes);
    w = v ? (w | bit) : (w & ~bit);
  }
  bool get(NetId n, std::size_t lane) const {
    return (words_[slot_of(n) * stride_ + lane / kBaseLanes] >> (lane % kBaseLanes)) & 1U;
  }
  /// Drive a bus (bit 0 = LSB) in one lane from an integer.
  void set_bus(const Bus& b, std::size_t lane, std::uint64_t value);
  std::uint64_t get_bus(const Bus& b, std::size_t lane) const;

  // --- simulation -------------------------------------------------------------
  /// Propagate the inputs through the live cone of the current control
  /// state (call after changing inputs).  Free when nothing changed since
  /// the last sweep: only the mutators above and below mark the network
  /// dirty.  Nets outside the cone are settled by the first read that
  /// needs them.
  void settle();
  /// Rising clock edge in every lane: each live DFF whose enable is true in
  /// a lane samples its D in that lane; then the network settles (always
  /// one sweep — publishing Q marks it dirty).  D is read as the last
  /// sweep left it: call settle() first after changing inputs.
  void clock();
  /// Clear all flip-flop state to zero in every lane (no settle — mirrors
  /// the scalar evaluator).
  void reset();

  // --- fault injection --------------------------------------------------------
  /// Flip the DFF state at `index` in EVERY lane and republish Q — the
  /// batch twin of Evaluator::flip_dff, for SEU campaigns and live chaos
  /// injection.  The caller settles, exactly like the scalar evaluator.
  void flip_dff(std::size_t index);
  /// Flip one lane only (per-lane SEU injection at any width; lane-0 flips
  /// track the scalar oracle bit for bit while other lanes stay clean).
  void flip_dff_lane(std::size_t index, std::size_t lane);
  /// Flip an arbitrary lane set: bit L of mask[wi] flips lane 64*wi + L.
  /// Words beyond mask.size() are untouched.
  void flip_dff_mask(std::size_t index, std::span<const Word> mask);

  // --- inspection -------------------------------------------------------------
  std::size_t dff_count() const noexcept { return dffs_.size(); }
  /// Indices (as flip_dff takes them) of the control flip-flops.
  const std::vector<std::uint32_t>& control_dffs() const noexcept { return control_dffs_; }
  /// Word ops in the compiled tape (compile-quality metric for benches).
  std::size_t tape_size() const noexcept { return tape_.size(); }
  /// Net words plus LUT-expansion temporaries (per lane word; the physical
  /// footprint is word_count() * stride()).
  std::size_t word_count() const noexcept { return slots_; }
  /// Tape sweeps run since construction, pruned or full (settles that
  /// found the network unchanged are not counted).
  std::uint64_t sweeps() const noexcept { return sweeps_; }
  /// Tape ops those sweeps executed.
  std::uint64_t ops_executed() const noexcept { return ops_executed_; }
  /// Flip-flop samples the clock edges took (live flip-flops per edge,
  /// less those whose D folds to their own Q).
  std::uint64_t dffs_clocked() const noexcept { return dffs_clocked_; }
  /// Sweeps that found the control state differing between lanes and so
  /// ran the whole tape.
  std::uint64_t lane_divergences() const noexcept { return lane_divergences_; }
  /// Sweeps of a control state the full cache could not take, run whole.
  std::uint64_t uncached_sweeps() const noexcept { return uncached_sweeps_; }
  /// Bytes held by the control-state cache: each cone program (its ops,
  /// ROM specs, clock list, root table, control slot list, fresh bitmap
  /// and key), each state's key and control values, and the decision
  /// keys (at most kMaxCacheBytes).
  std::size_t cache_bytes() const noexcept { return cache_bytes_; }

 private:
  using Op = batchdetail::Op;
  using OpKind = batchdetail::OpKind;
  using Dff = batchdetail::Dff;
  using RomSpec = batchdetail::RomSpec;
  using Program = batchdetail::Program;
  static constexpr std::uint32_t kNoWord = batchdetail::kNoWord;

  /// One live op set and live flip-flop list, compiled once.
  struct ConeProgram {
    Program program;  ///< the datapath ops left after the folds
    /// The live flip-flops, D and enable read through `roots`; those that
    /// hold (D folds to Q, or the enable to 0) come last.
    std::vector<Dff> clock;
    std::size_t clocked = 0;  ///< clock[0, clocked) sample at an edge
    /// (net, slot holding its value) for each folded D, enable and
    /// output net, by net.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> roots;
    std::vector<std::uint32_t> control;  ///< control slots it reads: each state writes them
    std::vector<Word> fresh;             ///< bitmap: slots current after its sweep
  };
  /// One control state: its program, and bit i = the value of the
  /// program's control[i] in this state.
  struct Cone {
    const ConeProgram* program;
    std::vector<Word> control;
  };

  std::uint32_t new_temp() { return static_cast<std::uint32_t>(slots_++); }
  /// Compile `mask` over inputs[0..arity) into tape ops; writes the result
  /// into `dst` when given (kNoWord = return any word holding the value).
  std::uint32_t compile_lut(std::uint16_t mask, int arity,
                            const std::uint32_t* inputs, std::uint32_t dst);
  std::uint32_t emit(OpKind kind, std::uint32_t dst, std::uint32_t a,
                     std::uint32_t b = 0, std::uint32_t c = 0);
  /// `w` into `dst` (kNoWord: `w` itself); a constant ties `dst`, no op.
  std::uint32_t copy_into(std::uint32_t dst, std::uint32_t w);
  /// Stably sort the tape by levelization band, same-kind ops of a band
  /// adjacent.
  void build_levels();
  /// Find the control flip-flops and the decision slots (fixed point).
  void find_control(std::span<const NetId> broadcast_pins);
  /// The cone of the control state the network holds now, or nullptr when
  /// its lanes disagree or the full cache does not hold it.
  const Cone* current_cone();
  Cone build_cone();
  /// The program of the live sets state `v` (one byte per slot) makes.
  const ConeProgram* live_program(const std::vector<std::uint8_t>& v);
  /// Compile the live sets in `key` (op bitmap, then flip-flop bitmap).
  ConeProgram compile_cone(const std::vector<Word>& key);
  /// Sweep the current control state's cone (the whole tape on divergence
  /// or for a state the full cache does not hold).
  void sweep();
  /// Sweep the whole tape.
  void full_sweep() const;
  /// The slot holding net `n`'s value, sweeping the whole tape first when
  /// the last sweep left it stale.
  std::uint32_t slot_of(NetId n) const {
    if (stale_ && !(cone_->program->fresh[n / kBaseLanes] >> (n % kBaseLanes) & 1U))
      return stale_slot(n);
    return n;
  }
  std::uint32_t stale_slot(NetId n) const;
  /// Call before a mutator changes a word: the first after a sweep
  /// freezes the folded values the next clock() samples.
  void touch() {
    if (!dirty_) freeze();
    dirty_ = true;
  }
  /// Copy the last program's folded D, enable and output values into
  /// their home slots.
  void freeze();
  void fill(std::uint32_t slot, bool v) {
    for (std::size_t g = 0; g < stride_; ++g) words_[slot * stride_ + g] = v ? ~Word{0} : Word{0};
  }
  void publish_dff(std::size_t index);

  const Netlist& nl_;
  BatchBackend backend_;
  std::size_t stride_;
  std::size_t slots_ = 0;            ///< logical lane-word slots (nets + temps)
  mutable batchdetail::LaneWords words_;  ///< slots_ * stride_ physical words
  std::vector<Op> tape_;
  std::vector<RomSpec> roms_;
  std::vector<Dff> dffs_;             ///< every flip-flop: the full sweep's edge
  batchdetail::LaneWords dff_state_;  ///< dffs x stride
  Program full_;                      ///< the whole tape
  std::uint32_t const0_word_;
  std::uint32_t const1_word_;
  /// LUT outputs that compiled to a constant: (slot, value), never swept.
  std::vector<std::pair<std::uint32_t, bool>> tied_;
  const batchdetail::Kernels* kern_ = nullptr;

  // Control analysis (fixed at construction).
  std::vector<std::uint32_t> control_dffs_;
  std::vector<std::uint32_t> control_slots_;  ///< pins, then control Qs: key bit order
  std::vector<bool> uniform_;                 ///< per slot: a function of the control state
  std::vector<std::uint32_t> uniform_ops_;    ///< tape indices over uniform operands only
  std::vector<std::uint32_t> decision_slots_;  ///< uniform slots that steer the cone
  std::vector<Word> sources_;                 ///< bitmap: inputs, constants, Qs
  std::vector<std::uint32_t> producer_;       ///< per slot: the tape op writing it, or kNoWord

  // Control-state cache: state -> its cone; decisions -> the program;
  // (live ops, live flip-flops) -> the program, compiled once.
  std::map<std::vector<Word>, Cone> by_state_;
  std::map<std::vector<Word>, const ConeProgram*> by_decisions_;
  std::map<std::vector<Word>, ConeProgram> programs_;
  std::vector<Word> key_;  ///< current_cone() scratch
  std::size_t cache_bytes_ = 0;
  std::size_t max_state_bytes_ = 0;  ///< the most one new state adds to the cache
  // compile_cone() scratch, one entry per slot, restored after each use.
  std::vector<std::uint32_t> alias_;  ///< the slot holding a slot's value (tied: a constant)
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint32_t> touched_;
  std::vector<Dff> frozen_clock_;  ///< clock() scratch after a freeze

  mutable const Cone* cone_ = nullptr;  ///< last sweep's cone; nullptr = full
  /// A mutator ran since the last sweep (and, after a cone sweep, froze
  /// the folded values into their home slots).
  mutable bool dirty_ = true;
  mutable bool stale_ = false;  ///< the last sweep was cone_'s, not full
  mutable std::uint64_t sweeps_ = 0;
  mutable std::uint64_t ops_executed_ = 0;
  std::uint64_t dffs_clocked_ = 0;
  std::uint64_t lane_divergences_ = 0;
  std::uint64_t uncached_sweeps_ = 0;
};

}  // namespace aesip::netlist
