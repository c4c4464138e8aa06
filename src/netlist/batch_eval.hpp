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
//     D (per-lane enable masking), publishes Q, then settles — the same
//     pre-edge semantics as Evaluator::clock().
//
// The tape is then stably sorted by levelization band, and one settle is
// a single-threaded sweep over it: the parallelism is the lanes, not cores.
// A settle sweeps only when some mutator (set*, broadcast*, reset, the
// flip_dff family, clock) has run since the last sweep, so the drivers'
// `settle(); clock();` costs one sweep per clock edge, not two.
//
// A combinational cycle is rejected at construction exactly like the scalar
// evaluator.  The scalar evaluator remains the oracle and keeps the
// single-lane SEU flip_dff path.
#pragma once

#include <cstdint>
#include <span>
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

  /// Compile `nl` and resolve the backend (throws std::runtime_error if
  /// an explicitly requested backend is unknown or unsupported on this
  /// host, or if the netlist has a combinational cycle).
  explicit BatchEvaluator(const Netlist& nl, const BatchConfig& cfg = {});
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
  Word word(NetId n, std::size_t wi = 0) const { return words_[n * stride_ + wi]; }
  void set_word(NetId n, Word w, std::size_t wi = 0) {
    words_[n * stride_ + wi] = w;
    dirty_ = true;
  }
  /// Drive net `n` to the same value in every lane.
  void broadcast(NetId n, bool v) {
    for (std::size_t g = 0; g < stride_; ++g) words_[n * stride_ + g] = v ? ~Word{0} : Word{0};
    dirty_ = true;
  }
  void broadcast_bus(const Bus& b, std::uint64_t value);

  // --- per-lane access --------------------------------------------------------
  void set(NetId n, std::size_t lane, bool v) {
    Word& w = words_[n * stride_ + lane / kBaseLanes];
    const Word bit = Word{1} << (lane % kBaseLanes);
    w = v ? (w | bit) : (w & ~bit);
    dirty_ = true;
  }
  bool get(NetId n, std::size_t lane) const {
    return (words_[n * stride_ + lane / kBaseLanes] >> (lane % kBaseLanes)) & 1U;
  }
  /// Drive a bus (bit 0 = LSB) in one lane from an integer.
  void set_bus(const Bus& b, std::size_t lane, std::uint64_t value);
  std::uint64_t get_bus(const Bus& b, std::size_t lane) const;

  // --- simulation -------------------------------------------------------------
  /// Propagate through the compiled tape (call after changing inputs).
  /// Free when nothing changed since the last sweep: only the mutators
  /// above and below mark the network dirty.
  void settle();
  /// Rising clock edge in every lane: each DFF whose enable is true in a
  /// lane samples its D in that lane; then the network settles (always one
  /// sweep — publishing Q marks it dirty).  D is read as it stands: call
  /// settle() first after changing inputs.
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
  /// Word ops in the compiled tape (compile-quality metric for benches).
  std::size_t tape_size() const noexcept { return tape_.size(); }
  /// Net words plus LUT-expansion temporaries (per lane word; the physical
  /// footprint is word_count() * stride()).
  std::size_t word_count() const noexcept { return slots_; }
  /// Tape sweeps run since construction (settles that found the network
  /// unchanged are not counted).
  std::uint64_t sweeps() const noexcept { return sweeps_; }

 private:
  using Op = batchdetail::Op;
  using OpKind = batchdetail::OpKind;
  using Dff = batchdetail::Dff;
  using RomSpec = batchdetail::RomSpec;
  static constexpr std::uint32_t kNoWord = batchdetail::kNoWord;

  std::uint32_t new_temp() { return static_cast<std::uint32_t>(slots_++); }
  /// Compile `mask` over inputs[0..arity) into tape ops; writes the result
  /// into `dst` when given (kNoWord = return any word holding the value).
  std::uint32_t compile_lut(std::uint16_t mask, int arity,
                            const std::uint32_t* inputs, std::uint32_t dst);
  std::uint32_t emit(OpKind kind, std::uint32_t dst, std::uint32_t a,
                     std::uint32_t b = 0, std::uint32_t c = 0);
  /// Stably sort the tape by levelization band.
  void build_levels();
  void publish_dff(std::size_t index);

  const Netlist& nl_;
  BatchBackend backend_;
  std::size_t stride_;
  std::size_t slots_ = 0;    ///< logical lane-word slots (nets + temps)
  std::vector<Word> words_;  ///< slots_ * stride_ physical words
  std::vector<Op> tape_;
  std::vector<RomSpec> roms_;
  std::vector<Dff> dffs_;
  std::vector<Word> dff_state_;   ///< dffs x stride
  std::vector<Word> dff_sample_;  ///< clock() scratch (no per-call alloc)
  std::uint32_t const0_word_;
  std::uint32_t const1_word_;
  const batchdetail::Kernels* kern_ = nullptr;
  bool dirty_ = true;        ///< a mutator ran since the last sweep
  std::uint64_t sweeps_ = 0;
};

}  // namespace aesip::netlist
