// Shared tape representation for the bit-parallel batch evaluator.
//
// BatchEvaluator compiles the netlist once into this flat, SSA-like op
// tape; the per-backend settle kernels (batch_kernels_*.cpp — uint64,
// NEON, AVX2, AVX-512) all interpret the SAME tape, so every backend is
// bit-for-bit comparable against the scalar Evaluator oracle.  Operands are *word-slot* indices: slot s of an
// evaluator with stride S (64-bit words per net) lives at w[s * S .. s * S
// + S) — the kernel's vector width is exactly S words, so one op is one
// vector instruction on the native backends.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace aesip::netlist::batchdetail {

using Word = std::uint64_t;

/// One word-level op.  kMux is (a & c) | (~a & b) — a = select, b = low,
/// c = high, matching kMux2's in0/in1/in2.  kAndn is ~a & b and kOrn is
/// ~a | b: the collapsed Shannon cofactors (hi==0 / lo==1).
enum class OpKind : std::uint8_t { kCopy, kNot, kAnd, kAndn, kOr, kOrn, kXor, kMux, kRom };

struct Op {
  OpKind kind;
  std::uint32_t dst;  // word slot; for kRom: the rom index
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

struct Dff {
  std::uint32_t d;       ///< word slot of D
  std::uint32_t q;       ///< word slot of Q
  std::uint32_t enable;  ///< word slot of clock-enable, or kNoWord
};

static constexpr std::uint32_t kNoWord = 0xffffffffu;

/// A 256x8 ROM macro resolved to word slots (address/data bit i = slot i).
/// `table` points into the owning Netlist's Rom::table — the netlist must
/// outlive the evaluator, which it already does by contract.
struct RomSpec {
  std::uint32_t addr[8];
  std::uint32_t out[8];
  const std::uint8_t* table;
};

/// Call fn(i) for each i < n in increasing order: every i whose bit is set
/// in `mask` (bit i % 64 of mask[i / 64]), or every i for a null mask.
template <class Fn>
inline void for_each_index(const Word* mask, std::size_t n, Fn&& fn) {
  if (!mask) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t k = 0; 64 * k < n; ++k)
    for (Word bits = mask[k]; bits != 0; bits &= bits - 1)
      fn(64 * k + static_cast<std::size_t>(std::countr_zero(bits)));
}

}  // namespace aesip::netlist::batchdetail
