// Per-backend settle/clock kernels over compiled sweep programs.
//
// Each native backend lives in its own translation unit compiled with the
// matching ISA flags (batch_kernels_u64.cpp always; _avx2/_avx512 on
// x86-64 with -mavx2 / -mavx512f -mavx512bw -mavx512vbmi; _neon on
// aarch64).  A TU whose ISA is not compiled in returns nullptr from its
// kernels_*() accessor, so dispatch stays a plain runtime table with no
// weak-symbol tricks.  The kernel's vector covers exactly `stride` 64-bit
// words, so every op is one vector instruction, and `w` and `state` are
// LaneWords (64-byte aligned), so the loads and stores are aligned ones.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/batch_tape.hpp"

namespace aesip::netlist::batchdetail {

struct Kernels {
  std::size_t stride;  ///< 64-bit words per net (lanes = 64 * stride)
  /// Run `p`'s ops in order, each run as one loop over its kind.
  void (*settle)(const Program& p, Word* w);
  /// Sample the D of each flip-flop dffs[k], k < n, into its state word
  /// where its enable is set (pre-edge, per-lane enable masking), then
  /// publish Q — Evaluator::clock() semantics, lanes wide.  The caller
  /// settles afterwards.
  void (*clock_dffs)(const Dff* dffs, std::size_t n, Word* w, Word* state);
};

const Kernels* kernels_u64();
const Kernels* kernels_neon();    // nullptr unless built for aarch64
const Kernels* kernels_avx2();    // nullptr unless built for x86-64
const Kernels* kernels_avx512();  // nullptr unless built for x86-64

/// The original per-lane ROM gather (bit-by-bit transposed lookup) — the
/// 64-lane baseline path, kept byte-identical so BENCH_simspeed's ≥4x gate
/// measures against the pre-widening cost model.
void rom_gather_u64(const RomSpec& r, Word* w, std::size_t stride);

/// Fast portable gather: 8x8 bit-matrix transposes turn the 8 address lane
/// words into packed address bytes (and data bytes back into lane words),
/// so the per-lane work collapses to one table lookup.  Used by the NEON
/// and AVX2 backends.
void rom_gather_transpose(const RomSpec& r, Word* w, std::size_t stride);

}  // namespace aesip::netlist::batchdetail
