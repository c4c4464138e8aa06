// AVX-512 backend: 512 lanes per pass (stride 8).
//
// Compiled with -mavx512f -mavx512bw -mavx512vbmi; runtime availability is
// CPUID-gated by backend_supported() (F for the 512-bit word ops, BW for
// the byte-mask address/data steps, VBMI for the table lookup).  kMux
// folds into a single vpternlogq.  The ROM gather keeps the whole 256-byte
// table in four zmm registers: a lane word IS a __mmask64, so the address
// lane words become 64 packed address bytes in masked byte-adds, two
// vpermi2b look up both 128-byte halves of the table, address bit 7's lane
// word picks between them as a blend mask, and the 8 data lane words come
// back as 8 vptestmb masks — no per-lane work at all.

#include "netlist/batch_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace aesip::netlist::batchdetail {

namespace {

struct OpsAvx512 {
  static constexpr std::size_t kStride = 8;
  using V = __m512i;
  static V load(const Word* p) { return _mm512_loadu_si512(p); }
  static void store(Word* p, V v) { _mm512_storeu_si512(p, v); }
  static V vnot(V a) { return _mm512_ternarylogic_epi64(a, a, a, 0x0F); }
  static V vand(V a, V b) { return _mm512_and_si512(a, b); }
  static V vandn(V a, V b) { return _mm512_andnot_si512(a, b); }  // ~a & b
  static V vor(V a, V b) { return _mm512_or_si512(a, b); }
  // ~a | b: ternlog truth table over (a, b, _) — 0 only where a=1, b=0.
  static V vorn(V a, V b) { return _mm512_ternarylogic_epi64(a, b, b, 0xCF); }
  static V vxor(V a, V b) { return _mm512_xor_si512(a, b); }
  // s ? hi : lo — one vpternlogq, imm 0xCA over (s, hi, lo).
  static V vmux(V s, V lo, V hi) { return _mm512_ternarylogic_epi64(s, hi, lo, 0xCA); }

  static void rom(const RomSpec& r, Word* w) {
    constexpr std::size_t S = kStride;
    const __m512i t0 = _mm512_loadu_si512(r.table);
    const __m512i t1 = _mm512_loadu_si512(r.table + 64);
    const __m512i t2 = _mm512_loadu_si512(r.table + 128);
    const __m512i t3 = _mm512_loadu_si512(r.table + 192);
    for (std::size_t g = 0; g < S; ++g) {
      // Address bits 0-6 of lane group g as 64 packed bytes: address bit
      // i's lane word is exactly the byte-lane mask for adding 1 << i.
      // vpermi2b reads only those 7 bits of each index byte.
      __m512i idx = _mm512_setzero_si512();
      for (int i = 0; i < 7; ++i) {
        const __mmask64 m = static_cast<__mmask64>(w[std::size_t{r.addr[i]} * S + g]);
        idx = _mm512_mask_add_epi8(idx, m, idx, _mm512_set1_epi8(static_cast<char>(1 << i)));
      }
      const __m512i lo = _mm512_permutex2var_epi8(t0, idx, t1);
      const __m512i hi = _mm512_permutex2var_epi8(t2, idx, t3);
      const __m512i data = _mm512_mask_blend_epi8(
          static_cast<__mmask64>(w[std::size_t{r.addr[7]} * S + g]), lo, hi);
      for (int i = 0; i < 8; ++i)
        w[std::size_t{r.out[i]} * S + g] = static_cast<Word>(
            _mm512_test_epi8_mask(data, _mm512_set1_epi8(static_cast<char>(1 << i))));
    }
  }
};

#include "netlist/batch_kernels.inl"

const Kernels kAvx512Kernels{OpsAvx512::kStride, &settle_tape<OpsAvx512>,
                             &clock_dffs_t<OpsAvx512>};

}  // namespace

const Kernels* kernels_avx512() { return &kAvx512Kernels; }

}  // namespace aesip::netlist::batchdetail

#else  // not x86-64: backend not compiled in

namespace aesip::netlist::batchdetail {
const Kernels* kernels_avx512() { return nullptr; }
}  // namespace aesip::netlist::batchdetail

#endif
