// AVX-512 backend: 512 lanes per pass (stride 8).
//
// Compiled with -mavx512f -mavx512bw; runtime availability is CPUID-gated
// by backend_supported() (F for the 512-bit word ops, BW for the byte-mask
// ROM gather).  kMux folds into a single vpternlogq.  The ROM gather is
// where AVX-512 really pays: a lane word IS a __mmask64, so the 8 address
// lane words become 64 packed address bytes in 8 masked byte-adds, and the
// 8 data lane words come back as 8 vptestmb masks — the per-lane loop that
// dominated the 64-lane profile collapses to one table lookup per lane.

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
    for (std::size_t g = 0; g < S; ++g) {
      // Build the 64 address bytes of lane group g: address bit i's lane
      // word is exactly the byte-lane mask for adding 1 << i.
      __m512i acc = _mm512_setzero_si512();
      for (int i = 0; i < 8; ++i) {
        const __mmask64 m = static_cast<__mmask64>(w[std::size_t{r.addr[i]} * S + g]);
        acc = _mm512_mask_add_epi8(acc, m, acc, _mm512_set1_epi8(static_cast<char>(1 << i)));
      }
      alignas(64) std::uint8_t buf[64];
      _mm512_store_si512(buf, acc);
      for (int j = 0; j < 64; ++j) buf[j] = r.table[buf[j]];
      const __m512i data = _mm512_load_si512(buf);
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
