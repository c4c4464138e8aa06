// AVX2 backend: 256 lanes per pass (stride 4).
//
// Compiled with -mavx2 (see src/netlist/CMakeLists.txt); whether the HOST
// can run it is a runtime CPUID question answered by backend_supported(),
// never assumed here.  Word ops are straight ymm bitwise instructions; the
// ROM gather uses the portable 8x8 bit-matrix transpose path (one table
// lookup per lane instead of 16 bit probes).

#include "netlist/batch_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace aesip::netlist::batchdetail {

namespace {

struct OpsAvx2 {
  static constexpr std::size_t kStride = 4;
  using V = __m256i;
  static V load(const Word* p) { return _mm256_load_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(Word* p, V v) { _mm256_store_si256(reinterpret_cast<__m256i*>(p), v); }
  static V ones() { return _mm256_set1_epi64x(-1); }
  static V vnot(V a) { return _mm256_xor_si256(a, ones()); }
  static V vand(V a, V b) { return _mm256_and_si256(a, b); }
  static V vandn(V a, V b) { return _mm256_andnot_si256(a, b); }  // ~a & b
  static V vor(V a, V b) { return _mm256_or_si256(a, b); }
  static V vorn(V a, V b) { return _mm256_or_si256(vnot(a), b); }  // ~a | b
  static V vxor(V a, V b) { return _mm256_xor_si256(a, b); }
  static V vmux(V s, V lo, V hi) {
    return _mm256_or_si256(_mm256_and_si256(s, hi), _mm256_andnot_si256(s, lo));
  }
  static void rom(const RomSpec& r, Word* w) { rom_gather_transpose(r, w, kStride); }
};

#include "netlist/batch_kernels.inl"

const Kernels kAvx2Kernels{OpsAvx2::kStride, &settle_program<OpsAvx2>, &clock_dffs_t<OpsAvx2>};

}  // namespace

const Kernels* kernels_avx2() { return &kAvx2Kernels; }

}  // namespace aesip::netlist::batchdetail

#else  // not x86-64: backend not compiled in

namespace aesip::netlist::batchdetail {
const Kernels* kernels_avx2() { return nullptr; }
}  // namespace aesip::netlist::batchdetail

#endif
