// NEON backend: 128 lanes per pass (stride 2), aarch64 only.
//
// AdvSIMD is baseline on aarch64, so no special compile flags and no
// CPUID question — backend_supported(kNeon) is simply "built for
// aarch64".  vbslq_u64 is the bit-select kMux wants; the ROM gather uses
// the portable transpose path.

#include "netlist/batch_kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace aesip::netlist::batchdetail {

namespace {

struct OpsNeon {
  static constexpr std::size_t kStride = 2;
  using V = uint64x2_t;
  static V load(const Word* p) { return vld1q_u64(p); }
  static void store(Word* p, V v) { vst1q_u64(p, v); }
  static V vnot(V a) { return vreinterpretq_u64_u8(vmvnq_u8(vreinterpretq_u8_u64(a))); }
  static V vand(V a, V b) { return vandq_u64(a, b); }
  static V vandn(V a, V b) { return vbicq_u64(b, a); }  // b & ~a
  static V vor(V a, V b) { return vorrq_u64(a, b); }
  static V vorn(V a, V b) { return vornq_u64(b, a); }  // b | ~a
  static V vxor(V a, V b) { return veorq_u64(a, b); }
  static V vmux(V s, V lo, V hi) { return vbslq_u64(s, hi, lo); }  // s ? hi : lo
  static void rom(const RomSpec& r, Word* w) { rom_gather_transpose(r, w, kStride); }
};

#include "netlist/batch_kernels.inl"

const Kernels kNeonKernels{OpsNeon::kStride, &settle_program<OpsNeon>, &clock_dffs_t<OpsNeon>};

}  // namespace

const Kernels* kernels_neon() { return &kNeonKernels; }

}  // namespace aesip::netlist::batchdetail

#else  // not aarch64: backend not compiled in

namespace aesip::netlist::batchdetail {
const Kernels* kernels_neon() { return nullptr; }
}  // namespace aesip::netlist::batchdetail

#endif
