// Portable uint64 backend (64 lanes) + the shared ROM gather helpers.
//
// This is the pre-widening cost model preserved verbatim: one word per
// net, the per-lane bit-by-bit ROM gather.  It is the fallback on hosts
// with no vector unit and the baseline BENCH_simspeed's ≥4x gate divides
// by, so it deliberately does NOT use the transpose-based ROM fast path.

#include "netlist/batch_kernels.hpp"
#include "netlist/bit_transpose.hpp"

namespace aesip::netlist::batchdetail {

void rom_gather_u64(const RomSpec& r, Word* w, std::size_t stride) {
  for (std::size_t g = 0; g < stride; ++g) {
    Word a[8];
    Word o[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 8; ++i) a[i] = w[std::size_t{r.addr[i]} * stride + g];
    for (std::size_t lane = 0; lane < 64; ++lane) {
      std::size_t addr = 0;
      for (int i = 0; i < 8; ++i) addr |= ((a[i] >> lane) & 1U) << i;
      const std::uint8_t data = r.table[addr];
      for (int i = 0; i < 8; ++i) o[i] |= Word{(data >> i) & 1U} << lane;
    }
    for (int i = 0; i < 8; ++i) w[std::size_t{r.out[i]} * stride + g] = o[i];
  }
}

void rom_gather_transpose(const RomSpec& r, Word* w, std::size_t stride) {
  for (std::size_t g = 0; g < stride; ++g) {
    Word a[8];
    Word o[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 8; ++i) a[i] = w[std::size_t{r.addr[i]} * stride + g];
    for (int blk = 0; blk < 8; ++blk) {  // 8 lanes per transpose block
      // Row i of t = address bit i across lanes blk*8..blk*8+7; after the
      // transpose, byte j of t = lane (blk*8+j)'s address.
      std::uint64_t t = 0;
      for (int i = 0; i < 8; ++i) t |= ((a[i] >> (8 * blk)) & 0xFFu) << (8 * i);
      t = transpose8(t);
      std::uint64_t u = 0;
      for (int j = 0; j < 8; ++j)
        u |= std::uint64_t{r.table[(t >> (8 * j)) & 0xFFu]} << (8 * j);
      u = transpose8(u);  // back: byte i = data bit i across the 8 lanes
      for (int i = 0; i < 8; ++i) o[i] |= ((u >> (8 * i)) & 0xFFu) << (8 * blk);
    }
    for (int i = 0; i < 8; ++i) w[std::size_t{r.out[i]} * stride + g] = o[i];
  }
}

namespace {

struct OpsU64 {
  static constexpr std::size_t kStride = 1;
  using V = Word;
  static V load(const Word* p) { return *p; }
  static void store(Word* p, V v) { *p = v; }
  static V vnot(V a) { return ~a; }
  static V vand(V a, V b) { return a & b; }
  static V vandn(V a, V b) { return ~a & b; }
  static V vor(V a, V b) { return a | b; }
  static V vorn(V a, V b) { return ~a | b; }
  static V vxor(V a, V b) { return a ^ b; }
  static V vmux(V s, V lo, V hi) { return (s & hi) | (~s & lo); }
  static void rom(const RomSpec& r, Word* w) { rom_gather_u64(r, w, kStride); }
};

#include "netlist/batch_kernels.inl"

const Kernels kU64Kernels{OpsU64::kStride, &settle_program<OpsU64>, &clock_dffs_t<OpsU64>};

}  // namespace

const Kernels* kernels_u64() { return &kU64Kernels; }

}  // namespace aesip::netlist::batchdetail
