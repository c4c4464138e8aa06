// 8x8 bit-matrix transpose, shared by the batch evaluator's ROM gather
// and the gate driver's lane packing: both turn 8 lane words (one per bit
// position) into 8 packed bytes (one per lane) and back.
#pragma once

#include <cstdint>

namespace aesip::netlist {

/// 8x8 bit-matrix transpose of a uint64 (Hacker's Delight): bit (8r + c)
/// swaps with bit (8c + r).  Its own inverse.
inline std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t;
  t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x = x ^ t ^ (t << 28);
  return x;
}

}  // namespace aesip::netlist
