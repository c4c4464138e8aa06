// Cycle-accurate models of the architectures the paper compares against.
//
// All32Ip — every function at 32 bits (the organization the paper's
// Section 4 improves on): 4 ByteSub passes, 4 MixColumn passes into a
// ping-pong register (ShiftRow folds into the MixColumn read wiring), and
// 4 AddKey passes = the 12-cycle round the paper quotes; 120 cycles per
// block.  Same 8-S-box budget as the mixed design — which is exactly the
// paper's point: the 128-bit linear section costs no memory, only cycles.
//
// The other end of the area/performance axis of Table 3 — the fused
// 128-bit round with stored round keys of the authors' companion design [1]
// and the Hammercores processor [15] — is the variant family's
// `unroll-xtime` (arch::VariantIp / synthesize_variant, docs/variants.md):
// 10 cycles per block, 2.5x the S-box memory plus 1408 bits of key RAM.
//
// All32Ip exposes the same Table 1 bus protocol as the main IP
// (encrypt-only), so the same GenericBusDriver measures all of them.
#pragma once

#include <cstdint>
#include <memory>

#include "core/sbox_unit.hpp"
#include "hdl/module.hpp"
#include "hdl/signal.hpp"
#include "hdl/simulator.hpp"
#include "hdl/word128.hpp"

namespace aesip::arch {

/// All-32-bit organization: 12 cycles per round, 120 per block.
class All32Ip final : public hdl::Module {
 public:
  static constexpr int kCyclesPerRound = 12;
  static constexpr int kCyclesPerBlock = 120;

  explicit All32Ip(hdl::Simulator& sim);

  hdl::Signal<bool> setup, wr_data, wr_key, encdec, data_ok;
  hdl::Signal<hdl::Word128> din, dout;

  bool key_ready() const noexcept { return key_valid_; }
  bool data_pending() const noexcept { return data_pending_; }
  bool busy() const noexcept { return phase_ != Phase::kIdle; }
  int sbox_count() const noexcept { return 8; }  // 4 ByteSub + 4 KStran

  void evaluate() override;
  void tick() override;

 private:
  enum class Phase : std::uint8_t { kIdle, kSub, kMix, kAdd };

  void start_block();

  std::unique_ptr<core::SubWord32Unit> bytesub_;
  std::unique_ptr<core::SubWord32Unit> kstran_;

  hdl::Word128 data_in_reg_, key_reg_;
  bool data_pending_ = false, key_valid_ = false;
  hdl::Word128 state_, tmp_, round_key_, next_key_;
  Phase phase_ = Phase::kIdle;
  int round_ = 0;
  int sub_ = 0;
};

}  // namespace aesip::arch
