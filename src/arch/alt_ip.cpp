#include "arch/alt_ip.hpp"

#include "aes/sbox.hpp"
#include "aes/state.hpp"
#include "aes/transforms.hpp"
#include "gf/gf256.hpp"

namespace aesip::arch {

namespace {

hdl::Word128 shift_rows128(const hdl::Word128& w) {
  aes::State s(4, w.b);
  aes::shift_rows(s);
  hdl::Word128 out;
  s.store(out.b);
  return out;
}

hdl::Word128 mix_columns128(const hdl::Word128& w) {
  aes::State s(4, w.b);
  aes::mix_columns(s);
  hdl::Word128 out;
  s.store(out.b);
  return out;
}

std::uint32_t rot_word(std::uint32_t w) noexcept { return (w >> 8) | (w << 24); }

}  // namespace

// ===== All32Ip =================================================================

All32Ip::All32Ip(hdl::Simulator& sim)
    : hdl::Module("all32_ip"),
      setup(sim, "setup", 1),
      wr_data(sim, "wr_data", 1),
      wr_key(sim, "wr_key", 1),
      encdec(sim, "encdec", 1, true),
      data_ok(sim, "data_ok", 1),
      din(sim, "din", 128),
      dout(sim, "dout", 128) {
  bytesub_ = std::make_unique<core::SubWord32Unit>(sim, "a32.bytesub", aes::kSBox);
  kstran_ = std::make_unique<core::SubWord32Unit>(sim, "a32.kstran", aes::kSBox);
  sim.add_module(*this);
}

void All32Ip::evaluate() {
  bytesub_->addr.write(state_.column(sub_));
  kstran_->addr.write(rot_word(round_key_.column(3)));
}

void All32Ip::start_block() {
  data_pending_ = false;
  state_ = data_in_reg_ ^ key_reg_;  // initial AddRoundKey folds into load
  round_key_ = key_reg_;
  round_ = 1;
  sub_ = 0;
  phase_ = Phase::kSub;
}

void All32Ip::tick() {
  data_ok.write(false);
  if (setup.read()) {
    phase_ = Phase::kIdle;
    data_pending_ = false;
    key_valid_ = false;
    return;
  }
  if (wr_key.read()) {
    key_reg_ = din.read();
    key_valid_ = true;
    data_pending_ = false;
    phase_ = Phase::kIdle;
    return;
  }
  if (wr_data.read()) {
    data_in_reg_ = din.read();
    data_pending_ = true;
  }

  switch (phase_) {
    case Phase::kIdle:
      if (data_pending_ && key_valid_) start_block();
      break;

    case Phase::kSub: {
      // ByteSub column pass + on-the-fly key staging (hides here exactly as
      // in the mixed design — the schedule is not the limiter at 32 bits).
      state_.set_column(sub_, bytesub_->data.read());
      if (sub_ == 0) {
        next_key_.set_column(0, round_key_.column(0) ^ kstran_->data.read() ^
                                    gf::rcon(static_cast<unsigned>(round_)));
      } else {
        next_key_.set_column(sub_, next_key_.column(sub_ - 1) ^ round_key_.column(sub_));
      }
      if (sub_ < 3) ++sub_;
      else {
        sub_ = 0;
        phase_ = Phase::kMix;
      }
      break;
    }

    case Phase::kMix: {
      // One MixColumn pass into the ping-pong register; ShiftRow is read
      // wiring.  The final round copies the shifted column unmixed.
      const hdl::Word128 shifted = shift_rows128(state_);
      const hdl::Word128 mixed = round_ < 10 ? mix_columns128(shifted) : shifted;
      tmp_.set_column(sub_, mixed.column(sub_));
      if (sub_ < 3) ++sub_;
      else {
        sub_ = 0;
        phase_ = Phase::kAdd;
      }
      break;
    }

    case Phase::kAdd: {
      const std::uint32_t col = tmp_.column(sub_) ^ next_key_.column(sub_);
      state_.set_column(sub_, col);
      if (sub_ < 3) {
        ++sub_;
      } else if (round_ < 10) {
        round_key_ = next_key_;
        ++round_;
        sub_ = 0;
        phase_ = Phase::kSub;
      } else {
        hdl::Word128 result = state_;
        result.set_column(3, col);
        dout.write(result);
        data_ok.write(true);
        if (data_pending_ && key_valid_) start_block();
        else phase_ = Phase::kIdle;
      }
      break;
    }
  }
}

}  // namespace aesip::arch
