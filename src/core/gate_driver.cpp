#include "core/gate_driver.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "netlist/bit_transpose.hpp"

namespace aesip::core {

GateIpDriver::GateIpDriver(const netlist::Netlist& nl) : ev_(nl) {
  for (const auto& pi : nl.inputs()) by_name_[pi.name] = pi.net;
  for (const auto& po : nl.outputs()) out_by_name_[po.name] = po.net;
  for (int i = 0; i < 128; ++i) {
    din_.push_back(by_name_.at("din[" + std::to_string(i) + "]"));
    dout_.push_back(out_by_name_.at("dout[" + std::to_string(i) + "]"));
  }
  set("setup", false);
  set("wr_data", false);
  set("wr_key", false);
  if (has_input("encdec")) set("encdec", true);
  ev_.settle();
}

void GateIpDriver::set_din(std::span<const std::uint8_t> block) {
  for (int k = 0; k < 16; ++k)
    for (int b = 0; b < 8; ++b)
      ev_.set(din_[static_cast<std::size_t>(8 * k + b)],
              (block[static_cast<std::size_t>(k)] >> b) & 1);
}

std::array<std::uint8_t, 16> GateIpDriver::read_dout() const {
  std::array<std::uint8_t, 16> out{};
  for (int k = 0; k < 16; ++k)
    for (int b = 0; b < 8; ++b)
      if (ev_.get(dout_[static_cast<std::size_t>(8 * k + b)]))
        out[static_cast<std::size_t>(k)] |= static_cast<std::uint8_t>(1U << b);
  return out;
}

void GateIpDriver::clock() {
  ev_.settle();
  ev_.clock();
  ++cycles_;
}

void GateIpDriver::reset() {
  set("setup", true);
  clock();
  set("setup", false);
  clock();
}

void GateIpDriver::load_key(std::span<const std::uint8_t> key, bool needs_setup) {
  // The iterative inverse-schedule pass costs 4 generation cycles per round
  // (4*Nr = 40/48/56), with Nr inferred from the key length.
  const int nr = static_cast<int>(key.size()) / 4 + 6;
  load_key(key, needs_setup ? 4 * nr : 0);
}

void GateIpDriver::load_key(std::span<const std::uint8_t> key, int setup_cycles) {
  // Keys wider than the 128-bit din ride consecutive wr_key beats
  // (words 0..3, then words 4..Nk-1 in the low lanes).
  for (std::size_t off = 0; off < key.size(); off += 16) {
    std::array<std::uint8_t, 16> beat{};
    const std::size_t n = std::min<std::size_t>(16, key.size() - off);
    for (std::size_t i = 0; i < n; ++i) beat[i] = key[off + i];
    set_din(beat);
    set("wr_key", true);
    clock();
    set("wr_key", false);
  }
  for (int i = 0; i < setup_cycles; ++i) clock();
}

std::optional<GateIpDriver::BlockResult> GateIpDriver::process(
    std::span<const std::uint8_t> block, bool encrypt, int watchdog_cycles) {
  if (has_input("encdec")) set("encdec", encrypt);
  set_din(block);
  set("wr_data", true);
  clock();  // the load edge
  set("wr_data", false);
  for (int i = 1; i <= watchdog_cycles; ++i) {
    clock();
    if (data_ok()) return BlockResult{read_dout(), i};
  }
  return std::nullopt;
}

std::optional<GateIpDriver::StreamResult> GateIpDriver::stream(std::span<const std::uint8_t> in,
                                                               std::span<std::uint8_t> out,
                                                               std::size_t blocks, bool encrypt,
                                                               int watchdog_cycles) {
  if (in.size() < 16 * blocks || out.size() < 16 * blocks)
    throw std::invalid_argument("GateIpDriver: need 16 bytes per block");
  if (blocks == 0) return StreamResult{0};
  if (has_input("encdec")) set("encdec", encrypt);
  const bool has_ready = out_by_name_.count("in_ready") != 0;
  const netlist::NetId ready_net = has_ready ? out_by_name_.at("in_ready") : netlist::kNoNet;

  std::size_t next = 0;      // blocks written onto the bus
  std::size_t admitted = 0;  // blocks the core has captured out of Data_In
  std::size_t done = 0;      // data_ok strobes collected
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool first_fed = false;
  std::uint64_t guard = 0;

  while (done < blocks) {
    bool feed = next < blocks;
    if (feed) {
      if (has_ready) {
        ev_.settle();
        feed = ev_.get(ready_net);
      } else {
        feed = next == admitted;  // the paper core's single pending slot
      }
    }
    bool fed_idle = false;
    if (feed) {
      set_din(in.subspan(16 * next, 16));
      set("wr_data", true);
      fed_idle = !has_ready && admitted == done;  // idle core admits on the load edge
      ++next;
    } else {
      set("wr_data", false);
    }
    const bool was_first = feed && !first_fed;
    first_fed = first_fed || feed;
    clock();
    set("wr_data", false);
    if (was_first) first = cycles_;
    if (fed_idle) ++admitted;
    if (data_ok()) {
      const auto block = read_dout();
      for (int k = 0; k < 16; ++k) out[16 * done + static_cast<std::size_t>(k)] =
          block[static_cast<std::size_t>(k)];
      ++done;
      last = cycles_;
      if (admitted < next) ++admitted;  // the finish edge admits a pending block
    }
    if (++guard > static_cast<std::uint64_t>(watchdog_cycles) * blocks) return std::nullopt;
  }
  return StreamResult{static_cast<int>(last - first)};
}

// --- GateIpBatchDriver -------------------------------------------------------

namespace {

/// The control inputs the batch driver only ever drives alike in every lane.
std::vector<netlist::NetId> broadcast_pins(const netlist::Netlist& nl) {
  std::vector<netlist::NetId> pins;
  for (const auto& pi : nl.inputs())
    if (pi.name == "setup" || pi.name == "wr_data" || pi.name == "wr_key" || pi.name == "encdec")
      pins.push_back(pi.net);
  return pins;
}

}  // namespace

GateIpBatchDriver::GateIpBatchDriver(const netlist::Netlist& nl, const netlist::BatchConfig& cfg)
    : ev_(nl, cfg, broadcast_pins(nl)) {
  std::map<std::string, netlist::NetId> out_by_name;
  for (const auto& pi : nl.inputs()) by_name_[pi.name] = pi.net;
  for (const auto& po : nl.outputs()) out_by_name[po.name] = po.net;
  for (int i = 0; i < 128; ++i) {
    din_.push_back(by_name_.at("din[" + std::to_string(i) + "]"));
    dout_.push_back(out_by_name.at("dout[" + std::to_string(i) + "]"));
  }
  setup_ = by_name_.at("setup");
  wr_data_ = by_name_.at("wr_data");
  wr_key_ = by_name_.at("wr_key");
  encdec_ = has_input("encdec") ? by_name_.at("encdec") : netlist::kNoNet;
  data_ok_ = out_by_name.at("data_ok");
  ev_.broadcast(setup_, false);
  ev_.broadcast(wr_data_, false);
  ev_.broadcast(wr_key_, false);
  if (encdec_ != netlist::kNoNet) ev_.broadcast(encdec_, true);
  ev_.settle();
}

// Lane packing runs on 8x8 bit-matrix transposes: byte k of 8 lanes,
// packed one byte per lane, transposes into those lanes' bits of din
// 8k..8k+7 (and dout unpacks the same way back).
void GateIpBatchDriver::set_din_lanes(std::span<const std::uint8_t> in, std::size_t n) {
  using Word = netlist::BatchEvaluator::Word;
  constexpr std::size_t kWordLanes = netlist::BatchEvaluator::kBaseLanes;
  for (std::size_t g = 0; g < ev_.stride(); ++g) {
    std::array<Word, 128> w{};  // w[8k + b] = din bit 8k+b, lanes 64g..64g+63
    for (std::size_t blk = 0; blk < kWordLanes / 8; ++blk) {
      // Inactive lanes replicate lane 0 so every lane clocks real data.
      std::array<const std::uint8_t*, 8> src{};
      for (std::size_t j = 0; j < 8; ++j) {
        const std::size_t lane = g * kWordLanes + 8 * blk + j;
        src[j] = in.data() + 16 * (lane < n ? lane : 0);
      }
      for (std::size_t k = 0; k < 16; ++k) {
        std::uint64_t t = 0;  // byte j = lane j's byte k
        for (std::size_t j = 0; j < 8; ++j) t |= std::uint64_t{src[j][k]} << (8 * j);
        t = netlist::transpose8(t);  // byte b = bit b of byte k across the 8 lanes
        for (std::size_t b = 0; b < 8; ++b) w[8 * k + b] |= ((t >> (8 * b)) & 0xFFu) << (8 * blk);
      }
    }
    for (std::size_t i = 0; i < 128; ++i) ev_.set_word(din_[i], w[i], g);
  }
}

void GateIpBatchDriver::read_dout_lanes(std::span<std::uint8_t> out, std::size_t n) const {
  using Word = netlist::BatchEvaluator::Word;
  constexpr std::size_t kWordLanes = netlist::BatchEvaluator::kBaseLanes;
  for (std::size_t g = 0; g * kWordLanes < n; ++g) {
    std::array<Word, 128> w{};
    for (std::size_t i = 0; i < 128; ++i) w[i] = ev_.word(dout_[i], g);
    for (std::size_t base = g * kWordLanes; base < std::min(n, (g + 1) * kWordLanes); base += 8) {
      const std::size_t shift = base - g * kWordLanes;
      const std::size_t top = std::min<std::size_t>(8, n - base);
      for (std::size_t k = 0; k < 16; ++k) {
        std::uint64_t t = 0;  // byte b = dout bit 8k+b across the 8 lanes
        for (std::size_t b = 0; b < 8; ++b) t |= ((w[8 * k + b] >> shift) & 0xFFu) << (8 * b);
        t = netlist::transpose8(t);  // byte j = lane (base + j)'s byte k
        for (std::size_t j = 0; j < top; ++j)
          out[16 * (base + j) + k] = static_cast<std::uint8_t>(t >> (8 * j));
      }
    }
  }
}

void GateIpBatchDriver::clock(std::uint64_t weight) {
  ev_.settle();
  ev_.clock();
  cycles_ += weight;
}

void GateIpBatchDriver::reset() {
  ev_.broadcast(setup_, true);
  clock();
  ev_.broadcast(setup_, false);
  clock();
}

void GateIpBatchDriver::load_key(std::span<const std::uint8_t> key, bool needs_setup) {
  const int nr = static_cast<int>(key.size()) / 4 + 6;
  load_key(key, needs_setup ? 4 * nr : 0);
}

void GateIpBatchDriver::load_key(std::span<const std::uint8_t> key, int setup_cycles) {
  load_key_lanes(key, key.size(), 1, setup_cycles, 1);
}

void GateIpBatchDriver::load_key_lanes(std::span<const std::uint8_t> keys, std::size_t key_len,
                                       std::size_t n, int setup_cycles, std::uint64_t charged) {
  if (n < 1 || n > lanes() || keys.size() < key_len * n)
    throw std::invalid_argument("GateIpBatchDriver: need 1.." + std::to_string(lanes()) +
                                " lane keys");
  // Multi-beat like the scalar driver; beat b of every lane rides din at once.
  beat_.resize(16 * n);
  for (std::size_t off = 0; off < key_len; off += 16) {
    const std::size_t w = std::min<std::size_t>(16, key_len - off);
    std::fill(beat_.begin(), beat_.end(), std::uint8_t{0});
    for (std::size_t l = 0; l < n; ++l)
      std::copy_n(keys.begin() + static_cast<std::ptrdiff_t>(key_len * l + off), w,
                  beat_.begin() + static_cast<std::ptrdiff_t>(16 * l));
    set_din_lanes(beat_, n);
    ev_.broadcast(wr_key_, true);
    clock(charged);
    ev_.broadcast(wr_key_, false);
  }
  for (int i = 0; i < setup_cycles; ++i) clock(charged);
}

std::optional<GateIpBatchDriver::BatchResult> GateIpBatchDriver::process_batch(
    std::span<const std::uint8_t> in, std::span<std::uint8_t> out, std::size_t n, bool encrypt,
    int watchdog_cycles) {
  return process_lanes(in, out, n, n, encrypt, watchdog_cycles);
}

std::optional<GateIpBatchDriver::BatchResult> GateIpBatchDriver::process_lanes(
    std::span<const std::uint8_t> in, std::span<std::uint8_t> out, std::size_t n,
    std::size_t active, bool encrypt, int watchdog_cycles) {
  if (n < 1 || n > lanes())
    throw std::invalid_argument("GateIpBatchDriver: batch size must be 1.." +
                                std::to_string(lanes()));
  if (in.size() < 16 * n || out.size() < 16 * n)
    throw std::invalid_argument("GateIpBatchDriver: need 16 bytes per lane");
  if (encdec_ != netlist::kNoNet) ev_.broadcast(encdec_, encrypt);
  set_din_lanes(in, n);
  ev_.broadcast(wr_data_, true);
  clock(active);  // the load edge, one cycle per active block
  ev_.broadcast(wr_data_, false);
  for (int i = 1; i <= watchdog_cycles; ++i) {
    clock(active);
    if (data_ok()) {
      read_dout_lanes(out, n);
      return BatchResult{i};
    }
  }
  return std::nullopt;
}

}  // namespace aesip::core
