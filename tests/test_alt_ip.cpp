// The comparison architectures, measured: the all-32-bit organization
// really takes 12 cycles/round (the paper's Section 4 number), the
// full-128 stored-key organization (the variant family's unroll-xtime)
// really takes 10 cycles/block and pays for it in S-boxes and key RAM —
// and both encrypt correctly.
#include <gtest/gtest.h>

#include <random>

#include "aes/cipher.hpp"
#include "arch/alt_ip.hpp"
#include "arch/cycle_model.hpp"
#include "arch/variant.hpp"
#include "core/bfm.hpp"
#include "core/rijndael_ip.hpp"
#include "hdl/simulator.hpp"

namespace aes = aesip::aes;
namespace arch = aesip::arch;
namespace core = aesip::core;
namespace hdl = aesip::hdl;

namespace {

std::array<std::uint8_t, 16> random_block(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::array<std::uint8_t, 16> out{};
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

template <typename Ip>
struct AltBench {
  hdl::Simulator sim;
  Ip ip;
  core::GenericBusDriver<Ip> bus;
  template <typename... Args>
  explicit AltBench(const Args&... args) : ip(sim, args...), bus(sim, ip) {
    bus.reset();
  }
};

// The full-128-bit stored-key organization: one fused round per cycle
// over a precomputed key RAM, encrypt-only.
const arch::VariantSpec kFull128 = *arch::VariantSpec::parse("unroll-xtime");

struct Full128Bench : AltBench<arch::VariantIp> {
  Full128Bench() : AltBench(kFull128, core::IpMode::kEncrypt) {}
};

}  // namespace

// --- all-32-bit organization ---------------------------------------------------------

TEST(All32, EncryptsFipsVector) {
  AltBench<arch::All32Ip> b;
  const auto key = random_block(1);
  const auto pt = random_block(2);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);
  b.bus.load_key(key);
  EXPECT_EQ(b.bus.process_block(pt), golden);
}

class All32Conformance : public ::testing::TestWithParam<int> {};

TEST_P(All32Conformance, MatchesReference) {
  AltBench<arch::All32Ip> b;
  const auto key = random_block(static_cast<std::uint32_t>(GetParam()) + 10);
  const auto pt = random_block(static_cast<std::uint32_t>(GetParam()) + 20);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);
  b.bus.load_key(key);
  EXPECT_EQ(b.bus.process_block(pt), golden);
}

INSTANTIATE_TEST_SUITE_P(Vectors, All32Conformance, ::testing::Range(0, 8));

TEST(All32, LatencyIsExactly120Cycles) {
  // The measured form of Section 4's "12 cycles per round" claim.
  AltBench<arch::All32Ip> b;
  b.bus.load_key(random_block(3));
  b.bus.process_block(random_block(4));
  EXPECT_EQ(b.bus.last_latency(), 120u);
  EXPECT_EQ(arch::All32Ip::kCyclesPerBlock,
            10 * arch::cycles_per_round(arch::all32()));
}

TEST(All32, StreamingSustains120PerBlock) {
  AltBench<arch::All32Ip> b;
  b.bus.load_key(random_block(5));
  std::vector<std::array<std::uint8_t, 16>> blocks;
  for (std::uint32_t i = 0; i < 5; ++i) blocks.push_back(random_block(30 + i));
  const auto results = b.bus.stream(blocks);
  ASSERT_EQ(results.size(), blocks.size());
  EXPECT_EQ(b.bus.last_stream_cycles(), blocks.size() * 120);
}

TEST(All32, SameSboxBudgetAsMixedDesign) {
  hdl::Simulator s1, s2;
  arch::All32Ip a32(s1);
  core::RijndaelIp mixed(s2, core::IpMode::kEncrypt);
  EXPECT_EQ(a32.sbox_count(), mixed.sbox_count())
      << "the 128-bit linear section costs cycles, never memory — the "
         "paper's Section 4 argument";
}

// --- full-128-bit stored-key organization ----------------------------------------------

TEST(Full128, EncryptsCorrectly) {
  Full128Bench b;
  const auto key = random_block(6);
  const auto pt = random_block(7);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);
  b.bus.load_key(key);
  EXPECT_EQ(b.bus.process_block(pt), golden);
}

class Full128Conformance : public ::testing::TestWithParam<int> {};

TEST_P(Full128Conformance, MatchesReference) {
  Full128Bench b;
  const auto key = random_block(static_cast<std::uint32_t>(GetParam()) + 40);
  const auto pt = random_block(static_cast<std::uint32_t>(GetParam()) + 50);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);
  b.bus.load_key(key);
  EXPECT_EQ(b.bus.process_block(pt), golden);
}

INSTANTIATE_TEST_SUITE_P(Vectors, Full128Conformance, ::testing::Range(0, 8));

TEST(Full128, LatencyIsTenCycles) {
  Full128Bench b;
  b.bus.load_key(random_block(8));
  b.bus.process_block(random_block(9));
  EXPECT_EQ(b.bus.last_latency(), 10u);
}

TEST(Full128, KeyExpansionTakesTenCycles) {
  Full128Bench b;
  EXPECT_EQ(b.bus.load_key(random_block(10)), 10u)
      << "one stored round key per cycle";
}

TEST(Full128, StreamingSustains10PerBlock) {
  Full128Bench b;
  b.bus.load_key(random_block(11));
  std::vector<std::array<std::uint8_t, 16>> blocks;
  for (std::uint32_t i = 0; i < 6; ++i) blocks.push_back(random_block(60 + i));
  const auto results = b.bus.stream(blocks);
  ASSERT_EQ(results.size(), blocks.size());
  EXPECT_EQ(b.bus.last_stream_cycles(), blocks.size() * 10);
  aes::Aes128 ref(random_block(11));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::array<std::uint8_t, 16> golden{};
    ref.encrypt_block(blocks[i], golden);
    EXPECT_EQ(results[i], golden) << i;
  }
}

TEST(Full128, PaysInSboxesAndKeyRam) {
  hdl::Simulator sim;
  core::RijndaelIp mixed(sim, core::IpMode::kEncrypt);
  const int f128_sboxes = arch::sbox_count(arch::full128());  // 16 data + 4 key expansion
  EXPECT_EQ(f128_sboxes, 20);
  EXPECT_GT(f128_sboxes, 2 * mixed.sbox_count());
  EXPECT_EQ(kFull128.schedule_words() * 32, 1408);  // 11 stored round keys
}

// --- the three-way measured comparison ---------------------------------------------------

TEST(Ablation, MeasuredCycleRatiosMatchSection4) {
  AltBench<arch::All32Ip> a32;
  Full128Bench f128;
  hdl::Simulator sim;
  core::RijndaelIp mixed_ip(sim, core::IpMode::kEncrypt);
  core::BusDriver mixed_bus(sim, mixed_ip);
  mixed_bus.reset();

  const auto key = random_block(70);
  const auto pt = random_block(71);
  a32.bus.load_key(key);
  f128.bus.load_key(key);
  mixed_bus.load_key(key);
  const auto r1 = a32.bus.process_block(pt);
  const auto r2 = f128.bus.process_block(pt);
  const auto r3 = mixed_bus.process_block(pt);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r2, r3) << "three architectures, one cipher";

  EXPECT_EQ(a32.bus.last_latency(), 120u);
  EXPECT_EQ(mixed_bus.last_latency(), 50u);
  EXPECT_EQ(f128.bus.last_latency(), 10u);
  // Section 4: mixed processing cuts the round 12 -> 5.
  EXPECT_EQ(a32.bus.last_latency() / 10, 12u);
  EXPECT_EQ(mixed_bus.last_latency() / 10, 5u);
}
