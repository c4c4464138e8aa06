// Cross-engine conformance: every engine::CipherEngine kind must produce
// the same bytes for the same operation sequence — FIPS-197 vectors, a
// Monte Carlo encryption chain, and CBC/CTR traffic driven through the
// generic aes:: modes via EngineBlockCipher. The behavioral RTL model and
// the synthesized netlist must additionally agree on *time*: identical
// total cycle counts for an identical run, because the netlist was
// synthesized from the same FSM the behavioral model clocks.
//
// Labelled `engine` (ctest -L engine). The netlist engine simulates the
// full gate network per cycle, so its workloads are kept deliberately
// small; byte-equivalence over a few blocks plus cycle parity is the
// contract, not throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "arch/variant.hpp"
#include "engine/conformance.hpp"
#include "engine/engine.hpp"

namespace engine = aesip::engine;
namespace aes = aesip::aes;
namespace arch = aesip::arch;
namespace core = aesip::core;
using engine::EngineKind;

namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), std::uint8_t{1});
  return v;
}

constexpr std::array<std::uint8_t, 16> kKey{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                            0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                            0x09, 0xcf, 0x4f, 0x3c};
constexpr std::array<std::uint8_t, 16> kIv{0, 1, 2, 3, 4, 5, 6, 7,
                                           8, 9, 10, 11, 12, 13, 14, 15};

}  // namespace

// The full conformance run (FIPS-197 Appendix B + C.1 both directions,
// Monte Carlo chain vs. the software reference) per engine kind.
TEST(EngineConformance, SoftwareEngineFullSuite) {
  const auto e = engine::make_engine(EngineKind::kSoftware);
  const auto r = engine::run_conformance(*e, /*monte_carlo_iters=*/1000);
  EXPECT_TRUE(r.ok()) << (r.messages.empty() ? "" : r.messages.front());
  EXPECT_GT(r.checks, 0);
  EXPECT_EQ(r.total_cycles, 0u);  // zero-cycle functional model
}

TEST(EngineConformance, BehavioralEngineFullSuite) {
  const auto e = engine::make_engine(EngineKind::kBehavioral);
  const auto r = engine::run_conformance(*e, /*monte_carlo_iters=*/1000);
  EXPECT_TRUE(r.ok()) << (r.messages.empty() ? "" : r.messages.front());
  EXPECT_GT(r.total_cycles, 0u);
}

TEST(EngineConformance, NetlistEngineVectors) {
  const auto e = engine::make_engine(EngineKind::kNetlist);
  const auto r = engine::run_conformance(*e, /*monte_carlo_iters=*/4);
  EXPECT_TRUE(r.ok()) << (r.messages.empty() ? "" : r.messages.front());
  EXPECT_GT(r.total_cycles, 0u);
}

// The behavioral model and the synthesized netlist implement the same FSM,
// so an identical operation sequence must cost an identical number of
// clock cycles — not just produce the same bytes.
TEST(EngineConformance, BehavioralNetlistCycleParity) {
  engine::BehavioralEngine behavioral;
  const auto netlist = engine::make_engine(EngineKind::kNetlist);
  const auto rb = engine::run_conformance(behavioral, /*monte_carlo_iters=*/4);
  const auto rn = engine::run_conformance(*netlist, /*monte_carlo_iters=*/4);
  ASSERT_TRUE(rb.ok()) << (rb.messages.empty() ? "" : rb.messages.front());
  ASSERT_TRUE(rn.ok()) << (rn.messages.empty() ? "" : rn.messages.front());
  EXPECT_EQ(rb.checks, rn.checks);
  EXPECT_EQ(rb.total_cycles, rn.total_cycles);
}

// CBC through the generic aes:: modes, with each engine standing in as the
// BlockCipher128 via EngineBlockCipher, against the software reference.
TEST(EngineConformance, CbcModeEquivalenceAcrossEngines) {
  const auto plain = aes::pkcs7_pad(pattern_bytes(41));  // 48 bytes padded
  const aes::Aes128 ref(kKey);
  const auto want = aes::cbc_encrypt(ref, std::span<const std::uint8_t, 16>(kIv), plain);

  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind);
    e->load_key(kKey);
    const engine::EngineBlockCipher c(*e);
    const auto got = aes::cbc_encrypt(c, std::span<const std::uint8_t, 16>(kIv), plain);
    EXPECT_EQ(got, want) << "cbc_encrypt mismatch on engine " << e->name();
    const auto back = aes::cbc_decrypt(c, std::span<const std::uint8_t, 16>(kIv), got);
    EXPECT_EQ(back, plain) << "cbc_decrypt mismatch on engine " << e->name();
  }
}

// CTR needs only the forward cipher; any byte length is legal.
TEST(EngineConformance, CtrModeEquivalenceAcrossEngines) {
  const auto plain = pattern_bytes(37);  // deliberately not block-aligned
  const aes::Aes128 ref(kKey);
  const auto want = aes::ctr_crypt(ref, std::span<const std::uint8_t, 16>(kIv), plain);

  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind);
    e->load_key(kKey);
    const engine::EngineBlockCipher c(*e);
    const auto got = aes::ctr_crypt(c, std::span<const std::uint8_t, 16>(kIv), plain);
    EXPECT_EQ(got, want) << "ctr_crypt mismatch on engine " << e->name();
    // CTR decrypts with the same forward operation.
    const auto back = aes::ctr_crypt(c, std::span<const std::uint8_t, 16>(kIv), got);
    EXPECT_EQ(back, plain) << "ctr round-trip mismatch on engine " << e->name();
  }
}

// FIPS-197 Appendix B through the batch path: a batch of identical
// plaintext blocks must yield the known ciphertext in every slot, and
// decrypt back, on every engine kind.
TEST(EngineConformance, BatchFipsVectorsAcrossEngines) {
  constexpr std::size_t kBlocks = 5;  // deliberately a partial batch
  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind);
    e->load_key(engine::kFipsBKey);
    std::vector<std::uint8_t> in, out(16 * kBlocks), back(16 * kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i)
      in.insert(in.end(), engine::kFipsBPlain.begin(), engine::kFipsBPlain.end());
    e->process_batch(in, out, /*encrypt=*/true);
    for (std::size_t i = 0; i < kBlocks; ++i)
      EXPECT_TRUE(std::equal(engine::kFipsBCipher.begin(), engine::kFipsBCipher.end(),
                             out.begin() + static_cast<std::ptrdiff_t>(16 * i)))
          << "engine " << e->name() << " block " << i;
    e->process_batch(out, back, /*encrypt=*/false);
    EXPECT_EQ(back, in) << "engine " << e->name();
    EXPECT_EQ(e->batch_stats().blocks, 2 * kBlocks);
    EXPECT_EQ(e->batch_stats().calls, 2u);
  }
}

// process_batch must be indistinguishable from the scalar loop — same
// ciphertexts AND the same cycles() growth — on every engine, at batch
// sizes that cross the netlist engine's lane boundary (64 on the portable
// backend, up to 512 on AVX-512 — sized off batch_lanes() so the test
// crosses it whatever backend the host resolves).
TEST(EngineConformance, BatchMatchesScalarBytesAndCycles) {
  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto scalar = engine::make_engine(kind);
    const auto batched = engine::make_engine(kind);
    scalar->load_key(kKey);
    batched->load_key(kKey);

    // lanes + 6 blocks: one full-width pass plus a 6-lane partial for the
    // netlist engine; a plain 70-block loop for the others.
    const std::size_t blocks =
        kind == EngineKind::kNetlist ? batched->batch_lanes() + 6 : 70;
    const auto plain = pattern_bytes(blocks * 16);

    std::vector<std::uint8_t> want(plain.size());
    for (std::size_t i = 0; i < plain.size(); i += 16) {
      const auto r = scalar->process_block(
          std::span<const std::uint8_t>(plain.data() + i, 16), /*encrypt=*/true);
      std::copy(r.begin(), r.end(), want.begin() + static_cast<std::ptrdiff_t>(i));
    }

    std::vector<std::uint8_t> got(plain.size());
    batched->process_batch(plain, got, /*encrypt=*/true);
    EXPECT_EQ(got, want) << "engine " << scalar->name();
    EXPECT_EQ(batched->cycles(), scalar->cycles())
        << "batch path must cost the same simulated cycles on " << scalar->name();

    std::vector<std::uint8_t> back(plain.size());
    batched->process_batch(got, back, /*encrypt=*/false);
    EXPECT_EQ(back, plain) << "engine " << scalar->name();

    const auto& stats = batched->batch_stats();
    EXPECT_EQ(stats.blocks, 2 * blocks);
    if (kind == EngineKind::kNetlist) {
      EXPECT_GE(batched->batch_lanes(), 64u);
      EXPECT_EQ(stats.passes, 4u);  // (lanes + 6) lanes, twice
      EXPECT_NEAR(stats.mean_lanes(), static_cast<double>(blocks) / 2.0, 1e-9);
    } else {
      EXPECT_EQ(stats.passes, 2 * blocks);  // loop engines: one block per pass
    }
  }
}

// After a keyed call, process_batch and process_block run under the
// engine key: the key of the keyed call's last block, or the last key
// given to load_key or rekey.  Every block must match the aes:: result
// under it, and the netlist and behavioral engines must charge the same
// cycles for those calls.
TEST(EngineConformance, UnkeyedCallsRunUnderTheEngineKey) {
  std::array<std::uint8_t, 16> k2 = kKey;
  k2[0] ^= 0xff;
  const aes::Aes128 ref1(kKey), ref2(k2);
  const auto plain = pattern_bytes(16 * 4);
  const std::span<const std::uint8_t> first3 = std::span(plain).first(16 * 3);
  std::map<EngineKind, std::uint64_t> growth;
  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind);
    e->load_key(kKey);
    std::vector<std::uint8_t> keyed(first3.size());
    engine::CipherEngine::KeySpan span{k2, 3};
    e->process_keyed(first3, keyed, std::span(&span, 1), /*encrypt=*/true);
    EXPECT_EQ(keyed, aes::ecb_encrypt(ref2, first3)) << e->name();
    EXPECT_TRUE(e->key_resident(k2)) << e->name();

    const std::uint64_t c0 = e->cycles();
    std::vector<std::uint8_t> out(plain.size());
    e->process_batch(plain, out, /*encrypt=*/true);
    EXPECT_EQ(out, aes::ecb_encrypt(ref2, plain)) << e->name() << " batch after a keyed call";
    const auto back = e->process_block(std::span(out).first(16), /*encrypt=*/false);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), plain.begin()))
        << e->name() << " block after a keyed call";
    growth[kind] = e->cycles() - c0;

    // The rekey itself may differ: a netlist lane may still hold the key.
    e->rekey(kKey);
    const std::uint64_t c1 = e->cycles();
    e->process_batch(plain, out, /*encrypt=*/true);
    EXPECT_EQ(out, aes::ecb_encrypt(ref1, plain)) << e->name() << " batch after rekey";
    growth[kind] += e->cycles() - c1;
  }
  EXPECT_GT(growth[EngineKind::kBehavioral], 0u);
  EXPECT_EQ(growth[EngineKind::kNetlist], growth[EngineKind::kBehavioral]);
}

// Malformed batch spans are rejected up front on every engine.
TEST(EngineConformance, BatchSpanValidation) {
  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind);
    e->load_key(kKey);
    std::vector<std::uint8_t> a(32), b(16), c(17);
    EXPECT_THROW(e->process_batch(a, b), std::invalid_argument) << e->name();
    EXPECT_THROW(e->process_batch(c, c), std::invalid_argument) << e->name();
  }
}

// Every member of the round-engine variant family must pass the full
// conformance suite — FIPS-197 Appendix B + C.1 both directions plus the
// Monte Carlo chain — AND honor its own declared schedule (latency, key
// setup, cycles/round), on the behavioral twin.
TEST(EngineConformance, VariantFamilyBehavioralFullSuite) {
  for (const auto& spec : arch::VariantSpec::family()) {
    const auto e = engine::make_engine(EngineKind::kBehavioral, spec);
    const auto expect = engine::timing_for_variant(spec, core::IpMode::kBoth);
    const auto r = engine::run_conformance(*e, expect, /*monte_carlo_iters=*/200);
    EXPECT_TRUE(r.ok()) << spec.name() << ": "
                        << (r.messages.empty() ? "" : r.messages.front());
    EXPECT_GT(r.total_cycles, 0u) << spec.name();
  }
}

// The same contract at gate level: each variant's synthesized netlist,
// driven through GateIpDriver, against the variant's own schedule. The
// pipelined netlists are large, so the Monte Carlo tail is kept short —
// the vectors and the timing invariants are the contract here.
TEST(EngineConformance, VariantFamilyNetlistVectors) {
  for (const auto& spec : arch::VariantSpec::family()) {
    const auto e = engine::make_engine(EngineKind::kNetlist, spec);
    const auto expect = engine::timing_for_variant(spec, core::IpMode::kBoth);
    const auto r = engine::run_conformance(*e, expect, /*monte_carlo_iters=*/2);
    EXPECT_TRUE(r.ok()) << spec.name() << ": "
                        << (r.messages.empty() ? "" : r.messages.front());
    EXPECT_GT(r.total_cycles, 0u) << spec.name();
  }
}

// CBC and CTR traffic through EngineBlockCipher must be variant-invariant:
// every family member computes the same function as the software reference,
// whatever its schedule.
TEST(EngineConformance, VariantCbcCtrEquivalence) {
  const auto cbc_plain = aes::pkcs7_pad(pattern_bytes(41));
  const auto ctr_plain = pattern_bytes(37);
  const aes::Aes128 ref(kKey);
  const auto want_cbc = aes::cbc_encrypt(ref, std::span<const std::uint8_t, 16>(kIv), cbc_plain);
  const auto want_ctr = aes::ctr_crypt(ref, std::span<const std::uint8_t, 16>(kIv), ctr_plain);

  for (const auto& spec : arch::VariantSpec::family()) {
    const auto e = engine::make_engine(EngineKind::kBehavioral, spec);
    e->load_key(kKey);
    const engine::EngineBlockCipher c(*e);
    const auto got_cbc = aes::cbc_encrypt(c, std::span<const std::uint8_t, 16>(kIv), cbc_plain);
    EXPECT_EQ(got_cbc, want_cbc) << "cbc mismatch on variant " << spec.name();
    const auto back = aes::cbc_decrypt(c, std::span<const std::uint8_t, 16>(kIv), got_cbc);
    EXPECT_EQ(back, cbc_plain) << "cbc round-trip mismatch on variant " << spec.name();
    const auto got_ctr = aes::ctr_crypt(c, std::span<const std::uint8_t, 16>(kIv), ctr_plain);
    EXPECT_EQ(got_ctr, want_ctr) << "ctr mismatch on variant " << spec.name();
  }
}

// process_batch must remain indistinguishable from the scalar loop on
// every variant — same bytes, same simulated cycles.
TEST(EngineConformance, VariantBatchMatchesScalar) {
  const auto plain = pattern_bytes(12 * 16);
  for (const auto& spec : arch::VariantSpec::family()) {
    const auto scalar = engine::make_engine(EngineKind::kBehavioral, spec);
    const auto batched = engine::make_engine(EngineKind::kBehavioral, spec);
    scalar->load_key(kKey);
    batched->load_key(kKey);

    std::vector<std::uint8_t> want(plain.size());
    for (std::size_t i = 0; i < plain.size(); i += 16) {
      const auto r = scalar->process_block(
          std::span<const std::uint8_t>(plain.data() + i, 16), /*encrypt=*/true);
      std::copy(r.begin(), r.end(), want.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::vector<std::uint8_t> got(plain.size());
    batched->process_batch(plain, got, /*encrypt=*/true);
    EXPECT_EQ(got, want) << "variant " << spec.name();
    EXPECT_EQ(batched->cycles(), scalar->cycles()) << "variant " << spec.name();
  }
}

// The gate-level batch path (lane-packed evaluator) on a pipelined variant:
// one pass of lanes, bytes identical to the software reference.
TEST(EngineConformance, VariantNetlistBatchVectors) {
  const arch::VariantSpec spec = *arch::VariantSpec::parse("pipe5-xtime");
  const auto e = engine::make_engine(EngineKind::kNetlist, spec);
  e->load_key(kKey);
  const auto plain = pattern_bytes(9 * 16);  // partial batch, one pass
  const aes::Aes128 ref(kKey);
  std::vector<std::uint8_t> want(plain.size()), got(plain.size()), back(plain.size());
  for (std::size_t i = 0; i < plain.size(); i += 16)
    ref.encrypt_block(std::span(plain).subspan(i, 16), std::span(want).subspan(i, 16));
  e->process_batch(plain, got, /*encrypt=*/true);
  EXPECT_EQ(got, want);
  e->process_batch(got, back, /*encrypt=*/false);
  EXPECT_EQ(back, plain);
}

// FIPS-197 Appendix C.2 (192) / C.3 (256) plus the per-size Monte Carlo
// chain on every engine kind, each held to the iterative core's
// generalized cycle contracts (5*Nr latency, 4*Nr decrypt key setup).
TEST(EngineConformance, WideKeySuitesAcrossEngines) {
  for (const int kb : {192, 256}) {
    arch::VariantSpec spec;  // the paper's iterative core at this key size
    spec.key_bits = kb;
    for (const auto kind :
         {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
      const auto e = engine::make_engine(kind, spec);
      const int mc = kind == EngineKind::kNetlist ? 4 : 1000;
      const auto r = engine::run_conformance(
          *e, engine::timing_for_variant(spec, core::IpMode::kBoth), mc);
      EXPECT_TRUE(r.ok()) << kb << "-bit " << e->name() << ": "
                          << (r.messages.empty() ? "" : r.messages.front());
      EXPECT_GT(r.checks, 0) << kb << "-bit " << e->name();
    }
  }
}

// The behavioral model and the synthesized netlist implement the same FSM
// at every geometry: identical cycle totals for an identical run, against
// each variant's own schedule. The stored-key-RAM variants are the only
// users of the multi-beat key load into synthesize_variant's Nk > 4
// schedule-RAM netlist.
TEST(EngineConformance, WideKeyCycleParity) {
  for (const char* name : {"iter-xtime@192", "iter-xtime@256", "unroll-xtime@192",
                           "unroll-xtime@256", "pipe2-xtime@192", "pipe2-xtime@256",
                           "pipe3-xtime@192"}) {
    const auto spec = arch::VariantSpec::parse(name);
    ASSERT_TRUE(spec) << name;
    const auto behavioral = engine::make_engine(EngineKind::kBehavioral, *spec);
    const auto netlist = engine::make_engine(EngineKind::kNetlist, *spec);
    const auto expect = engine::timing_for_variant(*spec, core::IpMode::kBoth);
    const auto rb = engine::run_conformance(*behavioral, expect, /*monte_carlo_iters=*/2);
    const auto rn = engine::run_conformance(*netlist, expect, /*monte_carlo_iters=*/2);
    ASSERT_TRUE(rb.ok()) << name << ": " << (rb.messages.empty() ? "" : rb.messages.front());
    ASSERT_TRUE(rn.ok()) << name << ": " << (rn.messages.empty() ? "" : rn.messages.front());
    EXPECT_EQ(rb.checks, rn.checks) << name;
    EXPECT_EQ(rb.total_cycles, rn.total_cycles) << name;
  }
}

// Batch == scalar (bytes and cycles) at every key size on every engine.
TEST(EngineConformance, WideKeyBatchMatchesScalar) {
  const auto plain = pattern_bytes(9 * 16);  // partial batch, one netlist pass
  for (const int kb : {192, 256}) {
    arch::VariantSpec spec;
    spec.key_bits = kb;
    std::vector<std::uint8_t> key(static_cast<std::size_t>(kb / 8));
    std::iota(key.begin(), key.end(), std::uint8_t{0});
    for (const auto kind :
         {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
      const auto scalar = engine::make_engine(kind, spec);
      const auto batched = engine::make_engine(kind, spec);
      scalar->load_key(key);
      batched->load_key(key);
      std::vector<std::uint8_t> want(plain.size());
      for (std::size_t i = 0; i < plain.size(); i += 16) {
        const auto r = scalar->process_block(
            std::span<const std::uint8_t>(plain.data() + i, 16), /*encrypt=*/true);
        std::copy(r.begin(), r.end(), want.begin() + static_cast<std::ptrdiff_t>(i));
      }
      std::vector<std::uint8_t> got(plain.size()), back(plain.size());
      batched->process_batch(plain, got, /*encrypt=*/true);
      EXPECT_EQ(got, want) << kb << "-bit " << scalar->name();
      EXPECT_EQ(batched->cycles(), scalar->cycles()) << kb << "-bit " << scalar->name();
      batched->process_batch(got, back, /*encrypt=*/false);
      EXPECT_EQ(back, plain) << kb << "-bit " << scalar->name();
    }
  }
}

// Cycle engines are geometry-fixed at construction: a key of any other
// length is a contract violation, not a silent reconfiguration. The
// software engine is geometry-blind and accepts all three.
TEST(EngineConformance, GeometryFixedEnginesRejectMismatchedKeys) {
  arch::VariantSpec spec;
  spec.key_bits = 192;
  const std::vector<std::uint8_t> k16(16), k24(24), k32(32), k20(20);
  for (const auto kind : {EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto e = engine::make_engine(kind, spec);
    EXPECT_NO_THROW(e->load_key(k24)) << e->name();
    EXPECT_THROW(e->load_key(k16), std::invalid_argument) << e->name();
    EXPECT_THROW(e->load_key(k32), std::invalid_argument) << e->name();
    EXPECT_THROW(e->load_key(k20), std::invalid_argument) << e->name();
  }
  const auto sw = engine::make_engine(EngineKind::kSoftware);
  EXPECT_NO_THROW(sw->load_key(k16));
  EXPECT_NO_THROW(sw->load_key(k24));
  EXPECT_NO_THROW(sw->load_key(k32));
  EXPECT_THROW(sw->load_key(k20), std::invalid_argument);
}

// The engine factory's name round-trip, including the CLI aliases.
TEST(EngineConformance, KindNamesRoundTrip) {
  for (const auto kind :
       {EngineKind::kSoftware, EngineKind::kBehavioral, EngineKind::kNetlist}) {
    const auto parsed = engine::kind_from_name(engine::kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(engine::kind_from_name("verilog").has_value());
  EXPECT_EQ(engine::kind_from_name("software"), EngineKind::kSoftware);
  EXPECT_EQ(engine::kind_from_name("ip"), EngineKind::kBehavioral);
  EXPECT_EQ(engine::kind_from_name("gate"), EngineKind::kNetlist);
}
