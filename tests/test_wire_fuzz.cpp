// Deterministic mutation fuzzing of net::FrameDecoder, the first parser a
// network peer reaches. Seed frames like those of the codec tests in
// test_net_protocol.cpp are mutated four ways (byte flips, length-field
// lies, truncations, splices), 25 000 seeded inputs each, and every input
// is fed in seeded random fragments. The contract under test:
//
//   - every frame the decoder yields is exactly what some bytes of the
//     input encode, CRC included (re-encoding it reproduces them);
//   - every other outcome is kNeedMore on a strict prefix of a frame, or
//     kBad with a typed error() that sticks;
//   - the outcome does not depend on how the input was fragmented (a
//     one-shot decode of the whole input, written from the format spec in
//     wire.hpp, is the oracle);
//   - work and memory stay bounded: one next() per frame plus one per
//     feed, and never more than one frame's bytes buffered while it waits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace net = aesip::net;
using Bytes = std::vector<std::uint8_t>;
using Status = net::FrameDecoder::Status;

namespace {

constexpr std::size_t kMaxPayload = 2048;  // small, so kOversized is reachable
constexpr int kIterations = 25'000;        // per mutation class

Bytes encode(net::Op op, std::uint64_t sid, std::uint32_t seq, Bytes payload,
             std::uint16_t flags = 0) {
  net::Frame f;
  f.op = op;
  f.flags = flags;
  f.session_id = sid;
  f.seq = seq;
  f.payload = std::move(payload);
  return net::encode_frame(f);
}

Bytes counting(std::size_t n, unsigned mul) {
  Bytes v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * mul);
  return v;
}

/// The seed corpus: single frames of every payload shape the codec tests
/// use, and multi-frame streams so mutations can land between frames.
std::vector<Bytes> seeds() {
  std::vector<Bytes> s;
  s.push_back(encode(net::Op::kEncBlocks, 0xdeadbeefcafef00dull, 77, counting(49, 7), 0x1234));
  s.push_back(encode(net::Op::kHello, 1, 0, {}));
  s.push_back(encode(net::Op::kSetKey, 2, 1, counting(16, 13)));
  s.push_back(encode(net::Op::kError, 3, 9,
                     net::encode_error_payload(net::ErrorCode::kNoKey, "no key installed")));
  s.push_back(encode(net::Op::kEncBlocks, 4, 2, counting(1 + 16 + 64 * 16, 3)));
  Bytes stream;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Bytes f = encode(i % 2 ? net::Op::kResult : net::Op::kDecBlocks, 5, i,
                           counting(17 + 16 * i, 5 + i));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  s.push_back(stream);
  return s;
}

/// Offsets in `in` where a frame header could start by the seed layout:
/// 0 and every point the stated lengths chain to.
std::vector<std::size_t> frame_starts(const Bytes& in) {
  std::vector<std::size_t> at{0};
  for (std::size_t p = 0; p + net::kHeaderSize <= in.size();) {
    p += net::kHeaderSize + net::get_u32(in, p + 20) + net::kTrailerSize;
    if (p >= in.size()) break;
    at.push_back(p);
  }
  return at;
}

// --- mutators -----------------------------------------------------------------

void flip_bytes(Bytes& in, std::mt19937& rng) {
  if (in.empty()) return;
  const int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    auto& b = in[rng() % in.size()];
    b = rng() % 2 ? static_cast<std::uint8_t>(b ^ (1u << (rng() % 8)))
                  : static_cast<std::uint8_t>(rng());
  }
}

/// Rewrite one frame's payload_len. Half the lies are re-sealed with a CRC
/// over the bytes the lie now claims, so they decode as frames of a
/// different shape and the decoder's framing after them is exercised too.
void lie_about_length(Bytes& in, std::mt19937& rng) {
  const auto starts = frame_starts(in);
  const std::size_t at = starts[rng() % starts.size()];
  if (at + net::kHeaderSize > in.size()) return;
  const std::uint32_t len = net::get_u32(in, at + 20);
  std::uint32_t lie = 0;
  switch (rng() % 6) {
    case 0: lie = len + 1 + static_cast<std::uint32_t>(rng() % 32); break;
    case 1: lie = len - std::min(len, 1 + static_cast<std::uint32_t>(rng() % 32)); break;
    case 2: lie = 0; break;
    case 3: lie = static_cast<std::uint32_t>(kMaxPayload + rng() % 2); break;
    case 4: lie = 0xffffffffu; break;
    default: lie = static_cast<std::uint32_t>(rng()); break;
  }
  for (int i = 0; i < 4; ++i)
    in[at + 20 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(lie >> (8 * i));
  const std::size_t body = net::kHeaderSize + lie;
  if (rng() % 2 && lie <= kMaxPayload && at + body + net::kTrailerSize <= in.size()) {
    const std::uint32_t crc = net::crc32(std::span<const std::uint8_t>(in.data() + at, body));
    for (int i = 0; i < 4; ++i)
      in[at + body + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

void truncate(Bytes& in, std::mt19937& rng) {
  in.resize(rng() % (in.size() + 1));
}

/// Join a prefix of `in` with a suffix (or an inserted run) of another seed.
void splice(Bytes& in, const std::vector<Bytes>& corpus, std::mt19937& rng) {
  const Bytes& other = corpus[rng() % corpus.size()];
  const std::size_t cut = rng() % (in.size() + 1);
  const std::size_t from = rng() % (other.size() + 1);
  if (rng() % 2) {
    in.resize(cut);
    in.insert(in.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
  } else {
    const std::size_t n = rng() % (other.size() - from + 1);
    in.insert(in.begin() + static_cast<std::ptrdiff_t>(cut),
              other.begin() + static_cast<std::ptrdiff_t>(from),
              other.begin() + static_cast<std::ptrdiff_t>(from + n));
  }
}

// --- the oracle and the check -----------------------------------------------------

struct Outcome {
  std::size_t frames = 0;
  std::size_t consumed = 0;  ///< bytes of the input the frames account for
  Status last = Status::kNeedMore;
  net::ErrorCode error = net::ErrorCode::kNone;
};

/// One-shot decode of the whole input, from the format table in wire.hpp.
Outcome reference_decode(const Bytes& in) {
  Outcome o;
  for (;;) {
    const std::span<const std::uint8_t> rest(in.data() + o.consumed, in.size() - o.consumed);
    if (rest.size() < net::kHeaderSize) return o;
    net::ErrorCode bad = net::ErrorCode::kNone;
    const std::uint32_t len = net::get_u32(rest, 20);
    if (net::get_u32(rest, 0) != net::kWireMagic)
      bad = net::ErrorCode::kBadMagic;
    else if (rest[4] != net::kWireVersion)
      bad = net::ErrorCode::kBadVersion;
    else if (len > kMaxPayload)
      bad = net::ErrorCode::kOversized;
    else if (rest.size() < net::kHeaderSize + len + net::kTrailerSize)
      return o;
    else if (net::crc32(rest.first(net::kHeaderSize + len)) !=
             net::get_u32(rest, net::kHeaderSize + len))
      bad = net::ErrorCode::kBadCrc;
    if (bad != net::ErrorCode::kNone) {
      o.last = Status::kBad;
      o.error = bad;
      return o;
    }
    ++o.frames;
    o.consumed += net::kHeaderSize + len + net::kTrailerSize;
  }
}

/// Feed `in` to a fresh decoder in random fragments and check the contract.
void check_input(const Bytes& in, std::mt19937& rng) {
  const Outcome want = reference_decode(in);
  net::FrameDecoder dec(kMaxPayload);
  net::Frame f;
  Outcome got;
  std::size_t feeds = 0, calls = 0;
  for (std::size_t pos = 0; pos < in.size() && got.last != Status::kBad;) {
    const std::size_t n = rng() % 4 == 0 ? in.size() - pos : 1 + rng() % (in.size() - pos);
    dec.feed(std::span<const std::uint8_t>(in.data() + pos, n));
    pos += n;
    ++feeds;
    for (;;) {
      ++calls;
      const Status st = dec.next(f);
      if (st == Status::kNeedMore) {
        ASSERT_EQ(dec.buffered(), pos - got.consumed);
        ASSERT_LT(dec.buffered(), net::kHeaderSize + kMaxPayload + net::kTrailerSize)
            << "a whole frame's bytes are buffered, yet the decoder asks for more";
        break;
      }
      if (st == Status::kBad) {
        got.last = st;
        got.error = dec.error();
        ASSERT_EQ(dec.next(f), Status::kBad) << "a poisoned decoder recovered";
        break;
      }
      ASSERT_EQ(st, Status::kFrame);
      ASSERT_LE(f.payload.size(), kMaxPayload);
      const Bytes again = net::encode_frame(f);
      ASSERT_LE(got.consumed + again.size(), pos);
      ASSERT_TRUE(std::equal(again.begin(), again.end(),
                             in.begin() + static_cast<std::ptrdiff_t>(got.consumed)))
          << "frame " << got.frames << " is not the bytes it was decoded from";
      got.consumed += again.size();
      ++got.frames;
    }
  }
  ASSERT_LE(calls, feeds + got.frames + 1);
  EXPECT_EQ(got.frames, want.frames);
  EXPECT_EQ(got.consumed, want.consumed);
  ASSERT_EQ(got.last, want.last);
  EXPECT_EQ(got.error, want.error) << net::error_code_name(got.error);
  if (got.last != Status::kBad) {
    EXPECT_EQ(dec.error(), net::ErrorCode::kNone);
  }
}

/// Run `kIterations` inputs, each a seed with 1..3 mutations of one class.
/// Returns how many ended in each status, so a test can check it reached
/// every outcome.
template <typename Mutate>
std::array<int, 3> fuzz(std::uint32_t seed, Mutate mutate) {
  const std::vector<Bytes> corpus = seeds();
  std::mt19937 rng(seed);
  std::array<int, 3> ends{};  // frames only, need more, bad
  for (int it = 0; it < kIterations; ++it) {
    Bytes in = corpus[rng() % corpus.size()];
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < n; ++k) mutate(in, rng, corpus);
    SCOPED_TRACE("iteration " + std::to_string(it));
    check_input(in, rng);
    if (::testing::Test::HasFailure()) break;
    const Outcome o = reference_decode(in);
    ++ends[o.last == Status::kBad ? 2 : o.consumed == in.size() ? 0 : 1];
  }
  return ends;
}

TEST(FrameDecoderFuzz, ByteFlips) {
  const auto ends = fuzz(1, [](Bytes& in, std::mt19937& rng, const auto&) { flip_bytes(in, rng); });
  EXPECT_GT(ends[2], 0);
}

TEST(FrameDecoderFuzz, LengthFieldLies) {
  const auto ends =
      fuzz(2, [](Bytes& in, std::mt19937& rng, const auto&) { lie_about_length(in, rng); });
  EXPECT_GT(ends[0], 0);
  EXPECT_GT(ends[1], 0);
  EXPECT_GT(ends[2], 0);
}

TEST(FrameDecoderFuzz, Truncations) {
  const auto ends = fuzz(3, [](Bytes& in, std::mt19937& rng, const auto&) { truncate(in, rng); });
  EXPECT_GT(ends[0], 0);
  EXPECT_GT(ends[1], 0);
}

TEST(FrameDecoderFuzz, Splices) {
  const auto ends = fuzz(4, [](Bytes& in, std::mt19937& rng, const std::vector<Bytes>& corpus) {
    splice(in, corpus, rng);
  });
  EXPECT_GT(ends[0], 0);
  EXPECT_GT(ends[1], 0);
  EXPECT_GT(ends[2], 0);
}

// Every typed error the decoder can raise is reached by the corpus.
TEST(FrameDecoderFuzz, EveryDecoderErrorIsReached) {
  const std::vector<Bytes> corpus = seeds();
  std::mt19937 rng(5);
  std::vector<net::ErrorCode> seen;
  for (int it = 0; it < 2000; ++it) {
    Bytes in = corpus[rng() % corpus.size()];
    rng() % 2 ? flip_bytes(in, rng) : lie_about_length(in, rng);
    net::FrameDecoder dec(kMaxPayload);
    dec.feed(in);
    net::Frame f;
    while (dec.next(f) == Status::kFrame) {
    }
    seen.push_back(dec.error());
  }
  for (const auto code : {net::ErrorCode::kBadMagic, net::ErrorCode::kBadVersion,
                          net::ErrorCode::kOversized, net::ErrorCode::kBadCrc})
    EXPECT_NE(std::find(seen.begin(), seen.end(), code), seen.end())
        << net::error_code_name(code);
}

}  // namespace
