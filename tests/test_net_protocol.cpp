// aesip-wire-v1 robustness: the codec against malformed input, and the
// server against hostile byte streams. The contract under test: any
// corruption is detected (CRC/magic/version/length), a poisoned stream
// stays poisoned, and the server answers abuse with a clean kError frame
// and a closed session — never a crash, never a hang, never silently
// wrong output.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace net = aesip::net;

namespace {

// --- codec ------------------------------------------------------------------------

TEST(WireCrc, KnownVector) {
  // The standard CRC-32 check value: crc("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(net::crc32(bytes), 0xCBF43926u);
}

net::Frame sample_frame() {
  net::Frame f;
  f.op = net::Op::kEncBlocks;
  f.flags = 0x1234;
  f.session_id = 0xdeadbeefcafef00dull;
  f.seq = 77;
  f.payload.resize(49);
  for (std::size_t i = 0; i < f.payload.size(); ++i)
    f.payload[i] = static_cast<std::uint8_t>(i * 7);
  return f;
}

TEST(WireCodec, RoundTripAllFields) {
  const net::Frame f = sample_frame();
  const auto bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(), net::kHeaderSize + f.payload.size() + net::kTrailerSize);

  net::FrameDecoder dec;
  dec.feed(bytes);
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.op, f.op);
  EXPECT_EQ(out.flags, f.flags);
  EXPECT_EQ(out.session_id, f.session_id);
  EXPECT_EQ(out.seq, f.seq);
  EXPECT_EQ(out.payload, f.payload);
  EXPECT_EQ(dec.next(out), net::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, ByteAtATimeFeed) {
  const net::Frame f = sample_frame();
  const auto bytes = net::encode_frame(f);
  net::FrameDecoder dec;
  net::Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kNeedMore) << "at byte " << i;
  }
  dec.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(WireCodec, ManyFramesOneFeed) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    net::Frame f = sample_frame();
    f.seq = static_cast<std::uint32_t>(i);
    const auto bytes = net::encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  net::FrameDecoder dec;
  dec.feed(stream);
  net::Frame out;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kFrame);
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_EQ(dec.next(out), net::FrameDecoder::Status::kNeedMore);
}

TEST(WireCodec, BadMagicPoisons) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[0] ^= 0xff;
  net::FrameDecoder dec;
  dec.feed(bytes);
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
  EXPECT_EQ(dec.error(), net::ErrorCode::kBadMagic);
  // Poisoned: even a pristine frame afterwards is rejected — framing is lost.
  dec.feed(net::encode_frame(sample_frame()));
  EXPECT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
}

TEST(WireCodec, BadVersionRejected) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[4] = net::kWireVersion + 1;
  net::FrameDecoder dec;
  dec.feed(bytes);
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
  EXPECT_EQ(dec.error(), net::ErrorCode::kBadVersion);
}

TEST(WireCodec, OversizedRejectedFromHeaderAlone) {
  // A length field over the bound must be rejected as soon as the header
  // is complete — without waiting to buffer the claimed payload.
  net::Frame f = sample_frame();
  f.payload.resize(100);
  auto bytes = net::encode_frame(f);
  net::FrameDecoder dec(/*max_payload=*/64);
  dec.feed(std::span<const std::uint8_t>(bytes.data(), net::kHeaderSize));
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
  EXPECT_EQ(dec.error(), net::ErrorCode::kOversized);
}

TEST(WireCodec, CrcMismatchOnFlippedPayloadBit) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[net::kHeaderSize + 10] ^= 0x01;
  net::FrameDecoder dec;
  dec.feed(bytes);
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
  EXPECT_EQ(dec.error(), net::ErrorCode::kBadCrc);
}

TEST(WireCodec, CrcCoversHeaderToo) {
  auto bytes = net::encode_frame(sample_frame());
  bytes[8] ^= 0x80;  // a session_id bit
  net::FrameDecoder dec;
  dec.feed(bytes);
  net::Frame out;
  ASSERT_EQ(dec.next(out), net::FrameDecoder::Status::kBad);
  EXPECT_EQ(dec.error(), net::ErrorCode::kBadCrc);
}

TEST(WireCodec, TruncatedFrameJustWaits) {
  const auto bytes = net::encode_frame(sample_frame());
  net::FrameDecoder dec;
  dec.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
  net::Frame out;
  EXPECT_EQ(dec.next(out), net::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.error(), net::ErrorCode::kNone);
}

// --- the sliced CRC and the contiguous decoder -----------------------------------

/// CRC-32 one bit at a time, straight from the reflected polynomial: the
/// reference the sliced implementation must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// Every length 0..80 (the 16-byte steps, the byte tail and both mixed) at
// every start offset 0..15 (so every alignment of the word loads), and
// every split of each run into two chained calls.
TEST(WireCrc, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const auto buf = random_bytes(16 + 80, 31);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 80; ++len) {
      const std::span<const std::uint8_t> run(buf.data() + off, len);
      const std::uint32_t want = crc32_bitwise(run);
      ASSERT_EQ(net::crc32(run), want) << "offset " << off << " length " << len;
      for (std::size_t cut = 0; cut <= len; ++cut)
        ASSERT_EQ(net::crc32(run.subspan(cut), net::crc32(run.first(cut))), want)
            << "offset " << off << " length " << len << " chained at " << cut;
    }
  }
}

TEST(WireCrc, MatchesBitwiseReferenceOn64KiB) {
  const auto buf = random_bytes(std::size_t{64} << 10, 32);
  const std::uint32_t want = crc32_bitwise(buf);
  EXPECT_EQ(net::crc32(buf), want);
  const std::span<const std::uint8_t> all(buf);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4095}, std::size_t{40000}})
    EXPECT_EQ(net::crc32(all.subspan(cut), net::crc32(all.first(cut))), want) << cut;
}

// The wire format byte for byte: header fields little-endian at their
// offsets, the payload, and the CRC-32 of everything before it.
TEST(WireCodec, GoldenBytes) {
  net::Frame f;
  f.op = net::Op::kEncBlocks;
  f.flags = 0x1234;
  f.session_id = 0xdeadbeefcafef00dull;
  f.seq = 77;
  for (std::uint8_t i = 0; i < 17; ++i) f.payload.push_back(i);
  const std::vector<std::uint8_t> golden = {
      0x41, 0x45, 0x53, 0x57,                          // magic "AESW"
      0x01,                                            // version
      0x04,                                            // opcode kEncBlocks
      0x34, 0x12,                                      // flags
      0x0d, 0xf0, 0xfe, 0xca, 0xef, 0xbe, 0xad, 0xde,  // session_id
      0x4d, 0x00, 0x00, 0x00,                          // seq
      0x11, 0x00, 0x00, 0x00,                          // payload_len
      0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
      0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10,  // payload
      0xd9, 0x2f, 0xf8, 0xc0,                          // crc32
  };
  EXPECT_EQ(net::encode_frame(f), golden);
}

// netlist-bulk sized frames (1024 blocks each) arriving in seeded random
// chunks of 1..5000 bytes: every frame comes out whole and in order, and
// nothing stays buffered once the stream is consumed.
TEST(WireCodec, BulkFramesInRandomChunks) {
  constexpr std::size_t kFrames = 12;
  std::vector<net::Frame> sent;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    net::Frame f;
    f.op = i % 2 ? net::Op::kResult : net::Op::kEncBlocks;
    f.session_id = 0x1000 + i;
    f.seq = static_cast<std::uint32_t>(i);
    f.payload = random_bytes(1 + 16 + 1024 * 16, 40 + static_cast<std::uint32_t>(i));
    const auto bytes = net::encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    sent.push_back(std::move(f));
  }
  std::mt19937 rng(41);
  std::uniform_int_distribution<std::size_t> chunk(1, 5000);
  net::FrameDecoder dec;
  net::Frame out;
  std::size_t got = 0;
  for (std::size_t pos = 0; pos < stream.size();) {
    const std::size_t n = std::min(chunk(rng), stream.size() - pos);
    dec.feed(std::span<const std::uint8_t>(stream.data() + pos, n));
    pos += n;
    for (net::FrameDecoder::Status st; (st = dec.next(out)) != net::FrameDecoder::Status::kNeedMore;) {
      ASSERT_EQ(st, net::FrameDecoder::Status::kFrame) << net::error_code_name(dec.error());
      ASSERT_LT(got, kFrames);
      const net::Frame& want = sent[got++];
      EXPECT_EQ(out.op, want.op);
      EXPECT_EQ(out.session_id, want.session_id);
      EXPECT_EQ(out.seq, want.seq);
      ASSERT_EQ(out.payload, want.payload) << "frame " << got - 1;
    }
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireError, PayloadRoundTrip) {
  const auto p = net::encode_error_payload(net::ErrorCode::kNoKey, "no key installed");
  net::ErrorCode code;
  std::string msg;
  net::decode_error_payload(p, code, msg);
  EXPECT_EQ(code, net::ErrorCode::kNoKey);
  EXPECT_EQ(msg, "no key installed");

  // Garbled short payloads must not throw.
  net::decode_error_payload(std::span<const std::uint8_t>(p.data(), 1), code, msg);
  EXPECT_EQ(code, net::ErrorCode::kInternal);
  EXPECT_TRUE(msg.empty());
}

TEST(WireNames, OpcodesAndErrors) {
  EXPECT_STREQ(net::op_name(net::Op::kEncBlocks), "enc_blocks");
  EXPECT_STREQ(net::op_name(net::Op::kError), "error");
  EXPECT_TRUE(net::is_request_op(net::Op::kHello));
  EXPECT_TRUE(net::is_request_op(net::Op::kCtrStream));
  EXPECT_FALSE(net::is_request_op(net::Op::kResult));
  EXPECT_FALSE(net::is_request_op(net::Op::kError));
  EXPECT_STREQ(net::error_code_name(net::ErrorCode::kWindowExceeded), "window_exceeded");
}

// --- the server under abuse -------------------------------------------------------

// A raw-bytes peer: writes arbitrary streams and reads whatever frames
// come back, bypassing net::Client's discipline entirely.
struct RawPeer {
  std::unique_ptr<net::Conn> conn;
  net::FrameDecoder decoder;
  bool eof = false;

  void write_all(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto r = conn->write_some(bytes.subspan(off));
      if (r.status == net::IoStatus::kOk) {
        off += r.n;
      } else if (r.status == net::IoStatus::kWouldBlock) {
        conn->wait_writable(std::chrono::milliseconds(50));
      } else {
        return;  // server already cut us off — the frames sent so far stand
      }
    }
  }

  void write_frame(const net::Frame& f) { write_all(net::encode_frame(f)); }

  /// Read until a frame pops, EOF, or the deadline. Nullopt on EOF/timeout.
  std::optional<net::Frame> read_frame(std::chrono::milliseconds timeout =
                                           std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::uint8_t buf[1024];
    net::Frame f;
    for (;;) {
      if (decoder.next(f) == net::FrameDecoder::Status::kFrame) return f;
      const auto r = conn->read_some(buf);
      if (r.status == net::IoStatus::kOk) {
        decoder.feed(std::span<const std::uint8_t>(buf, r.n));
      } else if (r.status == net::IoStatus::kEof) {
        if (decoder.next(f) == net::FrameDecoder::Status::kFrame) return f;
        eof = true;
        return std::nullopt;
      } else if (r.status == net::IoStatus::kWouldBlock) {
        if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
        conn->wait_readable(std::chrono::milliseconds(10));
      } else {
        eof = true;
        return std::nullopt;
      }
    }
  }

  /// Drain until EOF (the server closed our session), bounded by a deadline.
  bool wait_eof(std::chrono::milliseconds timeout = std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::uint8_t buf[1024];
    while (std::chrono::steady_clock::now() < deadline) {
      const auto r = conn->read_some(buf);
      if (r.status == net::IoStatus::kEof || r.status == net::IoStatus::kError) return true;
      if (r.status == net::IoStatus::kWouldBlock)
        conn->wait_readable(std::chrono::milliseconds(10));
    }
    return false;
  }
};

struct AbuseServer {
  net::LoopbackTransport transport;
  net::Server server;

  explicit AbuseServer(net::ServerConfig cfg = make_cfg())
      : transport(), server(transport, "abuse", cfg) {
    server.start();
  }
  ~AbuseServer() { server.stop(); }

  static net::ServerConfig make_cfg() {
    net::ServerConfig cfg;
    cfg.farm.workers = 1;
    cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
    return cfg;
  }

  RawPeer peer() { return RawPeer{transport.connect("abuse"), net::FrameDecoder{}, false}; }
};

net::Frame make_req(net::Op op, std::uint32_t seq, std::vector<std::uint8_t> payload = {}) {
  net::Frame f;
  f.op = op;
  f.session_id = 1;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

net::ErrorCode error_code_of(const net::Frame& f) {
  net::ErrorCode code;
  std::string msg;
  net::decode_error_payload(f.payload, code, msg);
  return code;
}

TEST(ServerAbuse, GarbageBytesGetErrorFrameThenClose) {
  AbuseServer s;
  auto peer = s.peer();
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = static_cast<std::uint8_t>(0xc3 ^ i);
  peer.write_all(garbage);

  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kBadMagic);
  EXPECT_TRUE(peer.wait_eof());
}

TEST(ServerAbuse, CorruptedCrcMidSessionCloses) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer.read_frame().has_value());  // kHelloOk

  auto bytes = net::encode_frame(make_req(net::Op::kStats, 1));
  bytes[10] ^= 0x40;  // flip a session_id bit in flight
  peer.write_all(bytes);

  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kBadCrc);
  EXPECT_TRUE(peer.wait_eof());
}

TEST(ServerAbuse, OversizedFrameRejected) {
  net::ServerConfig cfg = AbuseServer::make_cfg();
  cfg.max_payload = 256;
  AbuseServer s(cfg);
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  const auto hello = peer.read_frame();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(net::get_u32(hello->payload, 0), 256u);  // advertised bound

  peer.write_frame(make_req(net::Op::kCtrStream, 1, std::vector<std::uint8_t>(512)));
  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kOversized);
  EXPECT_TRUE(peer.wait_eof());
}

TEST(ServerAbuse, FirstFrameMustBeHello) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kStats, 0));
  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kNotHello);
  EXPECT_TRUE(peer.wait_eof());
}

TEST(ServerAbuse, UnknownOpcodeCloses) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer.read_frame().has_value());

  net::Frame f = make_req(net::Op::kHello, 1);
  f.op = static_cast<net::Op>(0x55);
  peer.write_frame(f);
  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kUnknownOpcode);
  EXPECT_TRUE(peer.wait_eof());

  // A server->client opcode arriving at the server is equally unknown.
  auto peer2 = s.peer();
  peer2.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer2.read_frame().has_value());
  peer2.write_frame(make_req(net::Op::kResult, 1));
  const auto err2 = peer2.read_frame();
  ASSERT_TRUE(err2.has_value());
  EXPECT_EQ(error_code_of(*err2), net::ErrorCode::kUnknownOpcode);
}

TEST(ServerAbuse, DataBeforeKeyIsRecoverable) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer.read_frame().has_value());

  std::vector<std::uint8_t> payload(17 + 16);  // mode+iv+1 block, but no key yet
  peer.write_frame(make_req(net::Op::kEncBlocks, 1, payload));
  const auto err = peer.read_frame();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->op, net::Op::kError);
  EXPECT_EQ(error_code_of(*err), net::ErrorCode::kNoKey);

  // kNoKey is not fatal: install a key and the same frame succeeds.
  peer.write_frame(make_req(net::Op::kSetKey, 2, std::vector<std::uint8_t>(16, 0x11)));
  const auto keyok = peer.read_frame();
  ASSERT_TRUE(keyok.has_value());
  EXPECT_EQ(keyok->op, net::Op::kKeyOk);
  peer.write_frame(make_req(net::Op::kEncBlocks, 3, payload));
  const auto res = peer.read_frame();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->op, net::Op::kResult);
  EXPECT_EQ(res->payload.size(), 16u);
}

TEST(ServerAbuse, MalformedDataPayloadsAreRejectedCleanly) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer.read_frame().has_value());
  peer.write_frame(make_req(net::Op::kSetKey, 1, std::vector<std::uint8_t>(16, 0x22)));
  ASSERT_TRUE(peer.read_frame().has_value());

  struct Case {
    net::Op op;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Case> cases;
  cases.push_back({net::Op::kSetKey, std::vector<std::uint8_t>(15)});     // short key
  cases.push_back({net::Op::kEncBlocks, std::vector<std::uint8_t>(17)});  // no data
  cases.push_back({net::Op::kEncBlocks, std::vector<std::uint8_t>(17 + 15)});  // ragged
  {
    std::vector<std::uint8_t> bad_mode(17 + 16);
    bad_mode[0] = 2;  // neither ECB nor CBC
    cases.push_back({net::Op::kEncBlocks, std::move(bad_mode)});
  }
  cases.push_back({net::Op::kDecBlocks, std::vector<std::uint8_t>(17 + 7)});
  cases.push_back({net::Op::kCtrStream, std::vector<std::uint8_t>(16)});  // empty stream

  std::uint32_t seq = 2;
  for (const auto& c : cases) {
    peer.write_frame(make_req(c.op, seq, c.payload));
    const auto err = peer.read_frame();
    ASSERT_TRUE(err.has_value()) << "case seq " << seq;
    EXPECT_EQ(err->op, net::Op::kError) << "case seq " << seq;
    EXPECT_EQ(error_code_of(*err), net::ErrorCode::kBadPayload) << "case seq " << seq;
    ++seq;
  }

  // None of those were fatal: the session still works.
  peer.write_frame(make_req(net::Op::kEncBlocks, seq, std::vector<std::uint8_t>(17 + 16)));
  const auto res = peer.read_frame();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->op, net::Op::kResult);
}

TEST(ServerAbuse, KeyLengthsValidatedOnTheWire) {
  AbuseServer s;
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  ASSERT_TRUE(peer.read_frame().has_value());

  // Anything that is not exactly 16/24/32 bytes is kBadPayload — including
  // the empty key and off-by-one lengths around every legal size.
  std::uint32_t seq = 1;
  for (const std::size_t n : {0u, 1u, 15u, 17u, 23u, 25u, 31u, 33u, 64u}) {
    for (const auto op : {net::Op::kSetKey, net::Op::kRekey}) {
      peer.write_frame(make_req(op, seq, std::vector<std::uint8_t>(n, 0x5a)));
      const auto err = peer.read_frame();
      ASSERT_TRUE(err.has_value()) << "len " << n;
      EXPECT_EQ(err->op, net::Op::kError) << "len " << n;
      EXPECT_EQ(error_code_of(*err), net::ErrorCode::kBadPayload) << "len " << n;
      ++seq;
    }
  }

  // All three legal lengths install (and none of the rejections was fatal):
  // a data frame after each 16/24/32-byte key is answered with the matching
  // geometry's bytes.
  for (const std::size_t n : {16u, 24u, 32u}) {
    const std::vector<std::uint8_t> key(n, static_cast<std::uint8_t>(n));
    peer.write_frame(make_req(net::Op::kSetKey, seq, key));
    const auto keyok = peer.read_frame();
    ASSERT_TRUE(keyok.has_value()) << "len " << n;
    EXPECT_EQ(keyok->op, net::Op::kKeyOk) << "len " << n;
    ++seq;

    std::vector<std::uint8_t> payload(17 + 16);  // ECB, one zero block
    peer.write_frame(make_req(net::Op::kEncBlocks, seq, payload));
    const auto res = peer.read_frame();
    ASSERT_TRUE(res.has_value()) << "len " << n;
    ASSERT_EQ(res->op, net::Op::kResult) << "len " << n;
    const auto ref = aesip::aes::Rijndael::for_key(key);
    std::array<std::uint8_t, 16> want{};
    ref.encrypt_block(std::array<std::uint8_t, 16>{}, want);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), res->payload.begin()))
        << "len " << n;
    ++seq;
  }
}

TEST(ServerAbuse, WindowOverrunIsCutOff) {
  net::ServerConfig cfg = AbuseServer::make_cfg();
  cfg.window = 2;
  // Behavioral engine + chunky payloads: each request takes real simulated
  // work, so a burst far past the window is decoded while earlier frames
  // are still in flight.
  cfg.farm.engine = aesip::engine::EngineKind::kBehavioral;
  AbuseServer s(cfg);
  auto peer = s.peer();
  peer.write_frame(make_req(net::Op::kHello, 0));
  const auto hello = peer.read_frame();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(net::get_u32(hello->payload, 4), 2u);  // advertised window
  peer.write_frame(make_req(net::Op::kSetKey, 1, std::vector<std::uint8_t>(16, 0x33)));
  ASSERT_TRUE(peer.read_frame().has_value());

  std::vector<std::uint8_t> payload(17 + 128 * 16);  // 128 blocks each
  for (std::uint32_t seq = 2; seq < 34; ++seq)  // 32 >> window of 2, never reading
    peer.write_frame(make_req(net::Op::kEncBlocks, seq, payload));

  // Among the responses there must be a WINDOW_EXCEEDED error, and the
  // server must close the session after it.
  bool saw_violation = false;
  while (auto f = peer.read_frame(std::chrono::milliseconds(10000))) {
    if (f->op == net::Op::kError &&
        error_code_of(*f) == net::ErrorCode::kWindowExceeded) {
      saw_violation = true;
      break;
    }
    ASSERT_EQ(f->op, net::Op::kResult);  // pre-violation frames still answered
  }
  EXPECT_TRUE(saw_violation);
  EXPECT_TRUE(peer.wait_eof(std::chrono::milliseconds(10000)));
}

TEST(ServerAbuse, AbruptDisconnectLeavesServerServing) {
  AbuseServer s;
  {
    auto peer = s.peer();
    peer.write_frame(make_req(net::Op::kHello, 0));
    ASSERT_TRUE(peer.read_frame().has_value());
    peer.conn->close();  // vanish without kBye
  }
  // The server must keep serving fresh sessions.
  auto peer2 = s.peer();
  peer2.write_frame(make_req(net::Op::kHello, 0));
  const auto hello = peer2.read_frame();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->op, net::Op::kHelloOk);
}

}  // namespace
