#include "net/wire.hpp"

#include <array>

namespace aesip::net {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kSetKey: return "set_key";
    case Op::kRekey: return "rekey";
    case Op::kEncBlocks: return "enc_blocks";
    case Op::kDecBlocks: return "dec_blocks";
    case Op::kCtrStream: return "ctr_stream";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
    case Op::kBye: return "bye";
    case Op::kAdminFleetStatus: return "admin_fleet_status";
    case Op::kAdminSwapEngine: return "admin_swap_engine";
    case Op::kAdminQuarantine: return "admin_quarantine";
    case Op::kAdminInject: return "admin_inject";
    case Op::kGossip: return "gossip";
    case Op::kHelloOk: return "hello_ok";
    case Op::kKeyOk: return "key_ok";
    case Op::kResult: return "result";
    case Op::kStatsOk: return "stats_ok";
    case Op::kDrainOk: return "drain_ok";
    case Op::kByeOk: return "bye_ok";
    case Op::kAdminStatusOk: return "admin_status_ok";
    case Op::kAdminOk: return "admin_ok";
    case Op::kRedirect: return "redirect";
    case Op::kGossipOk: return "gossip_ok";
    case Op::kError: return "error";
  }
  return "?";
}

bool is_request_op(Op op) noexcept {
  switch (op) {
    case Op::kHello:
    case Op::kSetKey:
    case Op::kRekey:
    case Op::kEncBlocks:
    case Op::kDecBlocks:
    case Op::kCtrStream:
    case Op::kStats:
    case Op::kDrain:
    case Op::kBye:
    case Op::kAdminFleetStatus:
    case Op::kAdminSwapEngine:
    case Op::kAdminQuarantine:
    case Op::kAdminInject:
    case Op::kGossip:
      return true;
    default:
      return false;
  }
}

const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kBadCrc: return "bad_crc";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kUnknownOpcode: return "unknown_opcode";
    case ErrorCode::kBadPayload: return "bad_payload";
    case ErrorCode::kNoKey: return "no_key";
    case ErrorCode::kNotHello: return "not_hello";
    case ErrorCode::kWindowExceeded: return "window_exceeded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kAdminDisabled: return "admin_disabled";
    case ErrorCode::kBadWorker: return "bad_worker";
    case ErrorCode::kConnectFailed: return "connect_failed";
    case ErrorCode::kNotClustered: return "not_clustered";
  }
  return "?";
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// t[0] is the byte-at-a-time table; t[k][i] is the CRC of byte i followed
// by k zero bytes, so byte j of a 16-byte step is folded by t[15 - j].
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load assembled from bytes: correct at any alignment and on
/// either host byte order, and compiled to one plain load on x86 and ARM
/// (get_u32's indexed loop over a span is not).
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t a = load_le32(p) ^ c;
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t d = load_le32(p + 8);
    const std::uint32_t e = load_le32(p + 12);
    c = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^ t[13][(a >> 16) & 0xff] ^ t[12][a >> 24] ^
        t[11][b & 0xff] ^ t[10][(b >> 8) & 0xff] ^ t[9][(b >> 16) & 0xff] ^ t[8][b >> 24] ^
        t[7][d & 0xff] ^ t[6][(d >> 8) & 0xff] ^ t[5][(d >> 16) & 0xff] ^ t[4][d >> 24] ^
        t[3][e & 0xff] ^ t[2][(e >> 8) & 0xff] ^ t[1][(e >> 16) & 0xff] ^ t[0][e >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + f.payload.size() + kTrailerSize);
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(f.op));
  put_u16(out, f.flags);
  const std::uint64_t sid = f.session_id;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(sid >> (8 * i)));
  put_u32(out, f.seq);
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  put_u32(out, crc32(out));
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (off_ > 0 && 2 * off_ >= buf_.size()) {
    // The unconsumed tail is no longer than the prefix it replaces.
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (error_ != ErrorCode::kNone) return Status::kBad;
  const std::span<const std::uint8_t> in(buf_.data() + off_, buf_.size() - off_);
  if (in.size() < kHeaderSize) return Status::kNeedMore;

  if (get_u32(in, 0) != kWireMagic) {
    error_ = ErrorCode::kBadMagic;
    return Status::kBad;
  }
  if (in[4] != kWireVersion) {
    error_ = ErrorCode::kBadVersion;
    return Status::kBad;
  }
  const std::uint32_t payload_len = get_u32(in, 20);
  // Checked before the payload is buffered: an attacker-controlled length
  // field cannot make the decoder allocate unboundedly.
  if (payload_len > max_payload_) {
    error_ = ErrorCode::kOversized;
    return Status::kBad;
  }
  const std::size_t body = kHeaderSize + payload_len;
  if (in.size() < body + kTrailerSize) return Status::kNeedMore;

  if (get_u32(in, body) != crc32(in.first(body))) {
    error_ = ErrorCode::kBadCrc;
    return Status::kBad;
  }

  out.op = static_cast<Op>(in[5]);
  out.flags = get_u16(in, 6);
  out.session_id = static_cast<std::uint64_t>(get_u32(in, 8)) |
                   static_cast<std::uint64_t>(get_u32(in, 12)) << 32;
  out.seq = get_u32(in, 16);
  const auto payload = in.subspan(kHeaderSize, payload_len);
  out.payload.assign(payload.begin(), payload.end());
  off_ += body + kTrailerSize;
  if (off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
  return Status::kFrame;
}

std::vector<std::uint8_t> encode_error_payload(ErrorCode code, std::string_view message) {
  std::vector<std::uint8_t> p;
  p.reserve(2 + message.size());
  put_u16(p, static_cast<std::uint16_t>(code));
  for (const char ch : message) p.push_back(static_cast<std::uint8_t>(ch));
  return p;
}

void decode_error_payload(std::span<const std::uint8_t> payload, ErrorCode& code,
                          std::string& message) {
  if (payload.size() < 2) {
    code = ErrorCode::kInternal;
    message.clear();
    return;
  }
  code = static_cast<ErrorCode>(get_u16(payload, 0));
  message.assign(payload.begin() + 2, payload.end());
}

}  // namespace aesip::net
