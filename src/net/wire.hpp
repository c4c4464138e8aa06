// aesip-wire-v1: the framed binary protocol the service layer speaks.
//
// The paper's Table 1 interface decouples bus I/O from the cipher so a
// block can stream in while the core computes; this is the same idea one
// layer up — a length-prefixed frame protocol that lets many sessions
// stream work at an IP farm without ever blocking on each other. Every
// frame is self-describing and self-checking:
//
//   offset size  field
//   0      4     magic  "AESW" (0x41 0x45 0x53 0x57)
//   4      1     version (kWireVersion = 1)
//   5      1     opcode  (Op)
//   6      2     flags   (little-endian, reserved; must echo in responses)
//   8      8     session_id (LE)
//   16     4     seq     (LE; responses echo the request's seq)
//   20     4     payload_len (LE; bounded by the decoder's max_payload)
//   24     len   payload
//   24+len 4     crc32   (LE, IEEE 802.3, over bytes [0, 24+len))
//
// All integers are little-endian. The CRC covers header and payload, so
// a flipped bit anywhere — including in the length field itself, once
// enough bytes arrive — is caught before a frame is acted on. Frames are
// symmetric: client and server use the same codec (FrameDecoder handles
// arbitrary fragmentation: feed() whatever the transport delivered,
// next() yields complete frames).
//
// Request payloads (client -> server):
//   kHello      empty (future: feature negotiation in flags)
//   kSetKey     16/24/32-byte key (installs the session key; the length
//               selects AES-128/192/256 — anything else is kBadPayload)
//   kRekey      same layout as kSetKey; names the farm's re-key fast path
//   kEncBlocks  [u8 mode: 0=ECB 1=CBC][16B iv][N x 16B data]
//   kDecBlocks  same layout, decrypt direction
//   kCtrStream  [16B initial counter][data, any length >= 1]
//   kStats      empty -> kStatsOk carries the farm stats JSON
//   kDrain      empty -> kDrainOk once every prior frame of the session
//               has been answered (the session-level barrier)
//   kBye        empty -> kByeOk, then the server closes the connection
//
// Admin plane (fleet control; see docs/fleet.md — servers may refuse these
// with kAdminDisabled when not operating as an admin endpoint):
//   kGossip     cluster membership exchange (docs/cluster.md): the payload
//               is the sender's encoded Director view -> kGossipOk carries
//               the receiver's view back. Refused with kNotClustered at a
//               server running without --cluster.
//   kAdminFleetStatus  empty -> kAdminStatusOk carries the kStatsOk JSON
//   kAdminSwapEngine   [u8 worker, 0xFF = all][u8 EngineKind: 0=sw
//                      1=behavioral 2=netlist][optional variant name bytes,
//                      e.g. "pipe5-xtime" (arch::VariantSpec::parse); absent
//                      = the paper's iterative core] -> kAdminOk once the
//                      swap(s) executed on the worker thread(s)
//   kAdminQuarantine   [u8 worker][u8 action: 0=quarantine 1=resume]
//                      -> kAdminOk immediately (routing-table change)
//   kAdminInject       [u8 worker, 0xFF = random][u32 site, 0xFFFFFFFF =
//                      auto-classified corrupting site] -> kAdminOk once
//                      the flip executed
//
// Response payloads (server -> client):
//   kHelloOk    [u32 max_payload][u32 window]  (the flow-control contract:
//               at most `window` unanswered data frames per session)
//   kKeyOk      empty (the key is installed in the session; the farm loads
//               it onto a core lazily, so setup cycles are a farm metric)
//   kResult     the output bytes of the matching request
//   kAdminStatusOk  fleet status JSON (utf-8)
//   kAdminOk    utf-8 summary of the executed admin action
//   kRedirect   utf-8 address of the node that owns this session on the
//               cluster's hash ring; the client reconnects there and
//               replays its unanswered frames (zero lost frames). Sent in
//               place of the normal response when a clustered server is
//               asked about a session it does not own, unless the request
//               set kFlagPinned (control channels: gossip, admin tools).
//   kGossipOk   the receiver's encoded Director view
//   kError      [u16 ErrorCode][utf-8 message]
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aesip::net {

inline constexpr std::uint32_t kWireMagic = 0x57534541u;  // "AESW" little-endian
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
inline constexpr std::size_t kTrailerSize = 4;  // the CRC
inline constexpr std::size_t kDefaultMaxPayload = 1u << 20;

/// Frame flag: pin this session to the node addressed, even on a cluster
/// where the hash ring says another node owns the session id. Control
/// connections (gossip exchanges, `aesip fleet` targeting one node) set
/// it; data sessions leave it clear so kRedirect can route them.
inline constexpr std::uint16_t kFlagPinned = 0x0001;

enum class Op : std::uint8_t {
  // client -> server
  kHello = 0x01,
  kSetKey = 0x02,
  kRekey = 0x03,
  kEncBlocks = 0x04,
  kDecBlocks = 0x05,
  kCtrStream = 0x06,
  kStats = 0x07,
  kDrain = 0x08,
  kBye = 0x09,
  kAdminFleetStatus = 0x0A,
  kAdminSwapEngine = 0x0B,
  kAdminQuarantine = 0x0C,
  kAdminInject = 0x0D,
  kGossip = 0x0E,
  // server -> client
  kHelloOk = 0x81,
  kKeyOk = 0x82,
  kResult = 0x84,
  kStatsOk = 0x87,
  kDrainOk = 0x88,
  kByeOk = 0x89,
  kAdminStatusOk = 0x8A,
  kAdminOk = 0x8B,
  kRedirect = 0x8C,
  kGossipOk = 0x8E,
  kError = 0xEE,
};

const char* op_name(Op op) noexcept;

/// Is `op` one of the opcodes a client may send? (Everything else arriving
/// at the server is kUnknownOpcode, including server->client opcodes.)
bool is_request_op(Op op) noexcept;

enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadCrc = 3,
  kOversized = 4,
  kUnknownOpcode = 5,
  kBadPayload = 6,     ///< payload too short / bad key length / not whole blocks
  kNoKey = 7,          ///< data frame before kSetKey
  kNotHello = 8,       ///< first frame of a connection must be kHello
  kWindowExceeded = 9, ///< more unanswered data frames than kHelloOk granted
  kDraining = 10,      ///< server is draining; no new work accepted
  kInternal = 11,
  kAdminDisabled = 12, ///< admin opcode at a server not exposing the admin plane
  kBadWorker = 13,     ///< admin frame names a worker index the farm lacks
  kConnectFailed = 14, ///< client-side: every connect attempt failed (carries
                       ///< the last errno in the message; never on the wire)
  kNotClustered = 15,  ///< kGossip at a server running without --cluster
};

const char* error_code_name(ErrorCode c) noexcept;

struct Frame {
  Op op = Op::kHello;
  std::uint16_t flags = 0;
  std::uint64_t session_id = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// IEEE 802.3 CRC-32 (the zlib polynomial), slicing-by-16: sixteen
/// 256-entry tables fold 16 input bytes per step, loaded as little-endian
/// words assembled from bytes (any alignment, any host byte order); the
/// tail runs byte at a time. `seed` chains: crc32(b, crc32(a)) ==
/// crc32(a ++ b).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

/// Serialize one frame: header + payload + CRC, ready for the wire.
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Incremental decoder: feed() bytes in any fragmentation, next() yields
/// complete verified frames. A malformed stream (bad magic/version,
/// oversized length, CRC mismatch) poisons the decoder — the connection
/// is unrecoverable past that point because framing is lost.
///
/// The bytes sit in one contiguous buffer behind a read offset: next()
/// checks the CRC in place and copies the payload out once. The buffer is
/// cleared when everything fed has been consumed, and its consumed prefix
/// is dropped by the feed() that finds it at least half the buffer, so no
/// byte is moved more than once.
class FrameDecoder {
 public:
  enum class Status { kNeedMore, kFrame, kBad };

  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> bytes);

  /// Try to pop one frame. kFrame fills `out`; kNeedMore means feed()
  /// more; kBad means the stream is corrupt (error() says how) and every
  /// later call returns kBad too.
  Status next(Frame& out);

  ErrorCode error() const noexcept { return error_; }
  /// Bytes fed and not yet consumed by a frame.
  std::size_t buffered() const noexcept { return buf_.size() - off_; }
  std::size_t max_payload() const noexcept { return max_payload_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  ///< bytes of buf_ already consumed
  ErrorCode error_ = ErrorCode::kNone;
};

// --- payload helpers (the small, fixed sub-layouts above) --------------------

inline void put_u32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

inline std::uint32_t get_u32(std::span<const std::uint8_t> v, std::size_t off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(v[off + static_cast<std::size_t>(i)]) << (8 * i);
  return x;
}

inline void put_u16(std::vector<std::uint8_t>& v, std::uint16_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xff));
  v.push_back(static_cast<std::uint8_t>(x >> 8));
}

inline std::uint16_t get_u16(std::span<const std::uint8_t> v, std::size_t off) {
  return static_cast<std::uint16_t>(v[off] | (static_cast<std::uint16_t>(v[off + 1]) << 8));
}

/// Build a kError payload.
std::vector<std::uint8_t> encode_error_payload(ErrorCode code, std::string_view message);

/// Parse a kError payload (tolerates short/garbled payloads: yields
/// kInternal + empty message rather than throwing).
void decode_error_payload(std::span<const std::uint8_t> payload, ErrorCode& code,
                          std::string& message);

}  // namespace aesip::net
