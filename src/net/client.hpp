// aesip-wire-v1 client: one connection, one session, pipelined requests.
//
// connect() retries with exponential backoff (servers come up while
// clients start — the loadgen races `aesip serve` by design). The retry
// budget is doubly bounded: at most `connect_attempts` tries AND at most
// `connect_wait_max` total sleeping; exhausting either throws
// WireError(kConnectFailed) whose message carries the last underlying
// failure (including the transport's strerror text). Then the kHello
// handshake learns the server's flow-control contract (window, max
// payload). Data calls come in two shapes:
//
//   * blocking: enc_blocks()/dec_blocks()/ctr_stream() submit and wait —
//     the simple one-outstanding-request client;
//   * pipelined: submit_*() returns a seq immediately (blocking only when
//     the window is full), wait(seq) collects that response whenever it
//     lands. Responses may arrive out of order; the client matches them
//     by seq, so callers can keep `window` frames in flight — which is
//     what it takes to keep a multi-worker farm busy over one connection.
//
// Cluster redirects: a sharded server answers kRedirect (payload = the
// owning node's address) instead of serving a session it does not own.
// With `follow_redirects` the client transparently reconnects there,
// replays the handshake, re-installs the session key, and re-sends every
// frame not yet answered (it keeps a copy of each request until its
// response arrives) — callers just see their wait() return, possibly a
// little later. Hops are bounded by `max_redirects` per operation; a
// `pinned` client advertises kFlagPinned at kHello and is never
// redirected (gossip and node-targeted tooling use this).
//
// A kError response surfaces as WireError (carrying the ErrorCode); any
// transport failure or malformed server frame throws std::runtime_error.
// Client is NOT thread-safe: one thread per Client (the loadgen runs one
// per session).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "farm/session.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace aesip::net {

struct ClientConfig {
  int connect_attempts = 8;
  std::chrono::milliseconds backoff_initial{5};   ///< doubles per retry
  std::chrono::milliseconds backoff_max{500};
  std::chrono::milliseconds connect_wait_max{2000};  ///< cap on total backoff sleep
  std::chrono::milliseconds io_timeout{10000};    ///< per blocking wait
  bool follow_redirects = true;  ///< chase kRedirect to the owning node
  int max_redirects = 4;         ///< hop bound per operation
  bool pinned = false;           ///< kFlagPinned on kHello: never redirected
};

/// A kError frame from the server, as an exception.
class WireError : public std::runtime_error {
 public:
  WireError(ErrorCode code, const std::string& msg)
      : std::runtime_error(std::string(error_code_name(code)) + ": " + msg), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

class Client {
 public:
  /// Connect (with retry/backoff) and run the kHello handshake.
  Client(Transport& transport, const std::string& address, std::uint64_t session_id,
         ClientConfig cfg = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::uint64_t session_id() const noexcept { return session_id_; }
  /// Flow-control contract learned from kHelloOk.
  std::uint32_t window() const noexcept { return window_; }
  std::uint32_t max_payload() const noexcept { return max_payload_; }
  /// Data frames submitted and not yet answered.
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// kRedirect hops followed over this client's lifetime.
  std::uint64_t redirects() const noexcept { return redirects_; }
  /// Address currently connected to (changes when a redirect is followed).
  const std::string& server_address() const noexcept { return address_; }

  /// Install the session key (kSetKey, waits for kKeyOk). 16/24/32 bytes
  /// select AES-128/192/256; any other length throws std::invalid_argument
  /// before touching the wire.
  void set_key(std::span<const std::uint8_t> key);
  /// Same wire cost as set_key; names the farm's re-key fast path.
  void rekey(std::span<const std::uint8_t> key);

  // --- blocking data calls -------------------------------------------------
  std::vector<std::uint8_t> enc_blocks(bool cbc, const farm::Key128& iv,
                                       std::vector<std::uint8_t> data) {
    return wait(submit_enc(cbc, iv, std::move(data)));
  }
  std::vector<std::uint8_t> dec_blocks(bool cbc, const farm::Key128& iv,
                                       std::vector<std::uint8_t> data) {
    return wait(submit_dec(cbc, iv, std::move(data)));
  }
  std::vector<std::uint8_t> ctr_stream(const farm::Key128& counter,
                                       std::vector<std::uint8_t> data) {
    return wait(submit_ctr(counter, std::move(data)));
  }

  // --- pipelined data calls ------------------------------------------------
  /// Submit without waiting for the response. Blocks only while the
  /// window is full (pumping responses makes room). Returns the seq to
  /// pass to wait().
  std::uint32_t submit_enc(bool cbc, const farm::Key128& iv, std::vector<std::uint8_t> data);
  std::uint32_t submit_dec(bool cbc, const farm::Key128& iv, std::vector<std::uint8_t> data);
  std::uint32_t submit_ctr(const farm::Key128& counter, std::vector<std::uint8_t> data);

  /// Collect the kResult for `seq`, pumping I/O until it arrives.
  std::vector<std::uint8_t> wait(std::uint32_t seq);

  /// Session barrier: kDrain, answered only after every prior frame.
  void drain();
  /// The farm stats JSON (kStats -> kStatsOk payload).
  std::string stats_json();
  /// Trade membership views with a clustered server (kGossip ->
  /// kGossipOk); returns the server's encoded view. Throws
  /// WireError(kNotClustered) against a standalone server.
  std::vector<std::uint8_t> gossip(std::vector<std::uint8_t> view);
  /// Polite goodbye (kBye -> kByeOk); the connection is unusable after.
  void bye();

  // --- fleet admin plane (requires a server with ServerConfig::admin) ------
  /// The stats_json() document over the admin plane (kAdminFleetStatus ->
  /// kAdminStatusOk); refused with kAdminDisabled when the plane is off.
  std::string fleet_status_json();
  /// Hot-swap one worker (or all when `worker` is -1) to engine `kind`
  /// (0=sw 1=behavioral 2=netlist); blocks until the swap(s) executed.
  /// `variant` optionally names a round-engine variant ("pipe5-xtime",
  /// "unroll-lut", ... — arch::VariantSpec::parse spellings); empty keeps
  /// the paper's iterative core. Returns the server's summary.
  std::string fleet_swap(int worker, std::uint8_t kind, const std::string& variant = "");
  /// Quarantine (resume=false) or resume a worker.
  std::string fleet_quarantine(int worker, bool resume);
  /// Inject an SEU into a live engine: `worker` -1 = server-chosen,
  /// `site` 0xFFFFFFFF = auto-classified corrupting site.
  std::string fleet_inject(int worker = -1, std::uint32_t site = 0xffffffffu);

 private:
  std::uint32_t submit_data(Op op, std::vector<std::uint8_t> payload);
  void send(Op op, std::uint32_t seq, std::vector<std::uint8_t> payload);
  /// One non-blocking write pass over the queued bytes.
  void flush_once();
  /// Flush writes and read until `stop()` says done (or timeout/EOF).
  template <typename Stop>
  void pump(Stop&& stop);
  /// Wait for the control ack `ack` to seq `seq`; returns its payload.
  std::vector<std::uint8_t> wait_control(Op ack, std::uint32_t seq);
  void on_frame(Frame&& f);
  /// Reconnect at `target`, re-handshake, re-key, replay the unanswered.
  void do_redirect(const std::string& target);
  void send_hello();
  /// Blocking mini-exchange used only during redirects (pump would recurse).
  Frame read_one_frame(std::chrono::steady_clock::time_point deadline);

  ClientConfig cfg_;
  Transport* transport_;
  std::string address_;  ///< where we are connected now
  std::unique_ptr<Conn> conn_;
  FrameDecoder decoder_;
  std::uint64_t session_id_;
  std::uint32_t next_seq_ = 1;
  std::uint32_t window_ = 1;
  std::uint32_t max_payload_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t redirects_ = 0;
  std::vector<std::uint8_t> outbuf_;
  std::size_t out_off_ = 0;
  std::set<std::uint32_t> data_seqs_;         ///< submitted data frames awaiting response
  std::map<std::uint32_t, Frame> completed_;  ///< responses not yet collected
  std::map<std::uint32_t, Frame> pending_;    ///< sent, unanswered — the replay buffer
  std::vector<std::uint8_t> key_;             ///< last installed key, for re-keying
  bool redirect_pending_ = false;
  std::string redirect_target_;
};

}  // namespace aesip::net
