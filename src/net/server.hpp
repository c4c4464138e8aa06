// The wire-protocol server: aesip-wire-v1 sessions mapped onto farm::Farm.
//
// One event loop per node: a single loop owns everything — accept, read,
// decode, respond, flush — and every connection lives its whole life on
// it. The parallelism sits behind the loop, in the farm's workers and the
// engines' lanes; a node that needs more front end is scaled out with
// more cluster nodes, not more loops. The loop meets the farm only through
// Farm::submit/try_submit and the std::future each returns — the same
// decoupling the paper builds in hardware (bus I/O overlapped with cipher
// compute) reproduced at the service layer.
//
// Clustering (ServerConfig::cluster): several `aesip serve` processes
// shard sessions by consistent hash (cluster::Ring over gossiped
// membership, src/cluster/). Each server answers frames for sessions it
// owns; a frame for a session another node owns gets kRedirect carrying
// the owner's address, and the client reconnects there and replays its
// unanswered frames — zero loss across the move. kGossip frames (and a
// background gossip thread dialing one peer per interval) keep every
// node's membership view converging; a node whose last worker is
// quarantined stops serving, gossip spreads the fact, and its sessions
// re-home onto the survivors. Pinned connections (kFlagPinned on kHello)
// are never redirected — that is how gossip itself, and deliberate
// cross-node tooling, talk to a specific node.
//
// Per-session flow control: kHelloOk grants a window of at most
// `ServerConfig::window` unanswered data frames. A client that overruns it
// is cut off (kWindowExceeded) — the window is what bounds server memory
// per session. Inside the window, backpressure is invisible: when a
// worker queue refuses a frame (try_submit load-shed), the frame parks in
// the connection's deferred queue and the loop stops *reading* that
// connection until the farm catches up, which backs the pressure all the
// way into the transport (a full TCP window / loopback pipe stalls the
// client's writes). CTR payloads big enough to fan out take the blocking
// submit path instead, so the farm's chunk scatter stays available to
// network traffic.
//
// Sessions ride connections: kHello binds the connection to a session id,
// kSetKey installs the key that every later data frame on the connection
// uses, and the farm's LRU slot affinity (keyed by session id) keeps a
// session's traffic on the core already holding its key. Responses carry
// the request's seq and may complete out of order across sessions;
// kDrain is the in-order barrier (answered only after everything before
// it). request_drain() is the server-wide version: stop accepting, finish
// every in-flight frame, flush every byte, then return — zero accepted
// frames are lost on a graceful shutdown.
//
// Idle connections (no frame and no in-flight work for `idle_timeout`)
// are closed — a bounded-state rule, like the session table's LRU.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/director.hpp"
#include "farm/farm.hpp"
#include "fleet/fleet.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace aesip::report {
class JsonWriter;
}

namespace aesip::net {

/// Multi-node sharding: who this node is, who to gossip with.
struct ClusterConfig {
  std::string node_id;              ///< unique across the cluster
  std::string advertise;            ///< address peers/clients dial; defaults to
                                    ///< the resolved listen address
  std::vector<std::string> seeds;   ///< bootstrap peer addresses
  std::chrono::milliseconds gossip_interval{100};
  std::chrono::milliseconds suspect_after{1500};
  std::size_t ring_vnodes = 64;
};

struct ServerConfig {
  farm::FarmConfig farm;            ///< workers, engine kind, queue bounds
  int threads = 1;                  ///< must be 1: one event loop per node
  std::size_t window = 32;          ///< max unanswered data frames per session
  std::size_t max_payload = kDefaultMaxPayload;
  std::chrono::milliseconds idle_timeout{30000};
  std::chrono::milliseconds poll_interval{1};  ///< event-loop sleep granularity
  bool tracing = false;             ///< per-frame events into an obs::Tracer ring
  std::size_t trace_capacity = 8192;
  /// Serve the fleet admin opcodes (kAdminSwapEngine & co). Off, every
  /// admin frame is refused with kAdminDisabled.
  bool admin = true;
  /// Seed for the chaos injector's site classification + worker picks.
  std::uint32_t chaos_seed = 0x5eed;
  /// Join a multi-node cluster (gossip membership + session sharding).
  std::optional<ClusterConfig> cluster;
};

/// The server's counters (monotonic unless marked as a gauge), declared
/// once: ServerStats holds them as values, the live server as relaxed
/// atomics written by the loop thread and read by anyone.
template <class T>
struct ServerCounters {
  T connections_accepted{};
  T connections_closed{};
  T connections_active{};   ///< gauge
  T sessions_active{};      ///< gauge: connections past kHello
  T frames_received{};      ///< complete verified frames decoded
  T data_frames{};          ///< of which enc/dec/ctr work
  T responses_sent{};       ///< kResult frames queued for write
  T errors_sent{};          ///< kError frames queued for write
  T protocol_errors{};      ///< decoder poisonings (framing lost)
  T window_violations{};
  T deferred_retries{};     ///< try_submit load-sheds absorbed
  T idle_closes{};
  T drains{};               ///< kDrainOk barriers completed
  T admin_frames{};         ///< fleet admin requests handled
  T bytes_in{};
  T bytes_out{};
  T in_flight{};            ///< gauge: frames submitted, not answered
  T redirects_sent{};       ///< frames bounced to their owning node
  T gossip_frames{};        ///< kGossip requests served
  T gossip_rounds{};        ///< outbound gossip dials attempted
  T cluster_nodes_alive{};  ///< gauge; 0 when not clustered
};

/// Point-in-time server counters.
struct ServerStats : ServerCounters<std::uint64_t> {
  std::string node_id;                    ///< empty when not clustered
  obs::HistogramSnapshot request_latency_us;  ///< frame decoded -> response queued
  obs::HistogramSnapshot session_in_flight;   ///< window occupancy per data frame
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;

  /// Human-readable multi-line report: traffic, request latency, and the
  /// cluster counters when clustered.
  std::string report() const;
  /// Every field above as one JSON object, at the writer's root or after a
  /// key (the "net" section of `aesip metrics`).
  void write_json(report::JsonWriter& j) const;
};

class Server {
 public:
  /// Binds `address` on `transport` and builds the farm; throws on either
  /// failing, and std::invalid_argument when `cfg.threads` is not 1.
  /// Serving starts with run() or start().
  Server(Transport& transport, const std::string& address, ServerConfig cfg = {});
  ~Server();  ///< request_drain() + join if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolved listen address (the real port when "host:0" was asked).
  const std::string& address() const noexcept { return address_; }
  const ServerConfig& config() const noexcept { return cfg_; }

  /// Serve on the calling thread until a drain completes.
  void run();
  /// Serve on a background thread; pair with stop().
  void start();
  /// Graceful shutdown, callable from any thread (including signal-ish
  /// contexts): stop accepting, answer every in-flight frame, flush,
  /// close. run() returns once done.
  void request_drain() { draining_.store(true, std::memory_order_release); }
  /// request_drain() and wait for the loop to finish.
  void stop();

  ServerStats stats() const;
  /// The farm's snapshot, labelled with this node's id when clustered.
  farm::FarmStats farm_stats() const;
  /// The membership directory, or nullptr when not clustered.
  const cluster::Director* director() const noexcept { return director_.get(); }

  /// Per-frame server timeline (requires ServerConfig::tracing); false if
  /// tracing is off. Chrome trace_event JSON, like Farm::write_chrome_trace.
  bool write_chrome_trace(std::ostream& os) const;

 private:
  struct Connection;

  void serve();
  bool accept_new();
  bool service_conns(bool draining);
  bool close_finished(bool draining);
  void idle_wait();
  void gossip_loop();

  bool service_reads(Connection& c);
  bool handle_frame(Connection& c, Frame&& f);
  bool handle_admin_frame(Connection& c, Frame&& f);
  /// farm_stats() as JSON: the one document both kStats and
  /// kAdminFleetStatus answer with.
  std::vector<std::uint8_t> stats_payload() const;
  void handle_data_frame(Connection& c, Frame&& f);
  bool maybe_redirect(Connection& c, const Frame& f);
  bool retry_deferred(Connection& c);
  bool reap_completions(Connection& c);
  bool flush_writes(Connection& c);
  void send_frame(Connection& c, Op op, std::uint32_t seq, std::uint16_t flags,
                  std::vector<std::uint8_t> payload);
  void send_error(Connection& c, std::uint32_t seq, ErrorCode code, const std::string& msg,
                  bool fatal);
  bool submit_request(Connection& c, Frame& f);

  ServerConfig cfg_;
  Transport* transport_;  ///< for the gossip thread's outbound dials
  farm::Farm farm_;
  fleet::ChaosInjector chaos_;  ///< site classification for kAdminInject
  std::mutex admin_mu_;         ///< serializes chaos_'s seeded state
  std::unique_ptr<Listener> listener_;
  std::string address_;
  std::unique_ptr<cluster::Director> director_;  ///< null when not clustered
  std::vector<std::unique_ptr<Connection>> conns_;  ///< owned by the loop thread
  std::atomic<unsigned> next_chaos_worker_{0};  ///< rotation for kAdminInject 0xFF
  std::atomic<bool> draining_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
  std::thread gossip_thread_;
  std::atomic<bool> gossip_stop_{false};

  ServerCounters<std::atomic<std::uint64_t>> counters_;
  obs::Histogram request_latency_us_;
  obs::Histogram session_in_flight_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aesip::net
