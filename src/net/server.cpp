#include "net/server.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "aes/modes.hpp"
#include "net/client.hpp"
#include "obs/thread_name.hpp"
#include "report/json.hpp"

namespace aesip::net {

namespace {

/// Tracer name table: indices are the categories recorded per frame.
constexpr const char* kTraceNames[] = {"enc", "dec", "ctr", "control"};

constexpr std::uint16_t trace_name_of(Op op) {
  switch (op) {
    case Op::kEncBlocks: return 0;
    case Op::kDecBlocks: return 1;
    case Op::kCtrStream: return 2;
    default: return 3;
  }
}

std::uint64_t us_since(std::chrono::steady_clock::time_point from) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - from)
                                        .count());
}

/// f(name, s.field...) for every ServerCounters field, in declaration order:
/// the one list stats() copies and ServerStats::write_json() writes.
template <class F, class... S>
void for_each_counter(F&& f, S&... s) {
  f("connections_accepted", s.connections_accepted...);
  f("connections_closed", s.connections_closed...);
  f("connections_active", s.connections_active...);
  f("sessions_active", s.sessions_active...);
  f("frames_received", s.frames_received...);
  f("data_frames", s.data_frames...);
  f("responses_sent", s.responses_sent...);
  f("errors_sent", s.errors_sent...);
  f("protocol_errors", s.protocol_errors...);
  f("window_violations", s.window_violations...);
  f("deferred_retries", s.deferred_retries...);
  f("idle_closes", s.idle_closes...);
  f("drains", s.drains...);
  f("admin_frames", s.admin_frames...);
  f("bytes_in", s.bytes_in...);
  f("bytes_out", s.bytes_out...);
  f("in_flight", s.in_flight...);
  f("redirects_sent", s.redirects_sent...);
  f("gossip_frames", s.gossip_frames...);
  f("gossip_rounds", s.gossip_rounds...);
  f("cluster_nodes_alive", s.cluster_nodes_alive...);
}

/// The config as served: one loop, a window of at least one frame.
ServerConfig validated(ServerConfig cfg) {
  if (cfg.threads != 1)
    throw std::invalid_argument("ServerConfig::threads must be 1 (one event loop per node)");
  if (cfg.window == 0) cfg.window = 1;
  return cfg;
}

}  // namespace

/// Everything the loop knows about one connection. Owned exclusively by
/// the loop thread for its whole life.
struct Server::Connection {
  std::unique_ptr<Conn> conn;
  FrameDecoder decoder;
  std::vector<std::uint8_t> outbuf;  ///< encoded frames awaiting write
  std::size_t out_off = 0;           ///< bytes of outbuf already written

  bool got_hello = false;
  bool pinned = false;  ///< kFlagPinned on kHello: never redirect this one
  std::uint64_t session_id = 0;
  std::optional<farm::KeyBytes> key;  ///< 16/24/32 bytes; absent before kSetKey

  struct InFlight {
    std::uint32_t seq = 0;
    std::uint16_t flags = 0;
    std::future<farm::Result> future;
    std::chrono::steady_clock::time_point t_received;
    std::uint64_t blocks = 0;
    std::uint16_t trace_name = 3;
  };
  std::deque<InFlight> in_flight;
  std::deque<Frame> deferred;  ///< parsed data frames the farm refused (full queues)

  /// A fleet admin action executing on worker thread(s): poll() returns the
  /// kAdminOk text once every underlying future resolved, nullopt while
  /// pending, and throws the worker's exception on failure.
  struct PendingAdmin {
    std::uint32_t seq = 0;
    std::uint16_t flags = 0;
    std::function<std::optional<std::string>()> poll;
  };
  std::deque<PendingAdmin> admin_pending;

  bool drain_pending = false;  ///< kDrain received, kDrainOk not yet sent
  std::uint32_t drain_seq = 0;
  std::uint16_t drain_flags = 0;

  bool closing = false;  ///< stop reading; close once quiesced + flushed
  bool eof = false;      ///< peer hung up
  bool dead = false;     ///< transport error: drop without flushing
  std::chrono::steady_clock::time_point last_activity;

  explicit Connection(std::unique_ptr<Conn> c, std::size_t max_payload)
      : conn(std::move(c)), decoder(max_payload),
        last_activity(std::chrono::steady_clock::now()) {}

  bool flushed() const noexcept { return out_off >= outbuf.size(); }
  bool quiesced() const noexcept {
    return in_flight.empty() && deferred.empty() && admin_pending.empty();
  }
};

Server::Server(Transport& transport, const std::string& address, ServerConfig cfg)
    : cfg_(validated(std::move(cfg))), transport_(&transport), farm_(cfg_.farm),
      chaos_(farm_, cfg_.chaos_seed), listener_(transport.listen(address)),
      address_(listener_->address()), start_(std::chrono::steady_clock::now()) {
  if (cfg_.tracing) tracer_ = std::make_unique<obs::Tracer>(1, cfg_.trace_capacity);
  if (cfg_.cluster) {
    cluster::DirectorConfig dc;
    dc.self_id = cfg_.cluster->node_id;
    dc.self_address = cfg_.cluster->advertise.empty() ? address_ : cfg_.cluster->advertise;
    dc.seeds = cfg_.cluster->seeds;
    dc.suspect_after = cfg_.cluster->suspect_after;
    dc.ring_vnodes = cfg_.cluster->ring_vnodes;
    director_ = std::make_unique<cluster::Director>(std::move(dc),
                                                    std::chrono::steady_clock::now());
    counters_.cluster_nodes_alive.store(1, std::memory_order_relaxed);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] {
    obs::name_this_thread("aesip-loop");
    serve();
  });
}

void Server::run() {
  if (running_.exchange(true)) return;
  serve();
}

void Server::stop() {
  request_drain();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

/// The event loop: accept, service every connection, close what is
/// finished, and sleep when nothing moved — until a drain empties it.
void Server::serve() {
  if (director_) {
    gossip_stop_.store(false, std::memory_order_release);
    gossip_thread_ = std::thread([this] {
      obs::name_this_thread("aesip-gossip");
      gossip_loop();
    });
  }
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    bool progress = !draining && accept_new();
    progress |= service_conns(draining);
    progress |= close_finished(draining);

    if (draining && conns_.empty()) break;
    if (!progress) idle_wait();
  }
  if (director_) {
    gossip_stop_.store(true, std::memory_order_release);
    if (gossip_thread_.joinable()) gossip_thread_.join();
  }
  listener_->close();
}

bool Server::accept_new() {
  bool any = false;
  while (auto c = listener_->accept()) {
    conns_.push_back(std::make_unique<Connection>(std::move(c), cfg_.max_payload));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
    any = true;
  }
  return any;
}

bool Server::service_conns(bool draining) {
  bool progress = false;
  for (auto& cp : conns_) {
    Connection& c = *cp;
    if (draining) c.closing = true;
    progress |= service_reads(c);
    progress |= retry_deferred(c);
    progress |= reap_completions(c);
    progress |= flush_writes(c);
  }
  return progress;
}

/// Close what is finished: dead connections immediately; closing/EOF ones
/// once every accepted frame is answered and every byte written (the
/// zero-loss contract); idle ones at the timeout.
bool Server::close_finished(bool draining) {
  bool progress = false;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    bool drop = c.dead;
    if (!drop && (c.closing || c.eof) && c.quiesced() && c.flushed()) drop = true;
    if (!drop && !draining && c.quiesced() && c.flushed() &&
        now - c.last_activity > cfg_.idle_timeout) {
      counters_.idle_closes.fetch_add(1, std::memory_order_relaxed);
      drop = true;
    }
    if (drop) {
      if (c.got_hello) counters_.sessions_active.fetch_sub(1, std::memory_order_relaxed);
      counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
      counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      c.conn->close();
      it = conns_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

/// Nothing moved: sleep until I/O or a completion can change that. With
/// work in flight, waiting on the oldest future wakes on the common case
/// (completions); otherwise the listener's wait doubles as the connection
/// wait (it wakes on a pending accept or any accepted connection's
/// activity), and the poll interval bounds the rest.
void Server::idle_wait() {
  for (auto& cp : conns_)
    if (!cp->in_flight.empty()) {
      cp->in_flight.front().future.wait_for(cfg_.poll_interval);
      return;
    }
  listener_->wait(cfg_.poll_interval);
}

/// The membership side-channel: tick our heartbeat, dial one peer, trade
/// views. A pinned client (never redirected) carries the kGossip frame;
/// failures are swallowed — an unreachable peer's heartbeat simply stops
/// advancing and suspicion does the rest. Gossip never takes the node down.
void Server::gossip_loop() {
  const ClusterConfig& cl = *cfg_.cluster;
  while (!gossip_stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (draining_.load(std::memory_order_acquire) && director_->self_serving())
      director_->set_self_serving(false);  // leave the ring before going silent
    director_->tick(now);
    counters_.cluster_nodes_alive.store(director_->alive_count(now),
                                        std::memory_order_relaxed);
    if (const auto peer = director_->pick_peer(now)) {
      counters_.gossip_rounds.fetch_add(1, std::memory_order_relaxed);
      try {
        ClientConfig cc;
        cc.connect_attempts = 1;
        cc.io_timeout = std::chrono::milliseconds(750);
        cc.pinned = true;
        cc.follow_redirects = false;
        Client peer_client(*transport_, *peer, cluster::hash64(cl.node_id), cc);
        const auto reply = peer_client.gossip(director_->encode_view());
        director_->merge_view(reply, std::chrono::steady_clock::now());
        peer_client.bye();
      } catch (const std::exception&) {
      }
    }
    auto remaining = cl.gossip_interval;
    while (remaining.count() > 0 && !gossip_stop_.load(std::memory_order_acquire)) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(10));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

bool Server::service_reads(Connection& c) {
  // Flow control: while frames are deferred (farm backpressure), the
  // connection is not read — bytes pile up in the transport and
  // eventually stall the client's writes. The per-session window is
  // enforced in handle_data_frame instead of by throttling reads: a
  // compliant client never overruns it (it counts its own unanswered
  // frames, and the server's count is never higher), so decoding ahead
  // is safe and an overrun identifies a protocol violator to cut off.
  if (c.closing || c.eof || c.dead || !c.deferred.empty()) return false;

  bool any = false;
  std::uint8_t buf[4096];
  for (int round = 0; round < 64; ++round) {  // bounded: no conn starves the loop
    const IoResult r = c.conn->read_some(buf);
    if (r.status == IoStatus::kOk) {
      any = true;
      c.last_activity = std::chrono::steady_clock::now();
      counters_.bytes_in.fetch_add(r.n, std::memory_order_relaxed);
      c.decoder.feed(std::span<const std::uint8_t>(buf, r.n));
    } else if (r.status == IoStatus::kEof) {
      c.eof = true;
      break;
    } else if (r.status == IoStatus::kError) {
      c.dead = true;
      return any;
    } else {
      break;  // kWouldBlock
    }
  }

  Frame f;
  for (;;) {
    const auto st = c.decoder.next(f);
    if (st == FrameDecoder::Status::kNeedMore) break;
    if (st == FrameDecoder::Status::kBad) {
      // Framing is lost: report why, then never read this stream again.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(c, 0, c.decoder.error(),
                 std::string("unrecoverable framing error: ") +
                     error_code_name(c.decoder.error()),
                 /*fatal=*/true);
      break;
    }
    any = true;
    if (!handle_frame(c, std::move(f)) || c.closing) break;
    if (!c.deferred.empty()) break;  // farm backpressure: stop decoding ahead
  }
  return any;
}

/// Does another node own this frame's session? If so, answer kRedirect
/// with the owner's address and wind the connection down — everything
/// already accepted still completes and flushes first, so nothing is lost;
/// the client replays its unanswered frames at the owner.
bool Server::maybe_redirect(Connection& c, const Frame& f) {
  if (!director_ || c.pinned) return false;
  if (f.op == Op::kHello && (f.flags & kFlagPinned)) return false;
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t sid = f.op == Op::kHello ? f.session_id : c.session_id;
  const std::string owner = director_->owner(sid, now);
  if (owner.empty() || owner == director_->self_id()) return false;
  const std::string addr = director_->address_of(owner);
  if (addr.empty()) return false;
  counters_.redirects_sent.fetch_add(1, std::memory_order_relaxed);
  send_frame(c, Op::kRedirect, f.seq, f.flags,
             std::vector<std::uint8_t>(addr.begin(), addr.end()));
  c.closing = true;
  return true;
}

bool Server::handle_frame(Connection& c, Frame&& f) {
  counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
  c.last_activity = std::chrono::steady_clock::now();

  if (!is_request_op(f.op)) {
    send_error(c, f.seq, ErrorCode::kUnknownOpcode,
               "unknown or non-request opcode", /*fatal=*/true);
    return false;
  }
  if (!c.got_hello && f.op != Op::kHello) {
    send_error(c, f.seq, ErrorCode::kNotHello, "first frame must be HELLO", /*fatal=*/true);
    return false;
  }
  if (draining_.load(std::memory_order_acquire) &&
      (f.op == Op::kEncBlocks || f.op == Op::kDecBlocks || f.op == Op::kCtrStream)) {
    send_error(c, f.seq, ErrorCode::kDraining, "server is draining", /*fatal=*/false);
    return true;
  }

  switch (f.op) {
    case Op::kHello: {
      if (maybe_redirect(c, f)) return false;
      if (!c.got_hello) counters_.sessions_active.fetch_add(1, std::memory_order_relaxed);
      c.got_hello = true;
      c.pinned = (f.flags & kFlagPinned) != 0;
      c.session_id = f.session_id;
      std::vector<std::uint8_t> p;
      put_u32(p, static_cast<std::uint32_t>(cfg_.max_payload));
      put_u32(p, static_cast<std::uint32_t>(cfg_.window));
      send_frame(c, Op::kHelloOk, f.seq, f.flags, std::move(p));
      return true;
    }
    case Op::kSetKey:
    case Op::kRekey: {
      if (maybe_redirect(c, f)) return false;
      const auto key = farm::KeyBytes::from(f.payload);
      if (!key) {
        send_error(c, f.seq, ErrorCode::kBadPayload, "key must be 16, 24 or 32 bytes",
                   /*fatal=*/false);
        return true;
      }
      c.key = *key;
      send_frame(c, Op::kKeyOk, f.seq, f.flags, {});
      return true;
    }
    case Op::kEncBlocks:
    case Op::kDecBlocks:
    case Op::kCtrStream:
      if (maybe_redirect(c, f)) return false;
      handle_data_frame(c, std::move(f));
      return true;
    case Op::kStats:
      send_frame(c, Op::kStatsOk, f.seq, f.flags, stats_payload());
      return true;
    case Op::kGossip: {
      if (!director_) {
        send_error(c, f.seq, ErrorCode::kNotClustered, "server is not clustered",
                   /*fatal=*/false);
        return true;
      }
      counters_.gossip_frames.fetch_add(1, std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (!director_->merge_view(f.payload, now)) {
        send_error(c, f.seq, ErrorCode::kBadPayload, "malformed gossip view",
                   /*fatal=*/false);
        return true;
      }
      send_frame(c, Op::kGossipOk, f.seq, f.flags, director_->encode_view());
      return true;
    }
    case Op::kAdminFleetStatus:
    case Op::kAdminSwapEngine:
    case Op::kAdminQuarantine:
    case Op::kAdminInject:
      return handle_admin_frame(c, std::move(f));
    case Op::kDrain:
      if (c.quiesced()) {
        counters_.drains.fetch_add(1, std::memory_order_relaxed);
        send_frame(c, Op::kDrainOk, f.seq, f.flags, {});
      } else {
        c.drain_pending = true;
        c.drain_seq = f.seq;
        c.drain_flags = f.flags;
      }
      return true;
    case Op::kBye:
      send_frame(c, Op::kByeOk, f.seq, f.flags, {});
      c.closing = true;
      return false;
    default:
      send_error(c, f.seq, ErrorCode::kUnknownOpcode, "unhandled opcode", /*fatal=*/true);
      return false;
  }
}

farm::FarmStats Server::farm_stats() const {
  farm::FarmStats s = farm_.stats();
  if (cfg_.cluster) s.node = cfg_.cluster->node_id;
  return s;
}

std::vector<std::uint8_t> Server::stats_payload() const {
  std::ostringstream os;
  {
    report::JsonWriter j(os);
    farm_stats().write_json(j, cfg_.farm.clock_ns);
  }
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

/// The fleet admin plane, straight onto the farm's control surface.
/// Quarantine and status answer inline; swap and inject execute on the
/// target worker's own thread, so the response is parked as a PendingAdmin
/// the reap pass polls — the loop never blocks on a worker.
bool Server::handle_admin_frame(Connection& c, Frame&& f) {
  if (!cfg_.admin) {
    send_error(c, f.seq, ErrorCode::kAdminDisabled, "admin plane disabled", /*fatal=*/false);
    return true;
  }
  counters_.admin_frames.fetch_add(1, std::memory_order_relaxed);
  const int workers = cfg_.farm.workers;

  switch (f.op) {
    case Op::kAdminFleetStatus:
      send_frame(c, Op::kAdminStatusOk, f.seq, f.flags, stats_payload());
      return true;
    case Op::kAdminSwapEngine: {
      if (f.payload.size() < 2 || f.payload[1] > 2) {
        send_error(c, f.seq, ErrorCode::kBadPayload,
                   "expect [worker u8][kind u8 0..2][variant name?]",
                   /*fatal=*/false);
        return true;
      }
      const auto kind = static_cast<engine::EngineKind>(f.payload[1]);
      arch::VariantSpec variant;
      if (f.payload.size() > 2) {
        const std::string name(f.payload.begin() + 2, f.payload.end());
        const auto parsed = arch::VariantSpec::parse(name);
        if (!parsed) {
          send_error(c, f.seq, ErrorCode::kBadPayload, "unknown variant '" + name + "'",
                     /*fatal=*/false);
          return true;
        }
        variant = *parsed;
      }
      std::vector<int> targets;
      if (f.payload[0] == 0xff) {
        for (int w = 0; w < workers; ++w) targets.push_back(w);
      } else if (f.payload[0] >= workers) {
        send_error(c, f.seq, ErrorCode::kBadWorker, "worker index out of range",
                   /*fatal=*/false);
        return true;
      } else {
        targets.push_back(f.payload[0]);
      }
      auto futures = std::make_shared<std::vector<std::future<farm::SwapReport>>>();
      for (const int w : targets) futures->push_back(farm_.swap_engine(w, kind, variant));
      std::string to = engine::kind_name(kind);
      if (!(variant == arch::VariantSpec{})) to += ":" + variant.name();
      c.admin_pending.push_back(Connection::PendingAdmin{
          f.seq, f.flags, [futures, to]() -> std::optional<std::string> {
            for (auto& fu : *futures)
              if (fu.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
                return std::nullopt;
            std::uint64_t max_pause = 0;
            std::string from;
            for (auto& fu : *futures) {
              const farm::SwapReport r = fu.get();  // rethrows worker failures
              max_pause = std::max(max_pause, r.pause_us);
              if (from.empty()) from = r.from;
            }
            return "swapped " + std::to_string(futures->size()) + " worker(s) " + from +
                   " -> " + to + ", max pause " + std::to_string(max_pause) + " us";
          }});
      return true;
    }
    case Op::kAdminQuarantine: {
      if (f.payload.size() != 2 || f.payload[1] > 1) {
        send_error(c, f.seq, ErrorCode::kBadPayload, "expect [worker u8][action u8 0|1]",
                   /*fatal=*/false);
        return true;
      }
      if (f.payload[0] >= workers) {
        send_error(c, f.seq, ErrorCode::kBadWorker, "worker index out of range",
                   /*fatal=*/false);
        return true;
      }
      const int w = f.payload[0];
      const bool resume = f.payload[1] == 1;
      farm_.set_worker_enabled(w, resume);
      const bool serving = farm_.stats().workers_enabled > 0;
      // Cluster tie-in: a node whose last worker is quarantined cannot do
      // work — leave the ring so gossip re-homes its sessions; resuming a
      // worker rejoins. (No-op when not clustered.)
      if (director_) director_->set_self_serving(serving);
      const std::string s =
          "worker " + std::to_string(w) + (resume ? " resumed" : " quarantined");
      send_frame(c, Op::kAdminOk, f.seq, f.flags, std::vector<std::uint8_t>(s.begin(), s.end()));
      return true;
    }
    case Op::kAdminInject: {
      if (f.payload.size() != 5) {
        send_error(c, f.seq, ErrorCode::kBadPayload, "expect [worker u8][site u32]",
                   /*fatal=*/false);
        return true;
      }
      int w = f.payload[0];
      if (w == 0xff) {
        w = static_cast<int>(next_chaos_worker_.fetch_add(1, std::memory_order_relaxed) %
                             static_cast<unsigned>(workers));
      } else if (w >= workers) {
        send_error(c, f.seq, ErrorCode::kBadWorker, "worker index out of range",
                   /*fatal=*/false);
        return true;
      }
      std::uint32_t site = get_u32(f.payload, 1);
      std::shared_ptr<std::future<bool>> fut;
      {
        std::lock_guard lk(admin_mu_);
        if (site == 0xffffffffu)
          site = static_cast<std::uint32_t>(chaos_.corrupting_site());
        fut = std::make_shared<std::future<bool>>(farm_.inject_fault(w, site));
      }
      c.admin_pending.push_back(Connection::PendingAdmin{
          f.seq, f.flags, [fut, w, site]() -> std::optional<std::string> {
            if (fut->wait_for(std::chrono::seconds(0)) != std::future_status::ready)
              return std::nullopt;
            const bool flipped = fut->get();
            return std::string("inject site ") + std::to_string(site) + " worker " +
                   std::to_string(w) + (flipped ? ": flipped" : ": no gate-level state");
          }});
      return true;
    }
    default:
      send_error(c, f.seq, ErrorCode::kUnknownOpcode, "unhandled admin opcode", /*fatal=*/true);
      return false;
  }
}

void Server::handle_data_frame(Connection& c, Frame&& f) {
  if (!c.key) {
    send_error(c, f.seq, ErrorCode::kNoKey, "SET_KEY before data", /*fatal=*/false);
    return;
  }
  // Sub-layout checks: [mode u8][iv 16][blocks...] / [counter 16][bytes...].
  const bool is_ctr = f.op == Op::kCtrStream;
  const std::size_t head = is_ctr ? 16 : 17;
  if (f.payload.size() <= head) {
    send_error(c, f.seq, ErrorCode::kBadPayload, "payload too short", /*fatal=*/false);
    return;
  }
  if (!is_ctr) {
    if (f.payload[0] > 1) {
      send_error(c, f.seq, ErrorCode::kBadPayload, "mode must be 0 (ECB) or 1 (CBC)",
                 /*fatal=*/false);
      return;
    }
    if ((f.payload.size() - head) % aes::kBlock != 0) {
      send_error(c, f.seq, ErrorCode::kBadPayload, "data must be whole 16-byte blocks",
                 /*fatal=*/false);
      return;
    }
  }
  if (c.in_flight.size() + c.deferred.size() >= cfg_.window) {
    // The client broke the kHelloOk contract; cutting the connection is
    // what bounds server-side state per session.
    counters_.window_violations.fetch_add(1, std::memory_order_relaxed);
    send_error(c, f.seq, ErrorCode::kWindowExceeded, "flow-control window exceeded",
               /*fatal=*/true);
    return;
  }
  counters_.data_frames.fetch_add(1, std::memory_order_relaxed);
  session_in_flight_.record(c.in_flight.size() + 1);
  if (!submit_request(c, f)) c.deferred.push_back(std::move(f));
}

/// Build the farm request for a validated data frame and submit it.
/// Returns false when the farm's queue refused it (caller defers).
bool Server::submit_request(Connection& c, Frame& f) {
  const bool is_ctr = f.op == Op::kCtrStream;
  const std::size_t head = is_ctr ? 16 : 17;

  farm::Request req;
  req.session_id = c.session_id;
  req.key = *c.key;
  req.encrypt = f.op != Op::kDecBlocks;
  if (is_ctr) {
    req.mode = farm::Mode::kCtr;
    std::copy(f.payload.begin(), f.payload.begin() + 16, req.iv.begin());
  } else {
    req.mode = f.payload[0] == 0 ? farm::Mode::kEcb : farm::Mode::kCbc;
    std::copy(f.payload.begin() + 1, f.payload.begin() + 17, req.iv.begin());
  }
  req.payload.assign(f.payload.begin() + static_cast<std::ptrdiff_t>(head), f.payload.end());
  const std::uint64_t blocks = (req.payload.size() + aes::kBlock - 1) / aes::kBlock;

  Connection::InFlight inf;
  inf.seq = f.seq;
  inf.flags = f.flags;
  inf.t_received = std::chrono::steady_clock::now();
  inf.blocks = blocks;
  inf.trace_name = trace_name_of(f.op);

  // Fan-out-sized CTR streams go through the blocking submit so they keep
  // the farm's chunk-scatter path; the wait is bounded by the farm's own
  // queue capacity and workers never block on this thread, so it's short.
  if (farm_.fans_out(req)) {
    inf.future = farm_.submit(std::move(req));
  } else {
    auto maybe = farm_.try_submit(std::move(req));
    if (!maybe) return false;
    inf.future = std::move(*maybe);
  }
  c.in_flight.push_back(std::move(inf));
  counters_.in_flight.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Server::retry_deferred(Connection& c) {
  bool any = false;
  while (!c.deferred.empty()) {
    if (c.in_flight.size() >= cfg_.window) break;
    if (!submit_request(c, c.deferred.front())) break;
    c.deferred.pop_front();
    counters_.deferred_retries.fetch_add(1, std::memory_order_relaxed);
    any = true;
  }
  return any;
}

bool Server::reap_completions(Connection& c) {
  bool any = false;
  for (std::size_t i = 0; i < c.in_flight.size();) {
    auto& inf = c.in_flight[i];
    if (inf.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++i;
      continue;
    }
    const std::uint64_t latency_us = us_since(inf.t_received);
    try {
      farm::Result r = inf.future.get();
      send_frame(c, Op::kResult, inf.seq, inf.flags, std::move(r.data));
      counters_.responses_sent.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      send_error(c, inf.seq, ErrorCode::kInternal, e.what(), /*fatal=*/false);
    }
    request_latency_us_.record(latency_us);
    if (tracer_) {
      obs::TraceEvent e;
      e.ts_us = us_since(start_) - latency_us;
      e.dur_us = static_cast<std::uint32_t>(latency_us);
      e.name = inf.trace_name;
      e.track = 0;
      e.arg = inf.blocks;
      e.arg2 = c.session_id;
      tracer_->record(0, e);
    }
    c.in_flight.erase(c.in_flight.begin() + static_cast<std::ptrdiff_t>(i));
    counters_.in_flight.fetch_sub(1, std::memory_order_relaxed);
    any = true;
  }
  for (auto it = c.admin_pending.begin(); it != c.admin_pending.end();) {
    std::optional<std::string> done;
    try {
      done = it->poll();
    } catch (const std::exception& e) {
      send_error(c, it->seq, ErrorCode::kInternal, e.what(), /*fatal=*/false);
      it = c.admin_pending.erase(it);
      any = true;
      continue;
    }
    if (!done) {
      ++it;
      continue;
    }
    send_frame(c, Op::kAdminOk, it->seq, it->flags,
               std::vector<std::uint8_t>(done->begin(), done->end()));
    counters_.responses_sent.fetch_add(1, std::memory_order_relaxed);
    it = c.admin_pending.erase(it);
    any = true;
  }
  if (c.drain_pending && c.quiesced()) {
    c.drain_pending = false;
    counters_.drains.fetch_add(1, std::memory_order_relaxed);
    send_frame(c, Op::kDrainOk, c.drain_seq, c.drain_flags, {});
    any = true;
  }
  return any;
}

bool Server::flush_writes(Connection& c) {
  if (c.dead) return false;
  bool any = false;
  while (c.out_off < c.outbuf.size()) {
    const IoResult r = c.conn->write_some(
        std::span<const std::uint8_t>(c.outbuf.data() + c.out_off, c.outbuf.size() - c.out_off));
    if (r.status == IoStatus::kOk) {
      c.out_off += r.n;
      counters_.bytes_out.fetch_add(r.n, std::memory_order_relaxed);
      any = true;
    } else if (r.status == IoStatus::kWouldBlock) {
      break;
    } else {
      c.dead = true;
      break;
    }
  }
  if (c.flushed() && c.out_off > 0) {
    c.outbuf.clear();
    c.out_off = 0;
  }
  return any;
}

void Server::send_frame(Connection& c, Op op, std::uint32_t seq, std::uint16_t flags,
                        std::vector<std::uint8_t> payload) {
  Frame f;
  f.op = op;
  f.flags = flags;
  f.session_id = c.session_id;
  f.seq = seq;
  f.payload = std::move(payload);
  const auto bytes = encode_frame(f);
  c.outbuf.insert(c.outbuf.end(), bytes.begin(), bytes.end());
}

void Server::send_error(Connection& c, std::uint32_t seq, ErrorCode code,
                        const std::string& msg, bool fatal) {
  send_frame(c, Op::kError, seq, 0, encode_error_payload(code, msg));
  counters_.errors_sent.fetch_add(1, std::memory_order_relaxed);
  if (fatal) c.closing = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  const auto load = [](const char*, std::uint64_t& v, const std::atomic<std::uint64_t>& c) {
    v = c.load(std::memory_order_relaxed);
  };
  for_each_counter(load, s, counters_);
  if (director_) s.node_id = director_->self_id();
  s.request_latency_us = request_latency_us_.snapshot();
  s.session_in_flight = session_in_flight_.snapshot();
  if (tracer_) {
    s.trace_events = tracer_->recorded();
    s.trace_dropped = tracer_->dropped();
  }
  return s;
}

std::string ServerStats::report() const {
  char line[192];
  std::string out;
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  add("server: one event loop\n");
  add("  traffic:   %llu connections, %llu frames in, %llu responses, %llu errors, "
      "%.1f MiB in / %.1f MiB out\n",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(frames_received),
      static_cast<unsigned long long>(responses_sent),
      static_cast<unsigned long long>(errors_sent),
      static_cast<double>(bytes_in) / (1024.0 * 1024.0),
      static_cast<double>(bytes_out) / (1024.0 * 1024.0));
  add("  latency:   request p50 %llu us, p99 %llu us, max %llu us\n",
      static_cast<unsigned long long>(request_latency_us.percentile(0.50)),
      static_cast<unsigned long long>(request_latency_us.percentile(0.99)),
      static_cast<unsigned long long>(request_latency_us.max));
  if (!node_id.empty())
    add("  cluster:   node %s (%llu alive), %llu redirects sent, %llu gossip frames, "
        "%llu gossip rounds\n",
        node_id.c_str(), static_cast<unsigned long long>(cluster_nodes_alive),
        static_cast<unsigned long long>(redirects_sent),
        static_cast<unsigned long long>(gossip_frames),
        static_cast<unsigned long long>(gossip_rounds));
  return out;
}

void ServerStats::write_json(report::JsonWriter& j) const {
  j.begin_object();
  j.key("node_id").value(node_id);
  for_each_counter([&](const char* name, std::uint64_t v) { j.key(name).value(v); }, *this);
  j.key("trace_events").value(trace_events);
  j.key("trace_dropped").value(trace_dropped);
  j.key("request_latency_us");
  obs::write_histogram_json(j, request_latency_us);
  j.key("session_in_flight");
  obs::write_histogram_json(j, session_in_flight);
  j.end_object();
}

bool Server::write_chrome_trace(std::ostream& os) const {
  if (!tracer_) return false;
  tracer_->write_chrome_trace(os, kTraceNames, "aesip serve");
  return true;
}

}  // namespace aesip::net
