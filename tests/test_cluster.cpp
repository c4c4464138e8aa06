// The cluster stack, bottom to top: consistent-hash Ring invariants,
// gossip Director convergence, one node's event loop under concurrent
// sessions and its stats document, and multi-node sharding: redirect
// following, pinning, and cross-node session migration with zero lost
// frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <random>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "cluster/director.hpp"
#include "cluster/ring.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "report/json.hpp"

namespace net = aesip::net;
namespace cluster = aesip::cluster;
namespace farm = aesip::farm;
namespace aes = aesip::aes;

using namespace std::chrono_literals;

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Mixed verified traffic (same shape as test_net.cpp's helper, plus a
/// ClientConfig and a redirect-count out-param for the sharding tests).
/// Returns the number of responses that differed from aes::Aes128.
int run_verified_session(net::Transport& transport, const std::string& address,
                         std::uint64_t sid, int requests, std::uint32_t seed,
                         net::ClientConfig ccfg = {}, std::uint64_t* redirects_out = nullptr) {
  net::Client client(transport, address, sid, ccfg);
  std::mt19937 rng(seed);
  farm::Key128 key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  client.set_key(key);
  const aes::Aes128 ref(key);

  int mismatches = 0;
  struct Outstanding {
    std::uint32_t seq;
    std::vector<std::uint8_t> expect;
  };
  std::deque<Outstanding> outstanding;
  const auto collect = [&] {
    auto o = std::move(outstanding.front());
    outstanding.pop_front();
    if (client.wait(o.seq) != o.expect) ++mismatches;
  };

  for (int r = 0; r < requests; ++r) {
    farm::Key128 iv;
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
    const std::span<const std::uint8_t, 16> ivs(iv.data(), 16);
    const int mode = static_cast<int>(rng() % 3);
    std::size_t bytes = (1 + rng() % 6) * aes::kBlock;
    if (mode == 2) bytes -= rng() % aes::kBlock;
    std::vector<std::uint8_t> data(bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());

    Outstanding o;
    if (mode == 2) {
      o.expect = aes::ctr_crypt(ref, ivs, data);
      o.seq = client.submit_ctr(iv, std::move(data));
    } else if (rng() & 1) {
      o.expect = mode ? aes::cbc_encrypt(ref, ivs, data) : aes::ecb_encrypt(ref, data);
      o.seq = client.submit_enc(mode == 1, iv, std::move(data));
    } else {
      o.expect = mode ? aes::cbc_decrypt(ref, ivs, data) : aes::ecb_decrypt(ref, data);
      o.seq = client.submit_dec(mode == 1, iv, std::move(data));
    }
    outstanding.push_back(std::move(o));
    while (outstanding.size() >= client.window()) collect();
  }
  while (!outstanding.empty()) collect();
  client.drain();
  if (redirects_out) *redirects_out = client.redirects();
  client.bye();
  return mismatches;
}

net::ServerConfig cluster_cfg(const std::string& node_id, std::vector<std::string> seeds,
                              int workers = 1) {
  net::ServerConfig cfg;
  cfg.farm.workers = workers;
  cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
  net::ClusterConfig cc;
  cc.node_id = node_id;
  cc.seeds = std::move(seeds);
  cc.gossip_interval = 20ms;
  cc.suspect_after = 1000ms;
  cfg.cluster = std::move(cc);
  return cfg;
}

/// Poll until `pred()` or `deadline` passes; membership convergence is
/// asynchronous (gossip), so tests wait on the directors, never sleep blind.
template <typename Pred>
bool wait_until(Pred&& pred, std::chrono::milliseconds deadline) {
  const auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// cluster::Ring
// ---------------------------------------------------------------------------

TEST(ClusterRing, DeterministicAndFullCoverage) {
  cluster::Ring a(64), b(64);
  for (const char* id : {"alpha", "beta", "gamma"}) {
    a.add_node(id);
    b.add_node(id);
  }
  std::map<std::string, int> load;
  for (std::uint64_t sid = 1; sid <= 3000; ++sid) {
    const std::string& owner = a.owner(sid);
    EXPECT_EQ(owner, b.owner(sid)) << "ownership must be a pure function of membership";
    ++load[owner];
  }
  // Every node owns a real share: vnodes smooth the arcs, so no node
  // should fall below a loose 1/10th of fair (fair = 1000 here).
  ASSERT_EQ(load.size(), 3u);
  for (const auto& [id, n] : load) EXPECT_GT(n, 100) << id << " starved";
}

TEST(ClusterRing, MinimalDisruptionOnMembershipChange) {
  cluster::Ring r(64);
  r.add_node("n0");
  r.add_node("n1");
  r.add_node("n2");
  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t sid = 1; sid <= 2000; ++sid) before[sid] = r.owner(sid);

  r.remove_node("n1");
  int moved = 0;
  for (const auto& [sid, owner] : before) {
    const std::string& now = r.owner(sid);
    if (owner != "n1") {
      EXPECT_EQ(now, owner) << "removing n1 must not move sid " << sid;
    } else {
      EXPECT_NE(now, "n1");
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);  // n1 owned something

  // Adding it back restores the original map exactly (same hash points).
  r.add_node("n1");
  for (const auto& [sid, owner] : before) EXPECT_EQ(r.owner(sid), owner);
}

TEST(ClusterRing, EmptyAndSingleNode) {
  cluster::Ring r(8);
  EXPECT_EQ(r.owner(42), "");
  EXPECT_EQ(r.node_count(), 0u);
  r.add_node("solo");
  EXPECT_TRUE(r.contains("solo"));
  for (std::uint64_t sid = 0; sid < 100; ++sid) EXPECT_EQ(r.owner(sid), "solo");
  r.remove_node("solo");
  EXPECT_EQ(r.owner(7), "");
}

// ---------------------------------------------------------------------------
// cluster::Director (pure state machine, fake clock)
// ---------------------------------------------------------------------------

TEST(ClusterDirector, GossipConvergesSuspectsAndDrains) {
  using clk = cluster::Director::clock;
  clk::time_point now = clk::now();

  cluster::DirectorConfig ca{"a", "addr-a", {"addr-b"}, 500ms, 16};
  cluster::DirectorConfig cb{"b", "addr-b", {}, 500ms, 16};
  cluster::Director a(ca, now), b(cb, now);
  EXPECT_EQ(a.alive_count(now), 1u);  // just self

  // One exchange each way: both learn both.
  a.tick(now);
  b.tick(now);
  EXPECT_TRUE(b.merge_view(a.encode_view(), now));
  EXPECT_TRUE(a.merge_view(b.encode_view(), now));
  EXPECT_EQ(a.alive_count(now), 2u);
  EXPECT_EQ(b.alive_count(now), 2u);
  EXPECT_EQ(a.address_of("b"), "addr-b");

  // Merge is idempotent; a garbage blob merges nothing and reports it.
  EXPECT_TRUE(a.merge_view(b.encode_view(), now));
  EXPECT_EQ(a.alive_count(now), 2u);
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe};
  EXPECT_FALSE(a.merge_view(garbage, now));

  // Owners agree across nodes once views agree.
  for (std::uint64_t sid = 1; sid <= 200; ++sid)
    EXPECT_EQ(a.owner(sid, now), b.owner(sid, now));

  // b stops gossiping: past suspect_after its heartbeat stops advancing
  // and it drops out of a's ring — every session re-homes onto a.
  now += 600ms;
  a.tick(now);
  EXPECT_EQ(a.alive_count(now), 1u);
  for (std::uint64_t sid = 1; sid <= 50; ++sid) EXPECT_EQ(a.owner(sid, now), "a");

  // A *draining* node spreads serving=false while its heartbeat still
  // advances: it stays in the view but leaves the ring.
  b.tick(now);
  b.set_self_serving(false);
  EXPECT_FALSE(b.self_serving());
  b.tick(now);
  EXPECT_TRUE(a.merge_view(b.encode_view(), now));
  EXPECT_EQ(a.alive_count(now), 1u);
  bool saw_b = false;
  for (const auto& nv : a.view(now))
    if (nv.id == "b") {
      saw_b = true;
      EXPECT_FALSE(nv.serving);
      EXPECT_FALSE(nv.alive);
    }
  EXPECT_TRUE(saw_b);
}

// ---------------------------------------------------------------------------
// One node's event loop
// ---------------------------------------------------------------------------

// Eight verified sessions at once on the one loop: every connection is
// accepted, every data frame answered, and framing never lost.
TEST(ServerLoop, ConcurrentSessionsAccountForEverything) {
  auto transport = net::make_tcp_transport();
  net::ServerConfig cfg;
  cfg.farm.workers = 2;
  cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
  net::Server server(*transport, "127.0.0.1:0", cfg);
  server.start();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 8; ++s)
    threads.emplace_back([&, s] {
      mismatches += run_verified_session(*transport, server.address(),
                                         static_cast<std::uint64_t>(s) + 1, 16,
                                         900 + static_cast<std::uint32_t>(s));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  server.stop();
  const auto st = server.stats();
  EXPECT_EQ(st.connections_accepted, 8u);
  EXPECT_EQ(st.responses_sent, st.data_frames);
  EXPECT_EQ(st.protocol_errors, 0u);
}

// One loop per node: any other loop count is refused at construction.
TEST(ServerLoop, RejectsAThreadCountOtherThanOne) {
  auto transport = net::make_tcp_transport();
  for (const int threads : {0, 2}) {
    net::ServerConfig cfg;
    cfg.threads = threads;
    EXPECT_THROW(net::Server(*transport, "127.0.0.1:0", cfg), std::invalid_argument)
        << threads;
  }
}

// The server's one JSON rendering: every counter under its own key, read
// back from the document, not from the struct.
TEST(ServerLoop, StatsJsonCarriesEveryCounter) {
  auto transport = net::make_tcp_transport();
  net::ServerConfig cfg;
  cfg.farm.workers = 2;
  cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
  net::Server server(*transport, "127.0.0.1:0", cfg);
  server.start();
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(run_verified_session(*transport, server.address(),
                                   static_cast<std::uint64_t>(s) + 1, 8,
                                   700 + static_cast<std::uint32_t>(s)),
              0);
  server.stop();
  const auto st = server.stats();
  std::ostringstream os;
  {
    aesip::report::JsonWriter j(os);
    st.write_json(j);
  }

  // Members of the root sit at two spaces (histogram members at four are
  // skipped).
  std::map<std::string, std::uint64_t> top;
  static const std::regex kMember(R"re(^( *)"(\w+)": (\d+),?$)re");
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) {
    std::smatch m;
    if (!std::regex_match(line, m, kMember)) continue;
    if (m[1].length() == 2) top[m[2].str()] = std::stoull(m[3].str());
  }
  for (const char* key :
       {"connections_accepted", "connections_closed", "connections_active", "sessions_active",
        "frames_received", "data_frames", "responses_sent", "errors_sent", "protocol_errors",
        "window_violations", "deferred_retries", "idle_closes", "drains", "admin_frames",
        "bytes_in", "bytes_out", "in_flight", "redirects_sent", "gossip_frames",
        "gossip_rounds", "cluster_nodes_alive", "trace_events", "trace_dropped"})
    EXPECT_EQ(top.count(key), 1u) << key << " missing:\n" << os.str();
  EXPECT_NE(os.str().find("\"request_latency_us\": {"), std::string::npos);
  EXPECT_NE(os.str().find("\"session_in_flight\": {"), std::string::npos);

  EXPECT_EQ(top["connections_accepted"], 4u);
  EXPECT_EQ(top["frames_received"], st.frames_received);
  EXPECT_GT(top["bytes_out"], 0u);
}

// ---------------------------------------------------------------------------
// Multi-node sharding
// ---------------------------------------------------------------------------

TEST(ClusterSharding, ThreeNodesRedirectAndServeBitExact) {
  auto transport = net::make_tcp_transport();

  // Bring up three clustered nodes, each seeding off the earlier ones.
  std::vector<std::unique_ptr<net::Server>> nodes;
  std::vector<std::string> addrs;
  for (int n = 0; n < 3; ++n) {
    auto cfg = cluster_cfg("n" + std::to_string(n), addrs);
    nodes.push_back(std::make_unique<net::Server>(*transport, "127.0.0.1:0", cfg));
    addrs.push_back(nodes.back()->address());
    nodes.back()->start();
  }
  for (const auto& node : nodes)
    ASSERT_TRUE(wait_until(
        [&] {
          return node->director()->alive_count(std::chrono::steady_clock::now()) == 3u;
        },
        5000ms))
        << "gossip membership did not converge";

  // Every session dials a fixed node regardless of owner; the ring plus
  // kRedirect must land it on the right one, bit-exact.
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> hops{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 6; ++s)
    threads.emplace_back([&, s] {
      std::uint64_t r = 0;
      mismatches += run_verified_session(*transport, addrs[static_cast<std::size_t>(s) % 3],
                                         static_cast<std::uint64_t>(s) + 1, 12,
                                         1100 + static_cast<std::uint32_t>(s), {}, &r);
      hops += r;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // With 6 sessions hashed over 3 nodes and blind dialing, some must have
  // been redirected — and every hop a client followed is one a node sent.
  std::uint64_t sent = 0, served = 0;
  for (auto& node : nodes) {
    node->stop();
    const auto st = node->stats();
    sent += st.redirects_sent;
    served += st.data_frames;
    EXPECT_EQ(st.protocol_errors, 0u);
    EXPECT_GT(st.gossip_rounds, 0u) << st.node_id << " never gossiped";
  }
  EXPECT_GT(hops.load(), 0u);
  EXPECT_EQ(sent, hops.load());
  EXPECT_GT(served, 0u);
}

TEST(ClusterSharding, PinnedClientIsNeverRedirected) {
  auto transport = net::make_tcp_transport();
  std::vector<std::unique_ptr<net::Server>> nodes;
  std::vector<std::string> addrs;
  for (int n = 0; n < 2; ++n) {
    auto cfg = cluster_cfg("n" + std::to_string(n), addrs);
    nodes.push_back(std::make_unique<net::Server>(*transport, "127.0.0.1:0", cfg));
    addrs.push_back(nodes.back()->address());
    nodes.back()->start();
  }
  for (const auto& node : nodes)
    ASSERT_TRUE(wait_until(
        [&] {
          return node->director()->alive_count(std::chrono::steady_clock::now()) == 2u;
        },
        5000ms));

  // Find a session n0 does NOT own; a pinned client talking to n0 must be
  // served there anyway (this is how node-targeted tooling works).
  cluster::Ring ring(64);
  ring.add_node("n0");
  ring.add_node("n1");
  std::uint64_t foreign_sid = 0;
  for (std::uint64_t sid = 1; sid < 1000; ++sid)
    if (ring.owner(sid) == "n1") {
      foreign_sid = sid;
      break;
    }
  ASSERT_NE(foreign_sid, 0u);

  net::ClientConfig pinned;
  pinned.pinned = true;
  std::uint64_t redirects = ~0ull;
  EXPECT_EQ(run_verified_session(*transport, addrs[0], foreign_sid, 8, 1300, pinned,
                                 &redirects),
            0);
  EXPECT_EQ(redirects, 0u) << "kFlagPinned must suppress redirects";
  for (auto& node : nodes) node->stop();
  EXPECT_GT(nodes[0]->stats().data_frames, 0u) << "n0 must have served the pinned session";
  EXPECT_EQ(nodes[0]->stats().redirects_sent, 0u);
}

TEST(ClusterSharding, QuarantineLastWorkerMigratesSessionsZeroLoss) {
  // The migration story end to end: quarantining a node's only farm
  // worker stops it serving; gossip spreads the fact; a live session
  // mid-stream gets kRedirect, replays onto the survivor, and not one
  // frame is lost or corrupted.
  auto transport = net::make_tcp_transport();
  std::vector<std::unique_ptr<net::Server>> nodes;
  std::vector<std::string> addrs;
  for (int n = 0; n < 2; ++n) {
    auto cfg = cluster_cfg("n" + std::to_string(n), addrs, /*workers=*/1);
    nodes.push_back(std::make_unique<net::Server>(*transport, "127.0.0.1:0", cfg));
    addrs.push_back(nodes.back()->address());
    nodes.back()->start();
  }
  for (const auto& node : nodes)
    ASSERT_TRUE(wait_until(
        [&] {
          return node->director()->alive_count(std::chrono::steady_clock::now()) == 2u;
        },
        5000ms));

  // A session n1 owns, dialed directly at n1: no redirect yet.
  cluster::Ring ring(64);
  ring.add_node("n0");
  ring.add_node("n1");
  std::uint64_t sid = 0;
  for (std::uint64_t s = 1; s < 1000; ++s)
    if (ring.owner(s) == "n1") {
      sid = s;
      break;
    }
  ASSERT_NE(sid, 0u);

  net::Client client(*transport, addrs[1], sid);
  std::mt19937 rng(1500);
  farm::Key128 key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  client.set_key(key);
  const aes::Aes128 ref(key);

  int mismatches = 0;
  const auto one_request = [&] {
    std::vector<std::uint8_t> data(aes::kBlock * (1 + rng() % 4));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const auto expect = aes::ecb_encrypt(ref, data);
    farm::Key128 iv{};
    if (client.enc_blocks(false, iv, std::move(data)) != expect) ++mismatches;
  };
  for (int r = 0; r < 8; ++r) one_request();
  EXPECT_EQ(client.redirects(), 0u) << "dialing the owner directly needs no hop";

  // Quarantine n1's only worker through the admin plane (pinned client, so
  // the admin traffic itself is never bounced away from its target).
  {
    net::ClientConfig pinned;
    pinned.pinned = true;
    net::Client admin(*transport, addrs[1], 0xad31ull, pinned);
    admin.fleet_quarantine(0, /*resume=*/false);
    admin.bye();
  }

  // n1 drops out of both rings: immediately out of its own (serving flag
  // is local), out of n0's once gossip delivers the news.
  ASSERT_TRUE(wait_until(
      [&] {
        const auto now = std::chrono::steady_clock::now();
        return !nodes[1]->director()->self_serving() &&
               nodes[0]->director()->alive_count(now) == 1u;
      },
      5000ms))
      << "quarantine did not propagate through gossip";

  // Same client, same session, no manual reconnect: the next frames hit
  // n1, bounce, replay on n0 — and every byte still verifies.
  for (int r = 0; r < 8; ++r) one_request();
  client.drain();
  EXPECT_EQ(mismatches, 0) << "migration corrupted frames";
  EXPECT_GE(client.redirects(), 1u);
  EXPECT_EQ(client.server_address(), addrs[0]) << "the session must land on the survivor";
  client.bye();

  for (auto& node : nodes) node->stop();
  EXPECT_GE(nodes[1]->stats().redirects_sent, 1u);
  EXPECT_GT(nodes[0]->stats().data_frames, 0u) << "the survivor served the migrated tail";
  EXPECT_EQ(nodes[0]->stats().protocol_errors, 0u);
  EXPECT_EQ(nodes[1]->stats().protocol_errors, 0u);
}

// ---------------------------------------------------------------------------
// Client connect backoff + wire gossip error path
// ---------------------------------------------------------------------------

TEST(ClusterClient, ConnectBackoffIsDoublyBoundedAndCarriesTheError) {
  auto transport = net::make_tcp_transport();
  // Grab a port that refuses connections: bind + close, then dial it.
  std::string dead_addr;
  {
    auto probe = transport->listen("127.0.0.1:0");
    dead_addr = probe->address();
    probe->close();
  }

  net::ClientConfig cfg;
  cfg.connect_attempts = 1000;             // attempts alone would spin forever...
  cfg.backoff_initial = 2ms;
  cfg.backoff_max = 20ms;
  cfg.connect_wait_max = 150ms;            // ...so the wall-clock cap must bite
  const auto t0 = std::chrono::steady_clock::now();
  try {
    net::Client client(*transport, dead_addr, 1, cfg);
    FAIL() << "connect to a dead port must throw";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kConnectFailed);
    // The message must carry the last underlying failure, not just "failed".
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed, 2000ms) << "total wait must be capped by connect_wait_max";
}

TEST(ClusterClient, GossipAgainstStandaloneServerIsNotClustered) {
  net::LoopbackTransport transport;
  net::ServerConfig cfg;
  cfg.farm.workers = 1;
  cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
  net::Server server(transport, "svc", cfg);  // no ClusterConfig
  server.start();
  EXPECT_EQ(server.director(), nullptr);

  net::Client client(transport, "svc", 1);
  try {
    client.gossip({1, 2, 3});
    FAIL() << "kGossip at a standalone server must be refused";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kNotClustered);
  }
  client.bye();
  server.stop();
}

}  // namespace
