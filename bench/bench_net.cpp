// Service-layer overhead: the wire protocol vs. calling the farm directly.
//
// The net stack (framing, CRC, transport copies, the server event loop)
// sits between clients and the IP farm; this bench measures what it
// costs. The gate: with 4 workers on the behavioral engine — compute
// heavy, the deployment the service layer exists for — pushing the same
// workload through loopback server+clients must reach >= 70% of the
// direct Farm::submit ceiling (`gate.meets_target` in BENCH_net.json).
// The ratio is the median of kGatePairs alternating direct/loopback pairs
// after a warm-up run of each, the first side swapped each pair. Below
// the target, framing is eating the replication win and the protocol
// needs work.
//
// A second sweep runs the sw engine (compute nearly free, so protocol
// overhead is the signal) across sessions x payload size: how concurrency
// and frame size amortize the fixed per-frame cost.
//
// Results go to stdout (table) and BENCH_net.json (aesip-bench-v1
// envelope; schema documented in docs/benchmarks.md).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "farm/farm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "paired_trials.hpp"
#include "report/json.hpp"

namespace farm = aesip::farm;
namespace net = aesip::net;

namespace {

constexpr double kClockNs = 14.0;  // the paper's Acex1K Table 2 clock
constexpr int kGatePairs = 11;

farm::Key128 session_key(std::uint64_t sid) {
  farm::Key128 k{};
  for (std::size_t i = 0; i < k.size(); ++i)
    k[i] = static_cast<std::uint8_t>(0xa5 ^ (sid * 29 + i * 13));
  return k;
}

/// The workload one session pushes: `requests` ECB frames of
/// `blocks_per_req` blocks each, deterministic payload bytes.
std::vector<std::uint8_t> request_payload(std::size_t blocks, std::uint32_t salt) {
  std::vector<std::uint8_t> p(blocks * 16);
  std::mt19937 rng(salt);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  return p;
}

/// Ceiling: the same sessions x requests workload submitted straight into
/// a Farm from one thread per session, `window` futures outstanding each —
/// the client pipeline without any wire in the way.
double run_direct(aesip::engine::EngineKind engine, int workers, int sessions,
                  std::uint64_t requests, std::size_t blocks_per_req, std::size_t window) {
  farm::FarmConfig cfg;
  cfg.workers = workers;
  cfg.engine = engine;
  cfg.queue_capacity = 128;
  farm::Farm f(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      const auto key = session_key(static_cast<std::uint64_t>(s) + 1);
      std::deque<std::future<farm::Result>> pending;
      for (std::uint64_t r = 0; r < requests; ++r) {
        farm::Request req;
        req.session_id = static_cast<std::uint64_t>(s) + 1;
        req.key = key;
        req.mode = farm::Mode::kEcb;
        req.payload = request_payload(blocks_per_req, static_cast<std::uint32_t>(r));
        pending.push_back(f.submit(std::move(req)));
        while (pending.size() >= window) {
          pending.front().get();
          pending.pop_front();
        }
      }
      while (!pending.empty()) {
        pending.front().get();
        pending.pop_front();
      }
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The same workload through the whole service stack: loopback transport,
/// wire framing both ways, the server event loop, one net::Client per
/// session pipelining up to the server's window.
double run_loopback(aesip::engine::EngineKind engine, int workers, int sessions,
                    std::uint64_t requests, std::size_t blocks_per_req) {
  net::LoopbackTransport transport(/*max_chunk=*/1 << 16, /*pipe_capacity=*/1 << 20);
  net::ServerConfig cfg;
  cfg.farm.workers = workers;
  cfg.farm.engine = engine;
  cfg.farm.queue_capacity = 128;
  cfg.window = 32;
  net::Server server(transport, "bench", cfg);
  server.start();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      net::Client client(transport, "bench", static_cast<std::uint64_t>(s) + 1);
      client.set_key(session_key(static_cast<std::uint64_t>(s) + 1));
      const farm::Key128 iv{};
      std::deque<std::uint32_t> pending;
      for (std::uint64_t r = 0; r < requests; ++r) {
        pending.push_back(client.submit_enc(
            /*cbc=*/false, iv, request_payload(blocks_per_req, static_cast<std::uint32_t>(r))));
        while (pending.size() >= client.window()) {
          client.wait(pending.front());
          pending.pop_front();
        }
      }
      while (!pending.empty()) {
        client.wait(pending.front());
        pending.pop_front();
      }
      client.bye();
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();
  return secs;
}

// --- the cluster sweep --------------------------------------------------------

/// The verified workload through real sockets: `sessions` clients against
/// an in-process server (or sharded cluster), every response compared to
/// aes::Aes128, bounded client concurrency so 10k sessions fit any host.
struct NetRun {
  double secs = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t lost_frames = 0;  ///< missing or bit-inexact responses
  std::uint64_t redirects = 0;
  bool drained = false;  ///< every node stopped with zero in-flight frames
};

NetRun run_sockets(net::Transport& transport, int n_nodes, int sessions,
                   std::uint64_t requests, std::size_t blocks, int concurrency) {
  std::vector<std::unique_ptr<net::Server>> nodes;
  std::vector<std::string> addrs;
  for (int n = 0; n < n_nodes; ++n) {
    net::ServerConfig cfg;
    cfg.farm.workers = 2;
    cfg.farm.engine = aesip::engine::EngineKind::kSoftware;
    cfg.farm.queue_capacity = 128;
    cfg.window = 32;
    if (n_nodes > 1) {
      net::ClusterConfig cc;
      cc.node_id = "bench-n" + std::to_string(n);
      cc.seeds = addrs;
      cc.gossip_interval = std::chrono::milliseconds(20);
      cfg.cluster = std::move(cc);
    }
    nodes.push_back(std::make_unique<net::Server>(transport, "127.0.0.1:0", cfg));
    addrs.push_back(nodes.back()->address());
    nodes.back()->start();
  }
  if (n_nodes > 1) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (const auto& node : nodes)
      while (node->director()->alive_count(std::chrono::steady_clock::now()) <
                 static_cast<std::size_t>(n_nodes) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  NetRun out;
  std::atomic<std::uint64_t> lost{0}, redirects{0};
  std::atomic<int> next_session{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  const int pool = std::min(concurrency, sessions);
  for (int w = 0; w < pool; ++w)
    threads.emplace_back([&] {
      for (int s = next_session.fetch_add(1); s < sessions;
           s = next_session.fetch_add(1)) {
        const auto sid = static_cast<std::uint64_t>(s) + 1;
        try {
          net::Client client(transport, addrs[static_cast<std::size_t>(s) %
                                              addrs.size()],
                             sid);
          const auto key = session_key(sid);
          client.set_key(key);
          const aesip::aes::Aes128 ref(key);
          const auto payload = request_payload(blocks, static_cast<std::uint32_t>(sid));
          const auto expect = aesip::aes::ecb_encrypt(ref, payload);
          const farm::Key128 iv{};
          std::deque<std::uint32_t> pending;
          std::uint64_t bad = 0;
          for (std::uint64_t r = 0; r < requests; ++r) {
            pending.push_back(client.submit_enc(false, iv, payload));
            while (pending.size() >= client.window()) {
              if (client.wait(pending.front()) != expect) ++bad;
              pending.pop_front();
            }
          }
          while (!pending.empty()) {
            if (client.wait(pending.front()) != expect) ++bad;
            pending.pop_front();
          }
          client.drain();
          lost += bad;
          redirects += client.redirects();
          client.bye();
        } catch (const std::exception&) {
          lost += requests;  // the whole session counts as lost frames
        }
      }
    });
  for (auto& t : threads) t.join();
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.total_blocks = static_cast<std::uint64_t>(sessions) * requests * blocks;
  out.lost_frames = lost.load();
  out.redirects = redirects.load();

  out.drained = true;  // graceful: every node answers its in-flight frames
  for (auto& node : nodes) {
    node->stop();
    const auto st = node->stats();
    if (st.in_flight != 0 || st.protocol_errors != 0) out.drained = false;
  }
  return out;
}

void print_and_dump() {
  // --- the gate: behavioral engine, 4 workers --------------------------------
  const int workers = 4;
  const int gate_sessions = 4;
  const std::uint64_t gate_requests = 64;
  const std::size_t gate_blocks = 16;
  const std::uint64_t gate_total_blocks =
      static_cast<std::uint64_t>(gate_sessions) * gate_requests * gate_blocks;

  std::printf("=== net service layer vs direct farm calls ===\n\n");
  std::printf("gate workload: %d sessions x %llu requests x %zu blocks (behavioral, "
              "%d workers)\n",
              gate_sessions, static_cast<unsigned long long>(gate_requests), gate_blocks,
              workers);

  // Warm one short run of each side (the first pays thread/core spin-up),
  // then measure pairs; each pair's ratio is loopback over direct blocks/s.
  run_direct(aesip::engine::EngineKind::kBehavioral, workers, gate_sessions, 8, gate_blocks, 32);
  run_loopback(aesip::engine::EngineKind::kBehavioral, workers, gate_sessions, 8, gate_blocks);
  std::vector<double> direct_bps, loop_bps;
  const auto bps = [&](double secs) { return static_cast<double>(gate_total_blocks) / secs; };
  const auto gate = aesip::bench::run_pairs(
      kGatePairs,
      [&] {
        direct_bps.push_back(bps(run_direct(aesip::engine::EngineKind::kBehavioral, workers,
                                            gate_sessions, gate_requests, gate_blocks, 32)));
        return direct_bps.back();
      },
      [&] {
        loop_bps.push_back(bps(run_loopback(aesip::engine::EngineKind::kBehavioral, workers,
                                            gate_sessions, gate_requests, gate_blocks)));
        return loop_bps.back();
      },
      [](double direct, double loop) { return loop / direct; });
  const bool meets_target = gate.median >= 0.70;
  std::printf("  direct farm calls:   %10.0f blocks/s (median)\n",
              aesip::bench::quantile(direct_bps, 0.5));
  std::printf("  loopback wire stack: %10.0f blocks/s (median)\n",
              aesip::bench::quantile(loop_bps, 0.5));
  std::printf("  loopback/direct ratio per pair:");
  for (const double r : gate.per_pair) std::printf(" %.2f", r);
  std::printf("\n  median %.2f, IQR %.2f (target >= 0.70) -> %s\n\n", gate.median,
              gate.q3 - gate.q1, meets_target ? "ok" : "BELOW TARGET");

  // --- sw-engine sweep: protocol overhead vs concurrency and frame size -----
  struct SweepPoint {
    int sessions;
    std::size_t blocks_per_req;
    std::uint64_t total_blocks;
    double secs;
  };
  std::vector<SweepPoint> sweep;
  std::printf("sw-engine loopback sweep (%d workers):\n", workers);
  std::printf("  %-8s  %-10s  %12s\n", "sessions", "blk/frame", "blocks/s");
  for (const int sessions : {1, 2, 4, 8}) {
    for (const std::size_t blocks : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      // ~4k blocks per point, at least 8 requests per session.
      const std::uint64_t requests =
          std::max<std::uint64_t>(8, 4096 / (static_cast<std::uint64_t>(sessions) * blocks));
      const std::uint64_t total =
          static_cast<std::uint64_t>(sessions) * requests * blocks;
      const double secs = run_loopback(aesip::engine::EngineKind::kSoftware, workers,
                                       sessions, requests, blocks);
      sweep.push_back({sessions, blocks, total, secs});
      std::printf("  %-8d  %-10zu  %12.0f\n", sessions, blocks,
                  static_cast<double>(total) / secs);
    }
  }
  std::printf("\n");

  const unsigned hw = std::thread::hardware_concurrency();
  auto tcp = net::make_tcp_transport();

  // --- cluster sweep, nodes x sessions --------------------------------------
  // The scaling rows (1k/10k sessions, 4 nodes) only run where the host
  // can carry them; every row that runs must drain gracefully with zero
  // lost frames — that pair is the gate, throughput is the observation.
  struct ClusterRow {
    int nodes = 0;
    int sessions = 0;
    bool skipped = false;
    std::string reason;
    NetRun run;
  };
  std::vector<ClusterRow> cluster_rows;
  std::printf("cluster sweep (tcp, sw engine, 16 req x 4 blk per session):\n");
  std::printf("  %-6s  %-9s  %12s  %6s  %8s\n", "nodes", "sessions", "blocks/s", "lost",
              "redirect");
  for (const int n_nodes : {1, 2, 4}) {
    for (const int sessions : {64, 1000, 10000}) {
      ClusterRow row;
      row.nodes = n_nodes;
      row.sessions = sessions;
      if (sessions > 64 && hw < 4) {
        row.skipped = true;
        row.reason = "host has " + std::to_string(hw) +
                     " hardware threads; the " + std::to_string(sessions) +
                     "-session scale row needs >= 4";
        std::printf("  %-6d  %-9d  %12s  (%s)\n", n_nodes, sessions, "skipped",
                    row.reason.c_str());
      } else {
        row.run = run_sockets(*tcp, n_nodes, sessions, 16, 4, /*concurrency=*/64);
        std::printf("  %-6d  %-9d  %12.0f  %6llu  %8llu\n", n_nodes, sessions,
                    static_cast<double>(row.run.total_blocks) / row.run.secs,
                    static_cast<unsigned long long>(row.run.lost_frames),
                    static_cast<unsigned long long>(row.run.redirects));
      }
      cluster_rows.push_back(std::move(row));
    }
  }
  std::printf("\n");

  std::ofstream jf("BENCH_net.json");
  aesip::report::JsonWriter j(jf);
  aesip::report::begin_bench_envelope(j, "net", 4);
  j.begin_object();  // config
  j.key("clock_ns").value(kClockNs);
  j.key("workers").value(workers);
  j.key("window").value(32);
  j.key("transport").value("loopback");
  j.key("host_hardware_concurrency").value(std::thread::hardware_concurrency());
  j.end_object();
  j.key("gate").begin_object();
  j.key("engine").value("behavioral");
  j.key("sessions").value(gate_sessions);
  j.key("requests_per_session").value(gate_requests);
  j.key("blocks_per_request").value(gate_blocks);
  j.key("total_blocks").value(gate_total_blocks);
  j.key("direct_blocks_per_sec").value(aesip::bench::quantile(direct_bps, 0.5));
  j.key("loopback_blocks_per_sec").value(aesip::bench::quantile(loop_bps, 0.5));
  j.key("ratio").value(gate.median);  // median of the per-pair ratios
  aesip::bench::write_pairs_json(j, gate);
  j.key("target_ratio").value(0.70);
  j.key("meets_target").value(meets_target);
  j.end_object();
  j.key("sweep").begin_array();
  for (const auto& p : sweep) {
    j.begin_object();
    j.key("engine").value("sw");
    j.key("sessions").value(p.sessions);
    j.key("blocks_per_request").value(p.blocks_per_req);
    j.key("total_blocks").value(p.total_blocks);
    j.key("wall_seconds").value(p.secs);
    j.key("blocks_per_sec").value(static_cast<double>(p.total_blocks) / p.secs);
    j.end_object();
  }
  j.end_array();

  j.key("cluster").begin_array();
  for (const auto& row : cluster_rows) {
    j.begin_object();
    j.key("nodes").value(row.nodes);
    j.key("sessions").value(row.sessions);
    if (row.skipped) {
      j.key("skipped").value(true);
      j.key("reason").value(row.reason);
    } else {
      j.key("total_blocks").value(row.run.total_blocks);
      j.key("wall_seconds").value(row.run.secs);
      j.key("blocks_per_sec").value(static_cast<double>(row.run.total_blocks) / row.run.secs);
      j.key("redirects_followed").value(row.run.redirects);
      j.key("lost_frames").value(row.run.lost_frames);
      j.key("drained").value(row.run.drained);
    }
    j.end_object();
  }
  j.end_array();

  j.end_object();
  std::printf("wrote BENCH_net.json\n\n");
}

/// Codec microbenchmark: encode+decode round trip of one data frame.
void BM_FrameCodec(benchmark::State& state) {
  const std::size_t blocks = static_cast<std::size_t>(state.range(0));
  net::Frame f;
  f.op = net::Op::kEncBlocks;
  f.session_id = 7;
  f.payload = request_payload(blocks, 42);
  net::FrameDecoder dec;
  net::Frame out;
  for (auto _ : state) {
    const auto bytes = net::encode_frame(f);
    dec.feed(bytes);
    const auto st = dec.next(out);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks * 16));
}
BENCHMARK(BM_FrameCodec)->Arg(1)->Arg(16)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_and_dump();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
