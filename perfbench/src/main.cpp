// perfbench: the served-path benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--rev REV] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics (untraced, after warm-up);
// --trace 1 runs the per-layer probes and writes Chrome traces to
// --out-dir. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md describes the workloads and the metric map.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "loadgen.hpp"
#include "netlist/batch_backend.hpp"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNTIMEABLE_BUILD 1
#endif

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string rev = "unknown";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--rev REV] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--rev") a.rev = v;
    else if (k == "--out-dir") a.out_dir = v;
    else usage(("unknown option " + k).c_str());
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

/// Confine the calling thread, and so every thread it starts later, to
/// the highest-numbered allowed CPU.
void pin_to_one_cpu() {
  const auto cpus = pb::allowed_cpus();
  if (cpus.empty()) throw std::runtime_error("perfbench: no CPU in the affinity mask");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus.back(), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("perfbench: sched_setaffinity failed");
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string s;
  for (const int c : cpus) {
    if (!s.empty()) s += ',';
    s += std::to_string(c);
  }
  return s;
}

std::vector<int> key_sizes(const pb::Workload& w) {
  return w.mixed ? std::vector<int>{128, 192, 256} : std::vector<int>{128};
}

/// Metric name -> (value, unit), printed in insertion-independent order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// The deliberately wrong engine behind a real server: every frame the
/// load generator sends must come back counted as failed.
bool wrong_engine_is_caught(std::uint64_t seed) {
  const pb::Workload w{"selftest-wrong-engine", pb::engine::EngineKind::kSoftware, 1, 1, 4, 1,
                       false, false};
  const auto plan = pb::make_plan(w, seed);
  auto cfg = pb::server_config(w);
  cfg.farm.engine_factory = pb::make_wrong_engine;
  pb::Tally t;
  {
    pb::Stack stack(w, plan, cfg, t);
    pb::drive_frames(w, stack, t, 16);
  }
  const bool caught = t.attempted == 16 && t.failed == 16 && t.frames_ok == 0;
  std::printf("selftest wrong-engine: attempted %llu failed %llu -> %s\n",
              static_cast<unsigned long long>(t.attempted.load()),
              static_cast<unsigned long long>(t.failed.load()), caught ? "caught" : "MISSED");
  return caught;
}

/// RTT quantile on unstolen time: the whole measured window's quantile,
/// shrunk by the share of the window's CPU time the hypervisor took.
double rtt_unstolen_us(const pb::Measured& m, double q) {
  return pb::rtt_quantile(m.rtt, q) * (1 - m.stolen());
}

/// Verified blocks per unstolen second over the whole measured window.
double unstolen_bps(const pb::Measured& m) {
  return static_cast<double>(m.blocks) / m.unstolen_secs();
}

/// Cold starts per set-up sample: each sample is the fastest of this many
/// consecutive starts, which drops starts delayed by host scheduling.
constexpr std::size_t kStartsPerSample = 5;

/// End-to-end metrics: one untraced, warmed-up measurement on a fresh
/// stack, then repeated cold starts for set-up.
bool run_e2e(const pb::Workload& w, const std::vector<pb::SessionPlan>& plan,
             const Args& a, pb::Tally& tally, Metrics& m) {
  // Serve first, so the peak RSS is one server's, not the heap left over
  // from the cold starts below (which varied by 0.8 MiB between runs).
  auto stack = std::make_unique<pb::Stack>(w, plan, pb::server_config(w), tally);
  const pb::Served s = pb::drive(w, *stack, tally, 1.0, a.seconds, nullptr);
  stack.reset();
  m["peak_rss_mb"] = {pb::peak_rss_mib(), "MiB"};

  // Cold starts for about three seconds (15 to 200 of them), in groups of
  // kStartsPerSample; setup_s is the median of the groups' fastest starts.
  // Set-up is raw wall time, not unstolen time: the process is mostly
  // waiting then, so the steal model's CPU-bound assumption does not hold.
  std::vector<double> starts, samples;
  const auto t0 = pb::Clock::now();
  while (starts.size() < 15 ||
         (starts.size() < 200 &&
          std::chrono::duration<double>(pb::Clock::now() - t0).count() < 3.0)) {
    double best = 0;
    for (std::size_t i = 0; i < kStartsPerSample; ++i) {
      stack.reset();  // tear the previous one down before timing the next
      stack = std::make_unique<pb::Stack>(w, plan, pb::server_config(w), tally);
      starts.push_back(stack->setup_s());
      best = i ? std::min(best, starts.back()) : starts.back();
    }
    samples.push_back(best);
  }
  stack.reset();
  m["setup_s"] = {pb::median(samples), "s"};

  // Wall-clock figures are taken on unstolen time (README, "Unstolen
  // time"); the raw wall rate is printed beside them.
  const pb::Measured& ms = s.measured;
  m["blocks_per_s"] = {unstolen_bps(ms), "blocks/s"};
  m["cpu_us_per_block"] = {ms.cpu_us / static_cast<double>(ms.blocks), "us"};
  // The mean, not a quantile: on the saturating workloads which sessions
  // share a farm worker changes from run to run, and the RTT quantiles
  // with it (README, "Mean RTT"); the quantiles are printed below.
  const double rtt_n = std::accumulate(ms.rtt.begin(), ms.rtt.end(), 0.0);
  m["rtt_mean_us"] = {ms.rtt_sum_us / rtt_n * (1 - ms.stolen()), "us"};
  std::vector<float> starts_f(starts.begin(), starts.end());
  std::printf("e2e: %.0f rtt samples in %.3f s; rtt p50 %.6g us, p90 %.6g us, p99 %.6g us; "
              "wall blocks/s %.6g; stolen share %.4f; cold starts: %zu, median %.6g s, "
              "p10 %.6g s, p90 %.6g s\n",
              rtt_n, ms.secs, rtt_unstolen_us(ms, 0.50),
              rtt_unstolen_us(ms, 0.90), rtt_unstolen_us(ms, 0.99),
              static_cast<double>(ms.blocks) / ms.secs, ms.stolen(), starts.size(),
              pb::quantile(starts_f, 0.5), pb::quantile(starts_f, 0.1),
              pb::quantile(starts_f, 0.9));
  return !s.broken;
}

aesip::obs::HistogramSnapshot minus(aesip::obs::HistogramSnapshot a,
                                    const aesip::obs::HistogramSnapshot& b) {
  a.count -= b.count;
  a.sum -= b.sum;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] -= b.buckets[i];
  return a;
}

/// Quantile of a log2-bucket histogram, interpolated linearly inside the
/// bucket that holds it (bucket b >= 1 holds [2^(b-1), 2^b)), so it moves
/// smoothly rather than in steps of 2x. The snapshot's max is not used:
/// after minus() it is still the histogram's whole-life max.
double hist_quantile(const aesip::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const double rank = q * static_cast<double>(h.count);
  double below = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const auto n = static_cast<double>(h.buckets[b]);
    if (n > 0 && below + n >= rank) {
      if (b == 0) return 0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo + lo * (rank - below) / n;
    }
    below += n;
  }
  return std::ldexp(1.0, static_cast<int>(h.buckets.size()) - 1);
}

/// Spans kept per track: a traced sw-rtt run completes ~30 k frames/s at
/// three spans each, so its tracks hold the first second or so.
constexpr int kSpansPerTrack = 1 << 15;

/// Per-layer metrics: an untraced reference run, a traced served run
/// (server + farm tracing, recording engines, benchmark spans), then
/// direct replays of single layers.
bool run_traced(const pb::Workload& w, const std::vector<pb::SessionPlan>& plan,
                const Args& a, pb::Tally& tally, Metrics& m, std::string& why) {
  bool ok = true;
  const double S = a.seconds;

  double untraced_bps = 0;
  {
    pb::Stack stack(w, plan, pb::server_config(w), tally);
    const auto s = pb::drive(w, stack, tally, 0.5, 0.25 * S, nullptr);
    ok &= !s.broken;
    untraced_bps = unstolen_bps(s.measured);
  }

  pb::Recorders rec(w.engine);
  auto cfg = pb::server_config(w);
  cfg.tracing = true;
  cfg.farm.tracing = true;
  cfg.farm.engine_factory = rec.factory();
  pb::SpanLog spans(kSpansPerTrack);
  const auto epoch = pb::Clock::now();
  pb::Served t;
  aesip::net::ServerStats s0, s1;
  aesip::farm::FarmStats f0, f1;
  std::uint64_t blocks0 = 0, blocks1 = 0;
  double wall_s = 0;
  std::filesystem::create_directories(a.out_dir);
  const std::string base = a.out_dir + "/" + w.name + "-seed" + std::to_string(a.seed);
  {
    pb::Stack stack(w, plan, cfg, tally);
    s0 = stack.server().stats();
    f0 = stack.server().farm_stats();
    blocks0 = tally.blocks_ok.load();
    rec.sampling = true;
    const auto t0 = pb::Clock::now();
    t = pb::drive(w, stack, tally, 0.5, 0.35 * S, &spans);
    wall_s = std::chrono::duration<double>(pb::Clock::now() - t0).count();
    rec.sampling = false;
    s1 = stack.server().stats();
    f1 = stack.server().farm_stats();
    blocks1 = tally.blocks_ok.load();
    ok &= !t.broken;
    std::ofstream server_trace(base + "-server.json");
    stack.server().write_chrome_trace(server_trace);
  }  // the server and its farm are gone: every recording engine has reported
  const double traced_bps = unstolen_bps(t.measured);

  // Direct layer replays, each inside one span (session 0) on its own track.
  pb::Track& probes = spans.track();
  const auto probe = [&probes](const char* name, auto&& fn) {
    const auto t0 = pb::Clock::now();
    auto r = fn();
    probes.add({name, t0, pb::Clock::now(), 0, 0, ""});
    return r;
  };
  const double direct_bps =
      probe("farm.direct", [&] { return pb::drive_farm_direct(w, plan, 0.15 * S, tally); });

  // Served engine layer, from the recording engines.
  std::vector<float> pass_us;
  std::uint64_t blocks = 0, passes = 0, lane_slots = 0;
  std::map<int, pb::EngineRecord::PerSize> sizes;
  for (const auto& r : rec.records()) {
    pass_us.insert(pass_us.end(), r.pass_us.begin(), r.pass_us.end());
    blocks += r.blocks;
    passes += r.passes;
    lane_slots += r.lane_slots;
    for (const auto& [bits, ps] : r.sizes) {
      auto& acc = sizes[bits];
      acc.loads += ps.loads;
      pb::add_counters(acc.counters, ps.counters);
    }
  }
  const auto inv =
      probe("engine.invariants", [&] { return pb::replay_invariants(w.engine, key_sizes(w)); });
  double cpb = inv.cycles_per_block, spk = inv.setup_cycles_per_key;
  if (w.engine != pb::engine::EngineKind::kSoftware && !sizes.empty()) {
    for (const auto& [bits, ps] : sizes) {
      ok &= pb::check_cycle_contract(bits, ps.counters, ps.loads, why);
      std::printf("served AES-%d: %llu blocks, %llu key loads, %.6g cycles/block, "
                  "%.6g setup cycles/load\n",
                  bits, static_cast<unsigned long long>(ps.counters.blocks()),
                  static_cast<unsigned long long>(ps.loads), ps.counters.cycles_per_block(),
                  ps.loads ? static_cast<double>(ps.counters.key_setup_cycles) /
                                 static_cast<double>(ps.loads)
                           : 0.0);
    }
    const auto& first = sizes.begin()->second;
    cpb = first.counters.cycles_per_block();
    spk = first.loads ? static_cast<double>(first.counters.key_setup_cycles) /
                            static_cast<double>(first.loads)
                      : 0.0;
  }

  const auto wait = minus(f1.queue_wait_us, f0.queue_wait_us);
  const auto depth = minus(f1.queue_depth, f0.queue_depth);
  const auto server_lat = minus(s1.request_latency_us, s0.request_latency_us);
  std::uint64_t busy_ns = 0;
  for (std::size_t i = 0; i < f1.per_worker.size(); ++i)
    busy_ns += f1.per_worker[i].busy_ns - f0.per_worker[i].busy_ns;
  const double hits = static_cast<double>(f1.key_hits - f0.key_hits);
  const double loads = static_cast<double>(f1.key_loads - f0.key_loads);
  const double data_frames = static_cast<double>(s1.data_frames - s0.data_frames);

  const auto np = probe("netlist.passes", [] { return pb::netlist_passes(0.6); });
  const auto D = [&m](const char* name, double v, const char* unit) { m[name] = {v, unit}; };
  D("net.server_us_p50", hist_quantile(server_lat, 0.5), "us");
  D("net.server_us_mean", server_lat.mean(), "us");
  D("net.client_submit_us_p50", pb::quantile(t.submit_us, 0.5), "us");
  D("net.codec_ns_per_frame",
    probe("net.codec", [&] { return pb::codec_ns_per_frame(w.blocks, 0.1); }), "ns");
  D("net.bytes_per_block",
    static_cast<double>((s1.bytes_in - s0.bytes_in) + (s1.bytes_out - s0.bytes_out)) /
        static_cast<double>(blocks1 - blocks0),
    "B/block");
  D("net.deferred_retries_per_kframe",
    1000.0 * static_cast<double>(s1.deferred_retries - s0.deferred_retries) / data_frames,
    "1/kframe");
  D("net.ctx_switches_per_frame",
    static_cast<double>(t.measured.ctx_switches) / static_cast<double>(t.measured.frames),
    "1/frame");
  D("net.wire_tax", untraced_bps / direct_bps, "ratio");
  D("farm.queue_wait_us_p50", hist_quantile(wait, 0.5), "us");
  D("farm.queue_wait_us_p99", hist_quantile(wait, 0.99), "us");
  D("farm.queue_wait_us_mean", wait.mean(), "us");
  D("farm.queue_depth_p50", hist_quantile(depth, 0.5), "jobs");
  D("farm.queue_depth_mean", depth.mean(), "jobs");
  D("farm.worker_busy_frac",
    static_cast<double>(busy_ns) * 1e-9 / (wall_s * static_cast<double>(w.workers)), "ratio");
  D("farm.key_hit_ratio", hits + loads > 0 ? hits / (hits + loads) : 0.0, "ratio");
  D("farm.direct_blocks_per_s", direct_bps, "blocks/s");
  D("engine.pass_us_p50", pb::quantile(pass_us, 0.5), "us");
  D("engine.blocks_per_pass",
    passes ? static_cast<double>(blocks) / static_cast<double>(passes) : 0.0, "blocks");
  D("engine.lane_occupancy",
    lane_slots ? static_cast<double>(blocks) / static_cast<double>(lane_slots) : 0.0, "ratio");
  D("engine.rekey_us_p50",
    probe("engine.rekey", [&] { return pb::rekey_us_p50(w.engine, key_sizes(w), 0.3); }), "us");
  D("engine.sim_cycles_per_block", cpb, "cycles");
  D("engine.setup_cycles_per_key", spk, "cycles");
  D("netlist.ns_per_block_full", np.ns_per_block_full, "ns");
  D("netlist.pass_us_1lane", np.pass_us_1lane, "us");
  D("hdl.sim_cycles_per_host_s",
    probe("hdl.simulate", [] { return pb::hdl_sim_cycles_per_host_s(0.3); }), "cycles/s");
  D("aes.ns_per_block", probe("aes.ttable", [] { return pb::aes_ns_per_block(0.1); }), "ns");
  D("obs.trace_overhead_frac", (untraced_bps - traced_bps) / untraced_bps, "ratio");

  std::printf("per-layer (traced %.2f s; untraced %.1f vs traced %.1f blocks/s; netlist "
              "backend %s, %zu lanes; spans kept/dropped at the %d-span cap per track:",
              wall_s, untraced_bps, traced_bps, np.backend, np.lanes, kSpansPerTrack);
  for (const auto& [kept, dropped] : spans.counts())
    std::printf(" %llu/%llu", static_cast<unsigned long long>(kept),
                static_cast<unsigned long long>(dropped));
  std::printf(" -> %s-spans.json):\n", base.c_str());
  for (const auto& [name, vu] : m)
    std::printf("  %-32s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  std::ofstream spans_trace(base + "-spans.json");
  spans.write_chrome_trace(spans_trace, epoch);
  ok &= inv.ok;
  why += inv.why;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const pb::Workload* w = pb::find_workload(a.workload);
  if (!w) usage(("unknown workload '" + a.workload + "'").c_str());
#ifdef PERFBENCH_UNTIMEABLE_BUILD
  std::fprintf(stderr, "perfbench: refusing to time a debug or sanitizer build\n");
  return 3;
#endif
  try {
    if (w->pinned) pin_to_one_cpu();
    const auto backend = aesip::netlist::resolve_backend({});
    std::printf("fingerprint {\"rev\": \"%s\", \"build\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %u, \"cpu_set\": \"%s\", \"pinned\": %s, \"batch_backend\": "
                "\"%s\", \"batch_lanes\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"transport\": \"tcp 127.0.0.1 (host "
                "loopback)\"}\n",
                a.rev.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency(), cpu_list(pb::allowed_cpus()).c_str(),
                w->pinned ? "true" : "false", aesip::netlist::backend_name(backend),
                aesip::netlist::backend_lanes(backend), w->name,
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);

    const bool selftest_ok = wrong_engine_is_caught(a.seed);
    const auto plan = pb::make_plan(*w, a.seed);
    pb::Tally tally;
    Metrics m;
    std::string why;
    bool ok = a.trace ? run_traced(*w, plan, a, tally, m, why) : run_e2e(*w, plan, a, tally, m);
    if (!a.trace) {
      const auto inv = pb::replay_invariants(w->engine, key_sizes(*w));
      ok &= inv.ok;
      why += inv.why;
      std::printf("invariants: %.6g cycles/block, %.6g setup cycles/key -> %s\n",
                  inv.cycles_per_block, inv.setup_cycles_per_key, inv.ok ? "exact" : "VIOLATED");
    }
    if (!why.empty()) std::fprintf(stderr, "perfbench: %s", why.c_str());
    const bool correct = ok && selftest_ok && tally.failed == 0;
    print_result(correct, tally.attempted, tally.failed, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
