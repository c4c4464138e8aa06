// aesip — command-line front end for the library.
//
// Subcommands:
//   encrypt / decrypt   AES-128/192/256 file encryption (ECB/CBC/CTR +
//                       PKCS#7): the file is one farm::Request to a
//                       one-worker farm of the chosen engine kind — the
//                       software engine (sw, alias ttable), the
//                       cycle-accurate behavioral IP over its bus
//                       protocol, or the synthesized gate netlist.
//   flow                run synthesize -> map -> fit -> timing for a
//                       variant/device and print the implementation report.
//   export              write the synthesized IP as structural Verilog or
//                       BLIF for external tools.
//   seu                 run a fault-injection campaign (optionally on the
//                       TMR-hardened netlist).
//   power               activity-based power report for a variant/device.
//   farm                drive a synthetic many-session workload through the
//                       multi-core IP farm (src/farm/) and print its stats
//                       report; results are verified against the software
//                       reference on a sample of the traffic. --engine
//                       selects what each worker runs (sw|behavioral|netlist).
//   metrics             run an instrumented workload through a chosen
//                       engine and report the observability counters:
//                       per-FSM-phase cycles (the live 4+1 / 50-cycle
//                       invariants), bus-side cycle accounting, simulator
//                       profile, and optionally the farm's histograms — as
//                       a text table and/or JSON (schema:
//                       docs/benchmarks.md). Exits non-zero if a paper
//                       invariant does not hold.
//   selftest            the engine conformance suite (FIPS-197 Appendix
//                       B/C vectors, Monte Carlo chain, cycle invariants)
//                       through all three CipherEngine kinds, plus the
//                       behavioral/netlist cycle-parity check.
//   serve               expose the IP farm over TCP speaking aesip-wire-v1
//                       (src/net/, spec in docs/net.md). SIGINT/SIGTERM
//                       trigger a graceful drain: every accepted frame is
//                       answered before the process exits.
//   loadgen             drive an aesip serve endpoint: N concurrent client
//                       sessions of pipelined random traffic, each response
//                       verified bit-exactly against aes::Aes128 (plus a
//                       FIPS-197 Appendix B probe per session). Non-zero
//                       exit on any mismatch.
//
// Examples:
//   aesip encrypt --key 000102030405060708090a0b0c0d0e0f --mode cbc
//         --iv aabb...ff --engine ip --in msg.txt --out msg.enc
//   aesip flow --variant both --device EP1K100FC484-1
//   aesip export --variant encrypt --format blif --out aes.blif
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "core/bfm.hpp"
#include "engine/conformance.hpp"
#include "engine/engine.hpp"
#include "farm/farm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "obs/profiler.hpp"
#include "report/json.hpp"
#include "core/ip_synth.hpp"
#include "core/rijndael_ip.hpp"
#include "core/table2.hpp"
#include "fpga/device.hpp"
#include "fpga/fitter.hpp"
#include "hdl/simulator.hpp"
#include "netlist/writer.hpp"
#include "power/power.hpp"
#include "report/table.hpp"
#include "seu/campaign.hpp"
#include "seu/tmr.hpp"
#include "techmap/techmap.hpp"

using namespace aesip;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "aesip: %s\n", msg.c_str());
  std::exit(1);
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2) die("hex string has odd length");
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto byte = std::stoi(hex.substr(i, 2), nullptr, 16);
    out.push_back(static_cast<std::uint8_t>(byte));
  }
  return out;
}

using Args = std::map<std::string, std::string>;
using Options = std::vector<std::string_view>;

/// Parse argv[first..] for subcommand `cmd`, which reads exactly the
/// `known` options: any other one exits 1 before any work is done, so a
/// typo cannot silently change a run.
Args parse_args(int argc, char** argv, int first, const std::string& cmd, const Options& known) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) die("expected --option, got '" + key + "'");
    key = key.substr(2);
    // Both `--option value` and `--option=value` spellings are accepted;
    // bare flags (`--chaos`, trailing `--farm`) read as "yes".
    std::string value = "yes";
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    if (std::find(known.begin(), known.end(), key) == known.end())
      die("unknown option --" + key + " for " + cmd);
    args[key] = value;
  }
  return args;
}

std::string arg_or(const Args& a, const std::string& key, const std::string& fallback) {
  const auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The --engine option (`fallback` when absent) as an engine kind; "ttable"
/// names the software engine, whose batch path is the T-table AES.
engine::EngineKind engine_of(const Args& args, const std::string& fallback) {
  const std::string name = arg_or(args, "engine", fallback);
  if (name == "ttable") return engine::EngineKind::kSoftware;
  if (const auto kind = engine::kind_from_name(name)) return *kind;
  die("unknown engine '" + name + "' (ttable|sw|behavioral|netlist)");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) die("cannot read " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) die("cannot write " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

core::IpMode variant_of(const std::string& name) {
  if (name == "encrypt") return core::IpMode::kEncrypt;
  if (name == "decrypt") return core::IpMode::kDecrypt;
  if (name == "both") return core::IpMode::kBoth;
  die("unknown variant '" + name + "' (encrypt|decrypt|both)");
}

const char* variant_name(core::IpMode m) {
  return m == core::IpMode::kEncrypt ? "encrypt" : m == core::IpMode::kDecrypt ? "decrypt" : "both";
}

/// Parse --keybits. Returns 128/192/256, or 0 for "mix" (only when
/// `allow_mix`); `fallback` supplies the default spelling.
int keybits_of(const Args& args, const char* fallback, bool allow_mix = false) {
  const std::string kb = arg_or(args, "keybits", fallback);
  if (allow_mix && (kb == "mix" || kb == "mixed")) return 0;
  if (kb == "128" || kb == "192" || kb == "256") return std::stoi(kb);
  die(std::string("--keybits must be 128, 192 or 256") + (allow_mix ? " or mix" : ""));
}

/// A deterministic 16/24/32-byte key drawn from `rng`.
farm::KeyBytes random_keybytes(std::mt19937& rng, int bits) {
  std::array<std::uint8_t, 32> raw{};
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng());
  return *farm::KeyBytes::from(
      std::span(raw).first(static_cast<std::size_t>(bits / 8)));
}

// --- crypt -----------------------------------------------------------------------

int cmd_crypt(bool encrypting, const Args& args) {
  const auto key = from_hex(arg_or(args, "key", ""));
  const auto key_bytes = farm::KeyBytes::from(key);
  if (!key_bytes) die("--key must be 32, 48 or 64 hex digits (AES-128/192/256)");
  // --keybits is redundant with the key length but catches pasted-key bugs.
  if (args.count("keybits") &&
      keybits_of(args, "") != key_bytes->bits())
    die("--keybits disagrees with the --key length");
  const std::string mode = arg_or(args, "mode", "cbc");
  const std::string engine_name = arg_or(args, "engine", "ttable");
  const engine::EngineKind kind = engine_of(args, "ttable");
  const std::string in_path = arg_or(args, "in", "");
  const std::string out_path = arg_or(args, "out", "");
  if (in_path.empty() || out_path.empty()) die("--in and --out are required");
  std::vector<std::uint8_t> iv_vec = from_hex(arg_or(args, "iv", std::string(32, '0')));
  if (iv_vec.size() != 16) die("--iv must be 32 hex digits");

  const auto input = read_file(in_path);
  farm::Request req;
  req.key = *key_bytes;
  req.encrypt = encrypting;
  std::copy(iv_vec.begin(), iv_vec.end(), req.iv.begin());
  if (mode == "ecb") req.mode = farm::Mode::kEcb;
  else if (mode == "cbc") req.mode = farm::Mode::kCbc;
  else if (mode == "ctr") req.mode = farm::Mode::kCtr;
  else die("unknown mode '" + mode + "' (ecb|cbc|ctr)");
  const bool padded = req.mode != farm::Mode::kCtr;
  req.payload = padded && encrypting ? aes::pkcs7_pad(input) : input;

  // The file is one request to a one-worker farm running the engine kind
  // at the key's size: the modes run as the farm's legs, so the block-
  // parallel ones fill the netlist engine's lanes.
  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.engine = kind;
  arch::VariantSpec spec;  // the paper's iterative core
  spec.key_bits = key_bytes->bits();
  cfg.worker_variants = {spec};
  farm::Farm f(cfg);
  const farm::Result res = f.process(std::move(req));
  const auto output = padded && !encrypting ? aes::pkcs7_unpad(res.data) : res.data;

  std::string detail;
  if (res.cycles) detail += ", " + std::to_string(res.cycles) + " simulated cycles";
  const farm::FarmStats st = f.stats();
  if (const auto& w = st.per_worker.front(); w.passes) {
    char occ[64];
    std::snprintf(occ, sizeof occ, ", lane occupancy %.1f/%zu (%s backend)",
                  static_cast<double>(w.blocks) / static_cast<double>(w.passes), st.batch_lanes,
                  st.batch_backend.c_str());
    detail += occ;
  }
  write_file(out_path, output);
  std::printf("%s %zu bytes -> %zu bytes (%s, %s engine%s)\n",
              encrypting ? "encrypted" : "decrypted", input.size(), output.size(),
              mode.c_str(), engine_name.c_str(), detail.c_str());
  return 0;
}

// --- flow ------------------------------------------------------------------------

int cmd_flow(const Args& args) {
  const auto mode = variant_of(arg_or(args, "variant", "encrypt"));
  const std::string device_name = arg_or(args, "device", "EP1K100FC484-1");
  const fpga::Device* device = fpga::find_device(device_name);
  if (!device) die("unknown device '" + device_name + "'");
  const auto row = core::reproduce_table2_cell(mode, *device);
  std::printf("variant:        %s\ndevice:         %s\n", variant_name(mode),
              device->name.c_str());
  std::printf("logic cells:    %zu (%.1f%%)   [paper: %d / %d%%]\n", row.fit.logic_elements,
              row.fit.le_pct, row.paper.lcs, row.paper.lc_pct);
  std::printf("memory bits:    %zu (%.1f%%)   [paper: %d / %d%%]\n", row.fit.memory_bits,
              row.fit.memory_pct, row.paper.memory_bits, row.paper.memory_pct);
  std::printf("pins:           %d (%.1f%%)    [paper: %d]\n", row.fit.pins, row.fit.pin_pct,
              row.paper.pins);
  std::printf("clock period:   %.2f ns       [paper: %.0f ns]\n",
              row.fit.timing.clock_period_ns, row.paper.clock_ns);
  std::printf("latency:        %.0f ns (50 cycles)  [paper: %.0f ns]\n", row.latency_ns,
              row.paper.latency_ns);
  std::printf("throughput:     %.1f Mbps     [paper: %.0f Mbps]\n", row.throughput_mbps,
              row.paper.throughput_mbps);
  std::printf("fits:           %s\n", row.fit.fits ? "yes" : "NO");
  return 0;
}

// --- export -----------------------------------------------------------------------

int cmd_export(const Args& args) {
  const auto mode = variant_of(arg_or(args, "variant", "encrypt"));
  const std::string format = arg_or(args, "format", "verilog");
  const std::string out_path = arg_or(args, "out", "");
  const bool rom = arg_or(args, "sbox", "rom") == "rom";
  const bool mapped = arg_or(args, "mapped", "no") == "yes";
  if (out_path.empty()) die("--out is required");

  netlist::Netlist nl = core::synthesize_ip(mode, rom);
  if (mapped) nl = techmap::map_to_luts(nl).mapped;

  std::ofstream f(out_path);
  if (!f) die("cannot write " + out_path);
  const std::string name = std::string("aes_ip_") + variant_name(mode);
  if (format == "verilog") netlist::write_verilog(nl, f, name);
  else if (format == "blif") netlist::write_blif(nl, f, name);
  else die("unknown format '" + format + "' (verilog|blif)");
  const auto st = nl.stats();
  std::printf("wrote %s: %s %s, %zu gates, %zu LUTs, %zu FFs, %zu ROMs\n", out_path.c_str(),
              mapped ? "mapped" : "unmapped", format.c_str(), st.gates, st.luts, st.dffs,
              st.roms);
  return 0;
}

// --- seu --------------------------------------------------------------------------

int cmd_seu(const Args& args) {
  const int runs = std::stoi(arg_or(args, "runs", "100"));
  const std::uint32_t seed = static_cast<std::uint32_t>(std::stoul(arg_or(args, "seed", "1")));
  const bool tmr = arg_or(args, "tmr", "no") == "yes";
  auto mapped = techmap::map_to_luts(core::synthesize_ip(core::IpMode::kEncrypt, true)).mapped;
  if (tmr) mapped = seu::harden_tmr(mapped).hardened;
  const auto stats = seu::run_campaign(mapped, runs, seed);
  std::printf("%d injections into the %s encrypt IP:\n", runs, tmr ? "TMR-hardened" : "unprotected");
  std::printf("  masked:     %zu\n  corrupted:  %zu\n  latent:     %zu\n"
              "  persistent: %zu\n  hang:       %zu\n",
              stats.masked, stats.corrupted, stats.latent, stats.persistent, stats.hang);
  return 0;
}

// --- power ------------------------------------------------------------------------

int cmd_power(const Args& args) {
  const auto mode = variant_of(arg_or(args, "variant", "encrypt"));
  if (mode == core::IpMode::kDecrypt) die("power profiling drives an encrypt workload");
  const std::string device_name = arg_or(args, "device", "EP1K100FC484-1");
  const fpga::Device* device = fpga::find_device(device_name);
  if (!device) die("unknown device '" + device_name + "'");
  const auto row = core::reproduce_table2_cell(mode, *device);
  const auto mapped = techmap::map_to_luts(core::synthesize_ip(mode, device->supports_async_rom));
  const double mhz = 1000.0 / row.fit.timing.clock_period_ns;
  const auto p = power::profile_ip(mapped.mapped, power::params_for(*device), mhz);
  std::printf("variant %s on %s at %.1f MHz:\n", variant_name(mode), device->name.c_str(), mhz);
  std::printf("  logic    %6.2f mW\n  routing  %6.2f mW\n  clock    %6.2f mW\n"
              "  memory   %6.2f mW\n  I/O      %6.2f mW\n  static   %6.2f mW\n"
              "  total    %6.2f mW\n",
              p.logic_mw, p.routing_mw, p.clock_mw, p.memory_mw, p.io_mw, p.static_mw,
              p.total_mw);
  std::printf("  energy: %.2f nJ/block, %.1f pJ/bit\n", p.energy_per_block_nj,
              p.energy_per_bit_pj);
  return 0;
}

// --- farm -------------------------------------------------------------------------

int cmd_farm(const Args& args) {
  farm::FarmConfig cfg;
  cfg.workers = std::stoi(arg_or(args, "workers", "4"));
  cfg.max_sessions = std::stoul(arg_or(args, "sessions", "64"));
  cfg.queue_capacity = std::stoul(arg_or(args, "queue", "64"));
  const std::uint64_t target_blocks = std::stoull(arg_or(args, "blocks", "20000"));
  const std::uint32_t seed =
      static_cast<std::uint32_t>(std::stoul(arg_or(args, "seed", "1")));
  const std::string json_path = arg_or(args, "json", "");
  const std::string trace_path = arg_or(args, "trace", "");
  const int n_keys = std::stoi(arg_or(args, "keys", "32"));  // distinct user keys
  if (!trace_path.empty()) cfg.tracing = true;
  cfg.engine = engine_of(args, "behavioral");
  cfg.spot_check_fraction = std::stod(arg_or(args, "spot-check", "0"));
  if (cfg.spot_check_fraction < 0 || cfg.spot_check_fraction > 1)
    die("--spot-check must be in [0,1]");
  const int keybits = keybits_of(args, "128", /*allow_mix=*/true);

  farm::Farm f(cfg);
  std::mt19937 rng(seed);
  std::vector<farm::KeyBytes> keys;
  for (int k = 0; k < n_keys; ++k) {
    const int bits = keybits ? keybits : 128 + 64 * (k % 3);  // mix: round-robin
    keys.push_back(random_keybytes(rng, bits));
  }

  std::printf("farm: %d workers (%s engine), %zu queue slots each, %d session keys "
              "(%s-bit), target %llu blocks\n",
              cfg.workers, engine::kind_name(cfg.engine), cfg.queue_capacity, n_keys,
              keybits ? std::to_string(keybits).c_str() : "mixed 128/192/256",
              static_cast<unsigned long long>(target_blocks));

  // Outstanding futures are bounded so a huge --blocks run doesn't hold
  // every result in memory; sampled requests are checked bit-exactly.
  struct Pending {
    std::future<farm::Result> future;
    std::vector<std::uint8_t> expect;  // empty = unsampled
  };
  std::deque<Pending> pending;
  std::uint64_t submitted_blocks = 0, requests = 0, verified = 0, mismatches = 0;

  const auto drain_one = [&] {
    auto p = std::move(pending.front());
    pending.pop_front();
    const auto res = p.future.get();
    if (!p.expect.empty()) {
      ++verified;
      if (res.data != p.expect) ++mismatches;
    }
  };

  while (submitted_blocks < target_blocks) {
    farm::Request req;
    // Popularity skew: min of two uniform picks favours low session ids,
    // so hot sessions re-hit their key slots while the tail churns them.
    const auto pick = std::min(rng() % keys.size(), rng() % keys.size());
    req.session_id = pick;
    req.key = keys[pick];
    for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
    req.mode = static_cast<farm::Mode>(rng() % 3);
    req.encrypt = (rng() & 1) != 0;
    // Mostly short requests; every 16th is a long CTR stream that fans out.
    std::size_t blocks = 1 + rng() % 8;
    if (requests % 16 == 0) {
      req.mode = farm::Mode::kCtr;
      blocks = 128;
    }
    std::size_t bytes = blocks * 16;
    if (req.mode == farm::Mode::kCtr) bytes -= rng() % 16;  // ragged tails
    req.payload.resize(bytes);
    for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());

    Pending p;
    if (requests % 64 == 0) p.expect = farm::reference(req);  // sampled: checked bit-exactly
    submitted_blocks += (bytes + 15) / 16;
    ++requests;
    p.future = f.submit(std::move(req));
    pending.push_back(std::move(p));
    while (pending.size() > 512) drain_one();
  }
  while (!pending.empty()) drain_one();

  const auto st = f.stats();
  std::fputs(st.report(cfg.clock_ns).c_str(), stdout);
  std::printf("verified %llu sampled requests against aes::Rijndael: %s\n",
              static_cast<unsigned long long>(verified),
              mismatches ? "MISMATCH" : "all bit-exact");
  if (!json_path.empty()) {
    std::ofstream jf(json_path);
    if (!jf) die("cannot write " + json_path);
    report::JsonWriter j(jf);
    st.write_json(j, cfg.clock_ns);
    std::printf("stats written to %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream tf(trace_path);
    if (!tf) die("cannot write " + trace_path);
    f.write_chrome_trace(tf);
    std::printf("chrome trace written to %s (load at chrome://tracing)\n",
                trace_path.c_str());
  }
  return mismatches ? 1 : 0;
}

// --- metrics -----------------------------------------------------------------------

int cmd_metrics(const Args& args) {
  const std::uint64_t n_blocks = std::stoull(arg_or(args, "blocks", "32"));
  if (n_blocks == 0) die("--blocks must be >= 1");
  const std::string json_path = arg_or(args, "json", "");
  const std::string trace_path = arg_or(args, "trace", "");
  const bool with_farm = arg_or(args, "farm", "yes") == "yes";
  const bool json_to_stdout = json_path == "-";
  const bool text = !json_to_stdout;

  // --- instrumented single-core workload: n_blocks encrypted, the same
  // n_blocks decrypted back, through a kBoth device of the chosen engine
  // kind, with the simulator profiler attached (when the engine carries a
  // simulator) and the IP counters running.
  const auto kind = engine_of(args, "behavioral");
  const auto eng = engine::make_engine(kind);
  const bool timed = kind != engine::EngineKind::kSoftware;
  std::optional<obs::ScopedProfiler> prof;
  if (auto* sim = eng->simulator()) prof.emplace(*sim);

  std::mt19937 rng(0xae5);
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  eng->load_key(key);

  std::array<std::uint8_t, 16> block{};
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    const auto ct = eng->process_block(block, true);
    const auto pt = eng->process_block(ct, false);
    if (!std::equal(pt.begin(), pt.end(), block.begin()))
      die("metrics: engine round-trip mismatch");
  }

  const char* batch_backend = eng->batch_backend();
  const std::size_t batch_lanes = eng->batch_lanes();

  const core::IpCounters ipc = eng->counters();
  // Bus-master-side accounting exists only where there is a bus.
  const auto* behavioral = dynamic_cast<const engine::BehavioralEngine*>(eng.get());
  const core::BusCounters bc = behavioral ? behavioral->bus_counters() : core::BusCounters{};

  // --- the paper's cycle budget, checked live off the counters ---------------
  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "metrics: INVARIANT VIOLATED: %s\n", what);
    }
  };
  check(ipc.blocks_enc == n_blocks && ipc.blocks_dec == n_blocks,
        "block counters match the workload");
  check(ipc.rounds_done == ipc.blocks() * core::RijndaelIp::kRounds,
        "10 rounds per block");
  if (timed) {
    check(ipc.bytesub_cycles == 4 * ipc.rounds_done, "4 ByteSub32 cycles per round");
    check(ipc.mix_cycles == ipc.rounds_done, "1 SR/MC/AK cycle per round");
    check(ipc.round_cycles() ==
              ipc.rounds_done * core::RijndaelIp::kCyclesPerRound,
          "5 cycles per round");
    check(ipc.round_cycles() == ipc.blocks() * core::RijndaelIp::kCyclesPerBlock,
          "50 cycles per block");
    check(ipc.key_setup_cycles ==
              ipc.key_writes * core::RijndaelIp::kKeySetupCycles,
          "40-cycle decrypt key setup per key load");
    check(eng->last_latency() == core::RijndaelIp::kCyclesPerBlock,
          "last block latency == 50");
  } else {
    check(eng->cycles() == 0, "zero-cycle engine reports zero cycles");
  }
  const std::uint64_t cpr = ipc.rounds_done ? ipc.round_cycles() / ipc.rounds_done : 0;
  const std::uint64_t cpb = ipc.blocks() ? ipc.round_cycles() / ipc.blocks() : 0;

  if (text) {
    std::printf("workload: %llu blocks encrypted + %llu decrypted "
                "(kBoth device, %s engine)\n\n",
                static_cast<unsigned long long>(n_blocks),
                static_cast<unsigned long long>(n_blocks), eng->name());
    std::printf("ip phase cycles (Rijndael process):\n");
    std::printf("  idle         %10llu\n",
                static_cast<unsigned long long>(ipc.idle_cycles));
    std::printf("  key setup    %10llu   (%llu loads x 40)\n",
                static_cast<unsigned long long>(ipc.key_setup_cycles),
                static_cast<unsigned long long>(ipc.key_writes));
    std::printf("  bytesub32    %10llu   (4 per round)\n",
                static_cast<unsigned long long>(ipc.bytesub_cycles));
    std::printf("  sr/mc/ak     %10llu   (1 per round)\n",
                static_cast<unsigned long long>(ipc.mix_cycles));
    std::printf("  rounds done  %10llu   -> %llu cycles/round   [paper: 5]\n",
                static_cast<unsigned long long>(ipc.rounds_done),
                static_cast<unsigned long long>(cpr));
    std::printf("  blocks       %10llu   -> %llu cycles/block  [paper: 50]\n\n",
                static_cast<unsigned long long>(ipc.blocks()),
                static_cast<unsigned long long>(cpb));
    if (behavioral) {
      std::printf("bus driver:\n");
      std::printf("  resets %llu, key loads %llu (setup %llu cy), rekey hits %llu\n",
                  static_cast<unsigned long long>(bc.resets),
                  static_cast<unsigned long long>(bc.key_loads),
                  static_cast<unsigned long long>(bc.key_setup_cycles),
                  static_cast<unsigned long long>(bc.rekey_hits));
      std::printf("  blocks %llu: %llu load edges + %llu compute cycles\n\n",
                  static_cast<unsigned long long>(bc.blocks),
                  static_cast<unsigned long long>(bc.load_cycles),
                  static_cast<unsigned long long>(bc.compute_cycles));
    }
    if (prof) std::fputs(prof->report().c_str(), stdout);
  }

  // --- optional farm section: a small traced workload ------------------------
  std::optional<farm::FarmStats> fst;
  farm::FarmConfig fcfg;
  if (with_farm) {
    fcfg.workers = std::stoi(arg_or(args, "workers", "4"));
    fcfg.tracing = true;
    farm::Farm f(fcfg);
    std::vector<std::future<farm::Result>> futs;
    std::vector<farm::Key128> keys(8);
    for (auto& k : keys)
      for (auto& b : k) b = static_cast<std::uint8_t>(rng());
    // Sessions arrive in bursts (32 consecutive requests each) so the
    // affinity router has hits to find.
    for (int i = 0; i < 256; ++i) {
      farm::Request req;
      req.session_id = static_cast<std::uint64_t>(i) / 32 % keys.size();
      req.key = keys[req.session_id];
      for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
      req.mode = static_cast<farm::Mode>(i % 3);
      req.encrypt = (i & 1) != 0;
      req.payload.resize(16 * (1 + i % 4));
      for (auto& b : req.payload) b = static_cast<std::uint8_t>(rng());
      futs.push_back(f.submit(std::move(req)));
    }
    for (auto& fu : futs) fu.get();
    fst = f.stats();
    if (text) std::printf("\n%s", fst->report(fcfg.clock_ns).c_str());
    if (!trace_path.empty()) {
      std::ofstream tf(trace_path);
      if (!tf) die("cannot write " + trace_path);
      f.write_chrome_trace(tf);
      if (text) std::printf("  chrome trace written to %s\n", trace_path.c_str());
    }
  } else if (!trace_path.empty()) {
    die("--trace requires --farm yes");
  }

  // --- optional net section: a one-node cluster server probed in process,
  // so the server and cluster counters land in the JSON ------------------------
  std::optional<net::ServerStats> nst;
  if (arg_or(args, "net", "no") == "yes") {
    auto nt = net::make_tcp_transport();
    net::ServerConfig scfg;
    scfg.farm.workers = 2;
    scfg.farm.engine = engine::EngineKind::kSoftware;
    net::ClusterConfig cc;  // one-node cluster: counters live, nothing redirects
    cc.node_id = "metrics-n0";
    scfg.cluster = cc;
    net::Server srv(*nt, "127.0.0.1:0", scfg);
    srv.start();
    for (int s = 0; s < 3; ++s) {
      net::Client c(*nt, srv.address(), static_cast<std::uint64_t>(s) + 1);
      farm::Key128 key, iv{};
      for (auto& b : key) b = static_cast<std::uint8_t>(rng());
      c.set_key(key);
      for (int r = 0; r < 8; ++r)
        c.enc_blocks(/*cbc=*/false, iv, std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(r)));
      c.drain();
      c.bye();
    }
    srv.stop();
    nst = srv.stats();
    if (text) std::printf("\n%s", nst->report().c_str());
  }

  // --- JSON (schema: docs/benchmarks.md) -------------------------------------
  if (!json_path.empty()) {
    std::ofstream jfile;
    if (!json_to_stdout) {
      jfile.open(json_path);
      if (!jfile) die("cannot write " + json_path);
    }
    std::ostream& os = json_to_stdout ? std::cout : jfile;
    report::JsonWriter j(os);
    j.begin_object();
    j.key("schema").value("aesip-metrics-v2");
    j.key("engine").value(eng->name());
    j.key("batch_backend").value(batch_backend);
    j.key("batch_lanes").value(batch_lanes);
    j.key("lane_divergences").value(eng->batch_stats().lane_divergences);
    j.key("uncached_sweeps").value(eng->batch_stats().uncached_sweeps);
    j.key("blocks_per_direction").value(n_blocks);
    j.key("invariants_ok").value(ok);

    j.key("ip").begin_object();
    j.key("phase_cycles").begin_object();
    j.key("idle").value(ipc.idle_cycles);
    j.key("key_setup").value(ipc.key_setup_cycles);
    j.key("bytesub").value(ipc.bytesub_cycles);
    j.key("mix").value(ipc.mix_cycles);
    j.end_object();
    j.key("setup_resets").value(ipc.setup_resets);
    j.key("key_writes").value(ipc.key_writes);
    j.key("data_writes").value(ipc.data_writes);
    j.key("rounds_done").value(ipc.rounds_done);
    j.key("blocks_enc").value(ipc.blocks_enc);
    j.key("blocks_dec").value(ipc.blocks_dec);
    j.key("cycles_per_round").value(cpr);
    j.key("cycles_per_block").value(cpb);
    j.key("key_setup_cycles_per_load")
        .value(ipc.key_writes ? ipc.key_setup_cycles / ipc.key_writes : 0);
    j.end_object();

    if (behavioral) {
      j.key("bus").begin_object();
      j.key("resets").value(bc.resets);
      j.key("key_loads").value(bc.key_loads);
      j.key("key_setup_cycles").value(bc.key_setup_cycles);
      j.key("rekey_hits").value(bc.rekey_hits);
      j.key("blocks").value(bc.blocks);
      j.key("load_cycles").value(bc.load_cycles);
      j.key("compute_cycles").value(bc.compute_cycles);
      j.end_object();
    }

    if (prof) {
      j.key("simulator");
      prof->write_json(j);
    }
    if (fst) {
      j.key("farm");
      fst->write_json(j, fcfg.clock_ns);
    }
    if (nst) {
      j.key("net");
      nst->write_json(j);
    }
    j.end_object();
    if (text && !json_to_stdout)
      std::printf("\nmetrics written to %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}

// --- serve -------------------------------------------------------------------------

// SIGINT/SIGTERM land here; request_drain() is one atomic store, so it is
// async-signal-safe. The loop then finishes every in-flight frame and exits.
std::atomic<net::Server*> g_serve_instance{nullptr};

void serve_signal_handler(int) {
  if (auto* s = g_serve_instance.load(std::memory_order_acquire)) s->request_drain();
}

int cmd_serve(const Args& args) {
  net::ServerConfig cfg;
  cfg.farm.workers = std::stoi(arg_or(args, "workers", "4"));
  cfg.farm.queue_capacity = std::stoul(arg_or(args, "queue", "64"));
  cfg.farm.engine = engine_of(args, "behavioral");
  cfg.window = std::stoul(arg_or(args, "window", "32"));
  cfg.idle_timeout = std::chrono::milliseconds(std::stol(arg_or(args, "idle-ms", "30000")));
  cfg.farm.spot_check_fraction = std::stod(arg_or(args, "spot-check", "0"));
  if (cfg.farm.spot_check_fraction < 0 || cfg.farm.spot_check_fraction > 1)
    die("--spot-check must be in [0,1]");
  cfg.admin = arg_or(args, "admin", "yes") != "no";
  // The workers' native key geometry. Sessions with other key lengths are
  // still served (the farm builds matching-geometry sibling engines
  // lazily); --keybits just picks which size pays no sibling setup.
  const int keybits = keybits_of(args, "128");
  if (keybits != 128) {
    arch::VariantSpec vs;  // the paper's iterative core at this key size
    vs.key_bits = keybits;
    cfg.farm.worker_variants = {vs};
  }
  cfg.chaos_seed =
      static_cast<std::uint32_t>(std::stoul(arg_or(args, "chaos-seed", "0x5eed"), nullptr, 0));
  const std::string trace_path = arg_or(args, "trace", "");
  if (!trace_path.empty()) cfg.tracing = true;
  const std::string address = arg_or(args, "listen", "127.0.0.1:0");

  // --cluster joins a multi-node shard: this node gossips membership with
  // --seeds and serves only the sessions the consistent-hash ring assigns
  // it, bouncing the rest with kRedirect (docs/cluster.md).
  if (arg_or(args, "cluster", "no") != "no") {
    net::ClusterConfig cc;
    cc.node_id = arg_or(args, "node-id", address);
    cc.advertise = arg_or(args, "advertise", "");
    cc.seeds = split_csv(arg_or(args, "seeds", ""));
    cc.gossip_interval = std::chrono::milliseconds(std::stol(arg_or(args, "gossip-ms", "100")));
    cc.suspect_after = std::chrono::milliseconds(std::stol(arg_or(args, "suspect-ms", "1500")));
    cc.ring_vnodes = std::stoul(arg_or(args, "vnodes", "64"));
    cfg.cluster = cc;
  }

  auto transport = net::make_tcp_transport();
  net::Server server(*transport, address, cfg);
  g_serve_instance.store(&server, std::memory_order_release);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  std::printf("aesip serve: aesip-wire-v1 on %s via %s (%d workers, %s engine, AES-%d native, "
              "window %zu, admin %s, spot-check %.0f%%)\n",
              server.address().c_str(), transport->name(), cfg.farm.workers,
              engine::kind_name(cfg.farm.engine), keybits, cfg.window,
              cfg.admin ? "on" : "off", 100.0 * cfg.farm.spot_check_fraction);
  if (cfg.cluster)
    std::printf("aesip serve: cluster node '%s' (%zu seeds, gossip every %lld ms)\n",
                cfg.cluster->node_id.c_str(), cfg.cluster->seeds.size(),
                static_cast<long long>(cfg.cluster->gossip_interval.count()));
  std::printf("aesip serve: SIGINT/SIGTERM drain gracefully\n");
  std::fflush(stdout);
  server.run();
  g_serve_instance.store(nullptr, std::memory_order_release);

  std::printf("aesip serve: drained.\n%s%s", server.stats().report().c_str(),
              server.farm_stats().report(cfg.farm.clock_ns).c_str());
  if (!trace_path.empty()) {
    std::ofstream tf(trace_path);
    if (!tf) die("cannot write " + trace_path);
    server.write_chrome_trace(tf);
    std::printf("  chrome trace written to %s\n", trace_path.c_str());
  }
  return 0;
}

// --- loadgen -----------------------------------------------------------------------

int cmd_loadgen(const Args& args) {
  // --chaos: while the sessions run, a driver thread fires seeded fleet
  // admin operations (SEU injection, hot-swaps, quarantine/resume) at the
  // server. With no --connect, loadgen self-hosts an in-process server
  // built for the scenario: netlist engines (so injection lands in real
  // DFF state), spot-check fraction 1.0 (every job oracle-checked, so a
  // corrupted engine is caught and healed before its bytes escape), and
  // the admin plane on. Exit 0 means zero corrupted and zero lost frames,
  // and, when loadgen self-hosts, at least one mutation landed.
  const bool chaos = arg_or(args, "chaos", "no") != "no";
  std::string address = arg_or(args, "connect", "");
  const int n_sessions = std::stoi(arg_or(args, "sessions", chaos ? "2" : "4"));
  const std::uint64_t n_requests = std::stoull(arg_or(args, "requests", chaos ? "24" : "64"));
  const std::size_t max_blocks = std::stoul(arg_or(args, "blocks", chaos ? "4" : "8"));
  const std::uint32_t seed =
      static_cast<std::uint32_t>(std::stoul(arg_or(args, "seed", "1")));
  if (n_sessions < 1 || max_blocks < 1) die("--sessions and --blocks must be >= 1");
  // Default "mix": session s runs AES-128/192/256 round-robin so one run
  // exercises every geometry the server can hold (keys travel on the wire;
  // the farm picks the engine geometry from the key length per job).
  const int keybits = keybits_of(args, "mix", /*allow_mix=*/true);

  auto transport = net::make_tcp_transport();

  // --nodes N self-hosts an N-node cluster in-process (gossip-linked,
  // consistent-hash sharded); --nodes A,B,C targets servers already
  // running. Either way each session round-robins its first dial across
  // the nodes and follows kRedirect to the owner — the sharding itself is
  // part of what gets verified.
  std::vector<std::string> node_addrs;
  std::vector<std::unique_ptr<net::Server>> cluster_nodes;
  const std::string nodes_arg = arg_or(args, "nodes", "");
  if (!nodes_arg.empty()) {
    if (nodes_arg.find_first_not_of("0123456789") == std::string::npos) {
      const int n_nodes = std::stoi(nodes_arg);
      if (n_nodes < 1) die("--nodes must be >= 1");
      if (!address.empty()) die("--nodes N self-hosts; drop --connect or pass addresses");
      const auto kind = engine_of(args, chaos ? "netlist" : "sw");
      for (int n = 0; n < n_nodes; ++n) {
        net::ServerConfig scfg;
        scfg.farm.workers = std::stoi(arg_or(args, "workers", "2"));
        scfg.farm.engine = kind;
        scfg.farm.spot_check_fraction = chaos ? 1.0 : 0.0;
        scfg.admin = true;
        scfg.chaos_seed = seed + static_cast<std::uint32_t>(n);
        net::ClusterConfig cc;
        cc.node_id = "n" + std::to_string(n);
        cc.gossip_interval = std::chrono::milliseconds(25);
        cc.seeds = node_addrs;  // each node bootstraps off the ones already up
        scfg.cluster = cc;
        auto srv = std::make_unique<net::Server>(*transport, "127.0.0.1:0", scfg);
        srv->start();
        node_addrs.push_back(srv->address());
        cluster_nodes.push_back(std::move(srv));
      }
      // Traffic before membership converges would redirect to a partial
      // ring; wait until every node sees all N alive.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (const auto& srv : cluster_nodes)
        while (srv->director()->alive_count(std::chrono::steady_clock::now()) <
               static_cast<std::size_t>(n_nodes)) {
          if (std::chrono::steady_clock::now() > deadline)
            die("cluster membership did not converge");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      std::printf("loadgen: self-hosted %d-node cluster (%s transport):", n_nodes,
                  transport->name());
      for (const auto& a : node_addrs) std::printf(" %s", a.c_str());
      std::printf("\n");
    } else {
      node_addrs = split_csv(nodes_arg);
    }
  }
  if (address.empty() && !node_addrs.empty()) address = node_addrs.front();
  if (address.empty() && !chaos)
    die("--connect host:port or --nodes is required (an aesip serve address)");

  std::unique_ptr<net::Server> self_hosted;
  if (address.empty()) {
    net::ServerConfig scfg;
    scfg.farm.workers = std::stoi(arg_or(args, "workers", "2"));
    scfg.farm.engine = engine_of(args, "netlist");
    scfg.farm.spot_check_fraction = 1.0;
    scfg.admin = true;
    scfg.chaos_seed = seed;
    self_hosted = std::make_unique<net::Server>(*transport, "127.0.0.1:0", scfg);
    self_hosted->start();
    address = self_hosted->address();
    std::printf("loadgen: self-hosted server on %s (%d workers, %s engine, "
                "spot-check 100%%)\n",
                address.c_str(), scfg.farm.workers, engine::kind_name(scfg.farm.engine));
  }
  std::atomic<std::uint64_t> total_requests{0}, total_blocks{0}, mismatches{0};
  std::atomic<std::uint64_t> total_redirects{0};
  std::atomic<int> failures{0};

  // One thread per session: each connects (with the client's retry/backoff,
  // so racing `aesip serve &` works), probes FIPS-197 Appendix B, then keeps
  // the server's window full with random verified traffic.
  const auto session_main = [&](int sid) {
    try {
      const std::string& dial =
          node_addrs.empty() ? address
                             : node_addrs[static_cast<std::size_t>(sid) % node_addrs.size()];
      net::Client client(*transport, dial, static_cast<std::uint64_t>(sid) + 1);
      std::mt19937 rng(seed + static_cast<std::uint32_t>(sid) * 7919);

      farm::Key128 fips_key, zero_iv{};
      std::copy(engine::kFipsBKey.begin(), engine::kFipsBKey.end(), fips_key.begin());
      client.set_key(fips_key);
      const auto probe = client.enc_blocks(
          /*cbc=*/false, zero_iv,
          std::vector<std::uint8_t>(engine::kFipsBPlain.begin(), engine::kFipsBPlain.end()));
      if (!std::equal(probe.begin(), probe.end(), engine::kFipsBCipher.begin())) {
        mismatches.fetch_add(1);
        std::fprintf(stderr, "loadgen: session %d FIPS-197 Appendix B MISMATCH\n", sid);
      }

      const int bits = keybits ? keybits : 128 + 64 * (sid % 3);
      const farm::KeyBytes key = random_keybytes(rng, bits);
      client.rekey(key.view());
      const aes::Rijndael ref = aes::Rijndael::for_key(key.view());

      struct Outstanding {
        std::uint32_t seq;
        std::vector<std::uint8_t> expect;
      };
      std::deque<Outstanding> outstanding;
      const auto collect_one = [&] {
        auto o = std::move(outstanding.front());
        outstanding.pop_front();
        const auto got = client.wait(o.seq);
        if (got != o.expect) mismatches.fetch_add(1);
      };

      for (std::uint64_t r = 0; r < n_requests; ++r) {
        farm::Key128 iv;
        for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
        const std::span<const std::uint8_t, 16> ivs(iv.data(), 16);
        const int mode = static_cast<int>(rng() % 3);
        std::size_t bytes = (1 + rng() % max_blocks) * aes::kBlock;
        if (mode == 2) bytes -= rng() % aes::kBlock;  // CTR takes ragged tails
        std::vector<std::uint8_t> data(bytes);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng());
        total_blocks.fetch_add((bytes + aes::kBlock - 1) / aes::kBlock);

        Outstanding o;
        const bool enc = (rng() & 1) != 0;
        if (mode == 2) {
          o.expect = aes::ctr_crypt(ref, ivs, data);
          o.seq = client.submit_ctr(iv, std::move(data));
        } else if (enc) {
          o.expect = mode ? aes::cbc_encrypt(ref, ivs, data) : aes::ecb_encrypt(ref, data);
          o.seq = client.submit_enc(mode == 1, iv, std::move(data));
        } else {
          o.expect = mode ? aes::cbc_decrypt(ref, ivs, data) : aes::ecb_decrypt(ref, data);
          o.seq = client.submit_dec(mode == 1, iv, std::move(data));
        }
        outstanding.push_back(std::move(o));
        while (outstanding.size() >= client.window()) collect_one();
      }
      while (!outstanding.empty()) collect_one();
      total_requests.fetch_add(n_requests + 1);  // + the FIPS probe

      client.drain();  // the zero-loss barrier: everything above is answered
      client.bye();
      total_redirects.fetch_add(client.redirects());
    } catch (const std::exception& e) {
      failures.fetch_add(1);
      std::fprintf(stderr, "loadgen: session %d failed: %s\n", sid, e.what());
    }
  };

  // The chaos driver: a dedicated admin client firing a seeded, repeating
  // schedule of fleet mutations at the live server until traffic finishes.
  // Every operation blocks for its server ack, so a thrown WireError (e.g.
  // admin disabled) is a scenario failure, not a silent skip.
  std::atomic<bool> traffic_done{false};
  std::uint64_t chaos_events = 0;
  std::atomic<int> chaos_failures{0};
  std::thread chaos_thread;
  if (chaos) {
    chaos_thread = std::thread([&] {
      try {
        // Pinned: the chaos driver targets this node deliberately and must
        // never be bounced to the session's ring owner.
        net::ClientConfig acfg;
        acfg.pinned = true;
        net::Client admin(*transport, address, 0xf1ee7, acfg);
        int step = 0;
        while (!traffic_done.load(std::memory_order_acquire)) {
          switch (step++ % 7) {
            case 0:
            case 1:
            case 3:
              admin.fleet_inject();  // server-chosen worker, auto corrupting site
              break;
            case 2:
              admin.fleet_swap(-1, 1);  // all workers -> behavioral
              break;
            case 4:
              admin.fleet_swap(-1, 2);  // all workers -> netlist
              break;
            case 5:
              admin.fleet_quarantine(0, /*resume=*/false);
              break;
            case 6:
              admin.fleet_quarantine(0, /*resume=*/true);
              break;
          }
          ++chaos_events;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        admin.bye();
      } catch (const std::exception& e) {
        chaos_failures.fetch_add(1);
        std::fprintf(stderr, "loadgen: chaos driver failed: %s\n", e.what());
      }
    });
  }

  // Sessions run on a bounded pool (--concurrency) so --sessions 10000
  // costs 10000 connections, not 10000 simultaneous threads.
  const int concurrency =
      std::min(n_sessions, std::stoi(arg_or(args, "concurrency", "256")));
  if (concurrency < 1) die("--concurrency must be >= 1");
  std::atomic<int> next_session{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < concurrency; ++w)
    threads.emplace_back([&] {
      for (int s = next_session.fetch_add(1); s < n_sessions;
           s = next_session.fetch_add(1))
        session_main(s);
    });
  for (auto& t : threads) t.join();
  traffic_done.store(true, std::memory_order_release);
  if (chaos_thread.joinable()) chaos_thread.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto blocks = total_blocks.load();
  std::printf("loadgen: %d sessions (%s-bit keys), %llu requests, %llu blocks in "
              "%.3f s (%.0f blocks/s), seed %u\n",
              n_sessions, keybits ? std::to_string(keybits).c_str() : "mixed 128/192/256",
              static_cast<unsigned long long>(total_requests.load()),
              static_cast<unsigned long long>(blocks), secs,
              secs > 0 ? static_cast<double>(blocks) / secs : 0.0, seed);
  if (chaos)
    std::printf("loadgen: chaos: %llu admin operations (inject/swap/quarantine), "
                "%d driver failures; reproduce with --chaos --seed %u\n",
                static_cast<unsigned long long>(chaos_events), chaos_failures.load(), seed);
  if (!node_addrs.empty())
    std::printf("loadgen: cluster: %llu redirects followed across %zu nodes\n",
                static_cast<unsigned long long>(total_redirects.load()), node_addrs.size());
  // Fleet mutations that landed on self-hosted farms: a chaos run that
  // landed none tested no fleet path, so it must not pass.
  std::uint64_t landed = 0;
  const auto count_landed = [&](const farm::FarmStats& fs) {
    landed += fs.swaps + fs.heals + fs.quarantines;
  };
  if (!cluster_nodes.empty()) {
    for (auto& n : cluster_nodes) n->stop();
    farm::FarmStats merged;
    std::uint64_t redirects_sent = 0, gossip_rounds = 0;
    for (std::size_t i = 0; i < cluster_nodes.size(); ++i) {
      const auto st = cluster_nodes[i]->stats();
      redirects_sent += st.redirects_sent;
      gossip_rounds += st.gossip_rounds;
      if (i == 0) merged = cluster_nodes[i]->farm_stats();
      else merged.merge_from(cluster_nodes[i]->farm_stats());
    }
    std::printf("loadgen: cluster roll-up: %zu nodes, %llu requests, %llu blocks served, "
                "%llu redirects sent, %llu gossip rounds\n",
                cluster_nodes.size(), static_cast<unsigned long long>(merged.requests),
                static_cast<unsigned long long>(merged.blocks),
                static_cast<unsigned long long>(redirects_sent),
                static_cast<unsigned long long>(gossip_rounds));
    count_landed(merged);
  }
  if (self_hosted) {
    self_hosted->stop();
    const farm::FarmStats fs = self_hosted->farm_stats();
    std::fputs(fs.report().c_str(), stdout);
    count_landed(fs);
  }
  const bool vacuous_chaos = chaos && (self_hosted || !cluster_nodes.empty()) && landed == 0;
  if (vacuous_chaos)
    std::fprintf(stderr, "loadgen: chaos: no swap, heal or quarantine landed before traffic "
                         "ended; raise --requests\n");
  // Corrupted frames = verification mismatches; lost frames = sessions that
  // failed to collect every response (collect_one would have thrown).
  const bool ok =
      mismatches.load() == 0 && failures.load() == 0 && chaos_failures.load() == 0;
  std::printf("loadgen: verification vs aes::Rijndael: %s (%llu corrupted frames, "
              "%d lost/failed sessions)\n",
              ok ? "all bit-exact" : "FAILED",
              static_cast<unsigned long long>(mismatches.load()), failures.load());
  return ok && !vacuous_chaos ? 0 : 1;
}

// --- fleet -------------------------------------------------------------------------

void fleet_usage() {
  std::puts(
      "usage: aesip fleet <subcommand> --connect HOST:PORT [options]\n"
      "  status [--nodes A,B,C]                  fleet health snapshot (JSON);\n"
      "                                          --nodes polls every cluster node\n"
      "                                          into an aesip-cluster-fleet-v1\n"
      "                                          envelope (rows tagged by node id)\n"
      "  swap   [--worker N|all] --engine KIND [--variant NAME]\n"
      "                                          hot-swap live engine(s);\n"
      "                                          KIND: sw|behavioral|netlist\n"
      "                                          NAME: a round-engine variant —\n"
      "                                          iter|unroll|pipe2|pipe5|pipe10\n"
      "                                          x -xtime|-lut (docs/variants.md);\n"
      "                                          omitted = the paper's core\n"
      "  quarantine --worker N                   pull a worker from routing\n"
      "  resume     --worker N                   put it back\n"
      "  inject [--worker N|random] [--site N|auto]\n"
      "                                          flip a DFF in a live netlist engine\n"
      "Targets an `aesip serve` with the admin plane on (docs/fleet.md).");
}

int cmd_fleet(int argc, char** argv) {
  // Each fleet subcommand and the options it reads.
  static const std::map<std::string, Options> kSubcommands = {
      {"status", {"connect", "nodes"}},
      {"swap", {"connect", "worker", "engine", "variant"}},
      {"quarantine", {"connect", "worker"}},
      {"resume", {"connect", "worker"}},
      {"inject", {"connect", "worker", "site"}},
  };
  const auto it = argc < 3 ? kSubcommands.end() : kSubcommands.find(argv[2]);
  if (it == kSubcommands.end()) {
    fleet_usage();
    return 1;
  }
  const std::string& sub = it->first;
  const Args args = parse_args(argc, argv, 3, "fleet " + sub, it->second);
  auto transport = net::make_tcp_transport();

  // Fleet clients are pinned (kFlagPinned): they target the node they
  // dialed, never the session's ring owner.
  net::ClientConfig fcfg;
  fcfg.pinned = true;

  // `fleet status --nodes A,B,C` polls every node of a cluster and wraps
  // the per-node snapshots (each tagged "node": id) in one envelope.
  const std::string nodes = arg_or(args, "nodes", "");
  if (sub == "status" && !nodes.empty()) {
    std::string out = "{\"schema\": \"aesip-cluster-fleet-v1\", \"nodes\": [";
    bool first = true;
    for (const auto& addr : split_csv(nodes)) {
      net::Client c(*transport, addr, 0xf1ee7, fcfg);
      out += first ? "" : ", ";
      first = false;
      out += c.fleet_status_json();
      c.bye();
    }
    out += "]}";
    std::puts(out.c_str());
    return 0;
  }

  const std::string address = arg_or(args, "connect", "");
  if (address.empty()) die("--connect host:port is required (an aesip serve address)");

  net::Client client(*transport, address, 0xf1ee7, fcfg);

  if (sub == "status") {
    std::puts(client.fleet_status_json().c_str());
  } else if (sub == "swap") {
    const std::string worker = arg_or(args, "worker", "all");
    if (!args.count("engine")) die("swap needs --engine sw|behavioral|netlist");
    const engine::EngineKind kind = engine_of(args, "");
    const std::string variant = arg_or(args, "variant", "");
    if (!variant.empty() && !arch::VariantSpec::parse(variant))
      die("unknown variant '" + variant + "' (see docs/variants.md)");
    const int w = worker == "all" ? -1 : std::stoi(worker);
    std::puts(client.fleet_swap(w, static_cast<std::uint8_t>(kind), variant).c_str());
  } else if (sub == "quarantine" || sub == "resume") {
    const std::string worker = arg_or(args, "worker", "");
    if (worker.empty()) die(sub + " needs --worker N");
    std::puts(client.fleet_quarantine(std::stoi(worker), sub == "resume").c_str());
  } else {  // inject
    const std::string worker = arg_or(args, "worker", "random");
    const std::string site = arg_or(args, "site", "auto");
    const int w = worker == "random" ? -1 : std::stoi(worker);
    const std::uint32_t s =
        site == "auto" ? 0xffffffffu : static_cast<std::uint32_t>(std::stoul(site));
    std::puts(client.fleet_inject(w, s).c_str());
  }
  client.bye();
  return 0;
}

// --- selftest ----------------------------------------------------------------------

int cmd_selftest() {
  // The engine conformance suite (src/engine/conformance.cpp) through all
  // three CipherEngine kinds: FIPS-197 Appendix B and C.1 vectors, a
  // Monte Carlo encryption chain against the software reference, and the
  // paper's cycle invariants. The netlist engine evaluates the synthesized
  // gate network per cycle, so its chain is shorter.
  int failures = 0;
  engine::ConformanceResult netlist_result;
  constexpr int kNetlistIters = 64;
  for (const auto [kind, iters] : {std::pair{engine::EngineKind::kSoftware, 1000},
                                   std::pair{engine::EngineKind::kBehavioral, 1000},
                                   std::pair{engine::EngineKind::kNetlist, kNetlistIters}}) {
    const auto e = engine::make_engine(kind);
    const auto r = engine::run_conformance(*e, iters);
    std::printf("%-10s : %d checks, %d failed (%d-iteration Monte Carlo chain)\n",
                engine::kind_name(kind), r.checks, r.failures, iters);
    for (const auto& m : r.messages) std::printf("  FAILED: %s\n", m.c_str());
    failures += r.failures;
    if (kind == engine::EngineKind::kNetlist) netlist_result = r;
  }

  // Cycle parity: the behavioral model and the synthesized netlist must
  // agree on the total cycle count for the same operation sequence.
  engine::BehavioralEngine beh;
  const auto beh_result = engine::run_conformance(beh, kNetlistIters);
  const bool parity = beh_result.ok() && netlist_result.ok() &&
                      beh_result.total_cycles == netlist_result.total_cycles;
  std::printf("behavioral/netlist cycle parity: %s (%llu vs %llu cycles)\n",
              parity ? "ok" : "FAILED",
              static_cast<unsigned long long>(beh_result.total_cycles),
              static_cast<unsigned long long>(netlist_result.total_cycles));
  if (!parity) ++failures;

  std::printf("selftest: %s\n", failures ? "FAILED" : "all ok");
  return failures ? 1 : 0;
}

void usage() {
  std::puts(
      "usage: aesip <command> [options]\n"
      "  encrypt|decrypt --key HEX (32/48/64 digits) [--keybits 128|192|256]\n"
      "                  [--mode ecb|cbc|ctr] [--iv HEX32]\n"
      "                  [--engine ttable|sw|behavioral|netlist]\n"
      "                  --in FILE --out FILE   (one request to a one-worker farm;\n"
      "                  ttable = sw, whose batch path is the T-table AES)\n"
      "  flow     [--variant encrypt|decrypt|both] [--device NAME]\n"
      "  export   [--variant V] [--format verilog|blif] [--sbox rom|logic]\n"
      "           [--mapped yes|no] --out FILE\n"
      "  seu      [--runs N] [--seed S] [--tmr yes|no]\n"
      "  power    [--variant encrypt|both] [--device NAME]\n"
      "  farm     [--workers N] [--engine sw|behavioral|netlist] [--sessions N]\n"
      "           [--blocks N] [--queue N] [--keys N] [--keybits 128|192|256|mix]\n"
      "           [--seed S] [--spot-check F]\n"
      "           [--json FILE] [--trace FILE]\n"
      "  metrics  [--blocks N] [--engine sw|behavioral|netlist] [--farm yes|no]\n"
      "           [--workers N] [--net yes|no]\n"
      "           [--json FILE|-] [--trace FILE]  (--net probes an in-process\n"
      "           one-node cluster server for the server/cluster counters)\n"
      "  serve    [--listen HOST:PORT] [--workers N] [--engine sw|behavioral|netlist]\n"
      "           [--cluster --node-id ID --seeds A,B --advertise ADDR]\n"
      "           [--gossip-ms MS] [--suspect-ms MS] [--vnodes N]\n"
      "           (join a sharded multi-node cluster; docs/cluster.md —\n"
      "           one event loop per node, so scale out with more nodes)\n"
      "           [--window N] [--queue N] [--idle-ms MS] [--trace FILE]\n"
      "           [--spot-check F] [--admin yes|no] [--chaos-seed S]\n"
      "           [--keybits 128|192|256]  (native worker geometry; other key\n"
      "           sizes are served via lazily built sibling engines)\n"
      "           (aesip-wire-v1 server over the IP farm; docs/net.md)\n"
      "  loadgen  [--connect HOST:PORT] [--sessions N] [--requests N] [--blocks N]\n"
      "           [--nodes N|A,B,C] (N self-hosts an N-node sharded cluster;\n"
      "           a list round-robins sessions over running nodes — either\n"
      "           way clients follow kRedirect to each session's owner)\n"
      "           [--concurrency N] (session thread pool cap, default 256 —\n"
      "           10k sessions != 10k threads)\n"
      "           [--keybits 128|192|256|mix] (default mix: sessions rotate key\n"
      "           sizes round-robin, each verified against its matching oracle)\n"
      "           [--seed S] [--chaos]   (verified client traffic against aesip\n"
      "           serve; --chaos fires seeded fleet mutations mid-traffic and\n"
      "           self-hosts a spot-checked server when --connect is omitted)\n"
      "           [--workers N] [--engine sw|behavioral|netlist] (self-hosted\n"
      "           servers' farms)\n"
      "  fleet    status|swap|quarantine|resume|inject --connect HOST:PORT\n"
      "           (live fleet admin: hot-swap engines, quarantine workers,\n"
      "           inject SEUs; `aesip fleet --help` for options; docs/fleet.md)\n"
      "           status --nodes A,B,C polls a whole cluster into one envelope\n"
      "  selftest    (engine conformance: FIPS-197 vectors + cycle parity)\n"
      "  help | --help | -h\n"
      "Each subcommand refuses an option it does not read.");
}

/// `aesip <cmd> --help` prints usage and exits 0 for every subcommand —
/// parse_args would otherwise reject the valueless flag.
bool wants_help(int argc, char** argv) {
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "fleet" && wants_help(argc, argv)) {
    fleet_usage();
    return 0;
  }
  if (cmd == "help" || cmd == "--help" || cmd == "-h" || wants_help(argc, argv)) {
    usage();
    return 0;
  }
  // Every subcommand and the options it reads.
  struct Subcommand {
    const char* name;
    Options options;
    int (*run)(const Args&);
  };
  const Options crypt = {"key", "keybits", "mode", "iv", "engine", "in", "out"};
  const Subcommand commands[] = {
      {"encrypt", crypt, [](const Args& a) { return cmd_crypt(true, a); }},
      {"decrypt", crypt, [](const Args& a) { return cmd_crypt(false, a); }},
      {"flow", {"variant", "device"}, cmd_flow},
      {"export", {"variant", "format", "sbox", "mapped", "out"}, cmd_export},
      {"seu", {"runs", "seed", "tmr"}, cmd_seu},
      {"power", {"variant", "device"}, cmd_power},
      {"farm",
       {"workers", "engine", "sessions", "blocks", "queue", "keys", "keybits", "seed",
        "spot-check", "json", "trace"},
       cmd_farm},
      {"metrics",
       {"blocks", "engine", "farm", "workers", "net", "json", "trace"},
       cmd_metrics},
      {"serve",
       {"listen", "workers", "engine", "cluster", "node-id", "seeds", "advertise",
        "gossip-ms", "suspect-ms", "vnodes", "window", "queue", "idle-ms", "trace",
        "spot-check", "admin", "chaos-seed", "keybits"},
       cmd_serve},
      {"loadgen",
       {"connect", "sessions", "requests", "blocks", "nodes", "concurrency",
        "keybits", "seed", "chaos", "workers", "engine"},
       cmd_loadgen},
      {"selftest", {}, [](const Args&) { return cmd_selftest(); }},
  };
  try {
    if (cmd == "fleet") return cmd_fleet(argc, argv);
    for (const auto& c : commands)
      if (cmd == c.name) return c.run(parse_args(argc, argv, 2, cmd, c.options));
  } catch (const std::exception& e) {
    die(e.what());
  }
  usage();
  return 1;
}
