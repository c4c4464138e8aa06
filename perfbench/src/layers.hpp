// Per-layer probes, all from outside through public APIs: a recording
// CipherEngine handed to the farm through FarmConfig::engine_factory, the
// paper's simulated-cycle invariants checked exactly, and direct replays
// of single layers (codec, netlist evaluator, RTL simulator, T-table AES,
// engine re-key).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/rijndael_ip.hpp"
#include "engine/engine.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

namespace engine = aesip::engine;
namespace core = aesip::core;

/// The paper-core gate netlist for `key_bits`, synthesized once per run.
std::shared_ptr<const aesip::netlist::Netlist> shared_netlist(int key_bits);

/// A fresh engine of `kind` geared for `key_bits` (netlists shared).
std::unique_ptr<engine::CipherEngine> make_engine(engine::EngineKind kind, int key_bits);

/// a += b, field by field.
void add_counters(core::IpCounters& a, const core::IpCounters& b);

/// What one recording engine saw. Written only by its farm worker; read
/// after the farm is destroyed (its worker threads joined).
struct EngineRecord {
  std::vector<float> pass_us;  ///< wall time per execution-resource pass
  std::uint64_t blocks = 0;
  std::uint64_t passes = 0;
  std::uint64_t lane_slots = 0;  ///< sum over passes of the engine's lane width
  struct PerSize {
    core::IpCounters counters;
    std::uint64_t loads = 0;  ///< key loads that were not resident-key hits
  };
  std::map<int, PerSize> sizes;  ///< by key bits; filled when the engine dies
};

/// Owns the records and builds the farm's engine factory. Each factory
/// product is key-size-blind (a custom factory must be): it keeps one
/// inner engine per key size, built on first use, and times every pass.
class Recorders {
 public:
  explicit Recorders(engine::EngineKind kind) : kind_(kind) {}
  std::function<std::unique_ptr<engine::CipherEngine>()> factory();
  /// Gate for pass samples (counts and counters are always kept).
  std::atomic<bool> sampling{false};
  const std::deque<EngineRecord>& records() const { return records_; }

 private:
  engine::EngineKind kind_;
  std::mutex mu_;
  std::deque<EngineRecord> records_;  ///< deque: references survive emplace_back
};

/// A software engine that flips one bit of every block it returns: the
/// load generator's verification must count its frames as failed.
std::unique_ptr<engine::CipherEngine> make_wrong_engine();

/// The paper's cycle contract for one key size, checked exactly: 5 cycles
/// per round (4 ByteSub32 + 1 SR/MC/AK), 5*Nr per block, 4*Nr of decrypt
/// key setup per key load. Appends a line per violation to `why`.
bool check_cycle_contract(int key_bits, const core::IpCounters& c, std::uint64_t loads,
                          std::string& why);

struct Invariants {
  bool ok = true;
  std::string why;
  double cycles_per_block = 0;  ///< AES-128 (or the first size checked)
  double setup_cycles_per_key = 0;
};

/// Replay a few key loads and blocks through a fresh cycle engine per key
/// size (`kind`, or the behavioral RTL when `kind` is the zero-cycle
/// software engine) and check the contract plus last_latency() == 5*Nr.
Invariants replay_invariants(engine::EngineKind kind, const std::vector<int>& key_bits);

/// Direct single-layer replays. Each runs for about `budget_s` seconds.
double codec_ns_per_frame(std::size_t blocks, double budget_s);
struct NetlistPasses {
  double ns_per_block_full = 0;
  double pass_us_1lane = 0;
  std::size_t lanes = 0;
  const char* backend = "";
};
NetlistPasses netlist_passes(double budget_s);
double hdl_sim_cycles_per_host_s(double budget_s);
double aes_ns_per_block(double budget_s);
double rekey_us_p50(engine::EngineKind kind, const std::vector<int>& key_bits, double budget_s);

/// Median-style quantile over unsorted samples (copies; 0 when empty).
double quantile(std::vector<float> v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
