// The unified execution-engine layer: one interface over every way this
// repo can run the paper's cipher.
//
// A CipherEngine owns one cipher execution resource — a software AES, a
// cycle-accurate behavioral IP, or a synthesized gate netlist — behind one
// contract: load a key, process blocks, and report where the simulated
// cycles went in `core::IpCounters` terms.  Everything above
// (the farm's workers, the CLI, the benches, the conformance suite) speaks
// this interface and never names a Simulator, BusDriver or Evaluator again.
//
// Cycle-cost semantics (see docs/engine.md for the full contract):
//
//   * SoftwareEngine    — aes::TTableRijndael, zero-cycle functional model: cycles()
//                         and last_latency() are always 0; the work counters
//                         (blocks, rounds) still advance.
//   * BehavioralEngine  — Simulator + RijndaelIp + GenericBusDriver; every
//                         Table 1 handshake is clocked, so counters() are
//                         the IP's own FSM-phase totals and last_latency()
//                         is the paper's 50 cycles.
//   * NetlistEngine     — GateIpBatchDriver over the ip_synth netlist through
//                         netlist::BatchEvaluator, same Table 1 protocol with the
//                         same cycle counts; behavioral and netlist engines
//                         agree on total cycles for any run of key loads,
//                         rekeys and unkeyed calls (the conformance suite
//                         asserts it).
//
// Engines are single-threaded objects: one engine per worker, never shared.
// NetlistEngine construction is dominated by synthesis; farms amortize it
// by synthesizing one shared immutable netlist (make_ip_netlist) that all
// workers evaluate privately.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include <vector>

#include "aes/cipher.hpp"
#include "aes/ttable.hpp"
#include "arch/variant.hpp"
#include "core/bfm.hpp"
#include "core/gate_driver.hpp"
#include "core/rijndael_ip.hpp"
#include "hdl/simulator.hpp"
#include "netlist/netlist.hpp"

namespace aesip::engine {

enum class EngineKind { kSoftware, kBehavioral, kNetlist };

/// Canonical CLI spelling: "sw", "behavioral", "netlist".
const char* kind_name(EngineKind k) noexcept;

/// Parse a CLI spelling (accepts the aliases "software", "soft", "ip",
/// "behav", "gate"); nullopt for anything else.
std::optional<EngineKind> kind_from_name(std::string_view name) noexcept;

class CipherEngine {
 public:
  virtual ~CipherEngine() = default;

  CipherEngine(const CipherEngine&) = delete;
  CipherEngine& operator=(const CipherEngine&) = delete;

  virtual EngineKind kind() const noexcept = 0;
  const char* name() const noexcept { return kind_name(kind()); }
  virtual core::IpMode mode() const noexcept = 0;

  // --- key management --------------------------------------------------------
  /// Install a 16/24/32-byte key (AES-128/192/256); returns the key-setup
  /// cycles spent (4*Nr on decrypt-capable cycle engines, else 0).  Cycle
  /// engines are built for one geometry and reject keys of another size;
  /// the software engine re-derives its geometry from the key length.
  virtual std::uint64_t load_key(std::span<const std::uint8_t> key) = 0;
  /// True when `key` is installed and ready — a rekey() would cost 0 cycles.
  virtual bool key_resident(std::span<const std::uint8_t> key) const = 0;
  /// Fast-path key load: free when the key is already resident (the
  /// affinity hit the farm scheduler exists to create). Returns setup
  /// cycles spent (0 on a hit).
  virtual std::uint64_t rekey(std::span<const std::uint8_t> key) {
    if (key_resident(key)) return 0;
    return load_key(key);
  }

  // --- block path ------------------------------------------------------------
  /// Process one 16-byte block to completion and return the result.
  std::array<std::uint8_t, 16> process_block(std::span<const std::uint8_t> block,
                                             bool encrypt = true) {
    if (block.size() != 16) throw std::invalid_argument("CipherEngine: block must be 16 bytes");
    return do_process(block, encrypt);
  }

  // --- batch path ------------------------------------------------------------
  /// Process in.size()/16 independent blocks in one call (ECB semantics:
  /// no chaining between them).  `in` and `out` must be the same whole
  /// number of 16-byte blocks.  The default implementation loops
  /// process_block; engines with a wider execution resource override it —
  /// NetlistEngine packs up to batch_lanes() blocks per evaluator pass,
  /// SoftwareEngine runs a T-table loop.  Identical results and identical
  /// cycles() growth as the scalar loop, whatever the override
  /// (test_engine_conformance asserts both).
  virtual void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                             bool encrypt = true);
  /// Blocks the engine can genuinely process per pass (1 unless batched).
  virtual std::size_t batch_lanes() const noexcept { return 1; }

  /// One key's share of a keyed batch: `blocks` consecutive blocks of the
  /// batch run under `key`.  The engine fills in what they cost.
  struct KeySpan {
    std::span<const std::uint8_t> key;  ///< 16/24/32 bytes, outlives the call
    std::size_t blocks = 0;
    std::uint64_t cycles = 0;        ///< out: simulated cycles charged, key install included
    std::uint64_t setup_cycles = 0;  ///< out: of which key setup
  };
  /// Keyed batch: process_batch where every block carries its own key
  /// (`spans` tile `in` in order), one direction per call.  A key install
  /// is charged one scalar key load (write beats plus declared setup
  /// cycles), reported on the first span that needed it; every block costs
  /// what process_batch charges it, so the spans' cycles add up to the
  /// cycles() delta.  The default runs each stretch of consecutive
  /// same-key spans as rekey() + one process_batch();
  /// NetlistEngine packs different keys into one pass (per-lane keys).
  virtual void process_keyed(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                             std::span<KeySpan> spans, bool encrypt);

  /// Name of the bit-parallel lane backend behind process_batch ("none"
  /// when blocks go one at a time; NetlistEngine reports its resolved
  /// netlist::BatchBackend — "u64", "neon", "avx2" or "avx512").
  virtual const char* batch_backend() const noexcept { return "none"; }

  /// Occupancy accounting for the batch path: how full the engine's lanes
  /// ran.  A "pass" is one execution-resource dispatch (one evaluator pass
  /// for the netlist engine; one block for loop engines), so
  /// blocks/passes/batch_lanes() is the achieved lane occupancy in [0,1].
  struct BatchStats {
    std::uint64_t calls = 0;   ///< process_batch invocations
    std::uint64_t blocks = 0;  ///< blocks processed through the batch path
    std::uint64_t passes = 0;  ///< execution-resource dispatches
    /// Evaluator sweeps whose control state differed between lanes and so
    /// ran the whole netlist (NetlistEngine only; 0 on clean traffic — see
    /// netlist::BatchEvaluator::lane_divergences()).
    std::uint64_t lane_divergences = 0;
    /// Evaluator sweeps of a control state its full cache could not take,
    /// run whole (NetlistEngine only; 0 while the cache holds every state
    /// — see netlist::BatchEvaluator::uncached_sweeps()).
    std::uint64_t uncached_sweeps = 0;
    double mean_lanes() const noexcept {
      return passes ? static_cast<double>(blocks) / static_cast<double>(passes) : 0.0;
    }
  };
  const BatchStats& batch_stats() const noexcept { return batch_stats_; }

  // --- fault injection (fleet chaos hooks; see docs/fleet.md) ----------------
  /// Number of persistent state sites (DFFs) an SEU could upset; 0 for
  /// engines with no gate-level state to flip.
  virtual std::size_t fault_sites() const noexcept { return 0; }
  /// Flip the state bit at `site` (< fault_sites()) in the live engine —
  /// the software model of a standby single-event upset.  Returns false
  /// when the engine kind has nothing to upset (software/behavioral).
  virtual bool inject_fault(std::size_t site) {
    (void)site;
    return false;
  }

  // --- metrics ---------------------------------------------------------------
  /// Simulated clock cycles consumed so far (0 for zero-cycle engines).
  virtual std::uint64_t cycles() const noexcept = 0;
  /// Load-edge → data_ok cycles of the last completed block (the paper's
  /// 50-cycle latency on cycle engines; 0 on zero-cycle engines).
  virtual std::uint64_t last_latency() const noexcept = 0;
  /// FSM-phase cycle attribution in the IP's own terms.  Cycle engines
  /// satisfy the paper invariants (5 cy/round, 50 cy/block, 40-cy key
  /// setup); the software engine reports work counts with zero cycles.
  virtual core::IpCounters counters() const = 0;
  /// The underlying simulator when there is one to profile (behavioral
  /// engines only); null otherwise.
  virtual hdl::Simulator* simulator() noexcept { return nullptr; }

 protected:
  CipherEngine() = default;
  virtual std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                                  bool encrypt) = 0;
  /// Throws unless in/out are the same whole number of blocks; returns it.
  static std::size_t check_batch_spans(std::span<const std::uint8_t> in,
                                       std::span<std::uint8_t> out);

  BatchStats batch_stats_;
};

/// Zero-cycle functional model: the T-table AES behind the engine
/// contract (aes::Rijndael stays the independent oracle the farm's spot
/// check and the tests compare against).  Geometry-agnostic: the key
/// length of each load_key selects AES-128/192/256 (cycle engines fix
/// their geometry at construction).
class SoftwareEngine final : public CipherEngine {
 public:
  explicit SoftwareEngine(core::IpMode mode = core::IpMode::kBoth) : mode_(mode) {}

  EngineKind kind() const noexcept override { return EngineKind::kSoftware; }
  core::IpMode mode() const noexcept override { return mode_; }

  std::uint64_t load_key(std::span<const std::uint8_t> key) override;
  bool key_resident(std::span<const std::uint8_t> key) const override;

  /// T-table loop over the batch — no transpose, no per-block virtual
  /// dispatch; process_block is a one-block batch.
  void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     bool encrypt = true) override;

  std::uint64_t cycles() const noexcept override { return 0; }
  std::uint64_t last_latency() const noexcept override { return 0; }
  core::IpCounters counters() const override { return counters_; }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override;

 private:
  core::IpMode mode_;
  std::optional<aes::TTableRijndael> ttable_;  ///< the cipher, built per key
  std::array<std::uint8_t, 32> resident_key_{};
  std::size_t resident_key_len_ = 0;
  core::IpCounters counters_;
};

/// The cycle-accurate RTL model behind the engine contract: a private
/// Simulator plus one behavioral core — the paper's RijndaelIp for
/// iterative specs, the arch::VariantIp twin for the rest of the variant
/// family — behind its GenericBusDriver.
class BehavioralEngine final : public CipherEngine {
 public:
  explicit BehavioralEngine(core::IpMode mode = core::IpMode::kBoth)
      : BehavioralEngine(arch::VariantSpec{}, mode) {}
  /// Any family member; the engine's declared schedule is `spec`'s.
  BehavioralEngine(const arch::VariantSpec& spec, core::IpMode mode);

  EngineKind kind() const noexcept override { return EngineKind::kBehavioral; }
  core::IpMode mode() const noexcept override { return mode_; }
  const arch::VariantSpec& variant() const noexcept { return spec_; }

  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    check_key_length(key);
    return core_->load_key(key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    return core_->key_resident(key);
  }
  std::uint64_t rekey(std::span<const std::uint8_t> key) override {
    check_key_length(key);
    return core_->rekey(key);
  }

  std::uint64_t cycles() const noexcept override { return sim_.cycle(); }
  std::uint64_t last_latency() const noexcept override { return core_->last_latency(); }
  core::IpCounters counters() const override { return core_->counters(); }
  hdl::Simulator* simulator() noexcept override { return &sim_; }

  /// Bus-master-side accounting (resets, rekey hits, stream stats) —
  /// observability beyond the engine contract.
  const core::BusCounters& bus_counters() const noexcept { return core_->bus_counters(); }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override {
    return core_->process_block(block, encrypt);
  }

 private:
  /// One behavioral core and its bus driver, whatever the core's type.
  struct Core {
    Core() = default;
    Core(const Core&) = delete;  // CoreOf's bus refers to its own ip
    Core& operator=(const Core&) = delete;
    virtual ~Core() = default;
    virtual std::uint64_t load_key(std::span<const std::uint8_t> key) = 0;
    virtual bool key_resident(std::span<const std::uint8_t> key) const = 0;
    virtual std::uint64_t rekey(std::span<const std::uint8_t> key) = 0;
    virtual std::array<std::uint8_t, 16> process_block(std::span<const std::uint8_t> block,
                                                       bool encrypt) = 0;
    virtual std::uint64_t last_latency() const noexcept = 0;
    virtual core::IpCounters counters() const = 0;
    virtual const core::BusCounters& bus_counters() const noexcept = 0;
  };
  template <class Ip>
  struct CoreOf;  // engine.cpp

  /// The core's geometry is fixed at construction; a key of any other
  /// length is a caller bug, caught before it reaches the bus.
  void check_key_length(std::span<const std::uint8_t> key) const {
    if (static_cast<int>(key.size()) * 8 != spec_.key_bits)
      throw std::invalid_argument("engine: " + spec_.name() + " takes a " +
                                  std::to_string(spec_.key_bits / 8) + "-byte key");
  }

  hdl::Simulator sim_;
  arch::VariantSpec spec_;
  core::IpMode mode_;
  std::unique_ptr<Core> core_;
};

/// Synthesize the IP netlist an engine (or a farm of them) will evaluate.
/// Immutable and thread-safe to share: each engine gets its own Evaluator
/// state over the common gate graph.  `key_bits` selects the Rijndael key
/// size the core is built for (128/192/256).
std::shared_ptr<const netlist::Netlist> make_ip_netlist(core::IpMode mode, int key_bits = 128);

/// Synthesize the gate netlist of any variant-family member, sharable the
/// same way (farms cache one per variant name).
std::shared_ptr<const netlist::Netlist> make_variant_netlist(const arch::VariantSpec& spec,
                                                             core::IpMode mode);

/// The synthesized gate netlist behind the engine contract, driven through
/// netlist::BatchEvaluator with the same Table 1 handshake the behavioral
/// bus driver performs — cycle counts match BehavioralEngine exactly.
/// Every call runs as process_keyed passes of up to batch_lanes() blocks
/// (the bit-parallel fast path, ~proportional speedup with occupancy; 64
/// lanes on the portable uint64 backend, up to 512 on AVX-512 —
/// runtime-dispatched, see netlist/batch_backend.hpp).  process_batch and
/// process_block are one key span under the engine key: the last key given
/// to load_key() or rekey(), or the key of the last block of a keyed call.
/// The scalar netlist::Evaluator remains the oracle for SEU/power
/// campaigns — this engine never uses it.
class NetlistEngine final : public CipherEngine {
 public:
  NetlistEngine(std::shared_ptr<const netlist::Netlist> nl, core::IpMode mode,
                const netlist::BatchConfig& cfg = {});
  explicit NetlistEngine(core::IpMode mode = core::IpMode::kBoth)
      : NetlistEngine(make_ip_netlist(mode), mode) {}
  /// Any variant-family member over an already-synthesized netlist (`nl`
  /// must be the gate graph of `spec` — farms pass their per-variant cache).
  /// `cfg` overrides the batch backend (testing knob).
  NetlistEngine(std::shared_ptr<const netlist::Netlist> nl, const arch::VariantSpec& spec,
                core::IpMode mode, const netlist::BatchConfig& cfg = {});
  /// Synthesizing convenience for one-off variant engines.
  NetlistEngine(const arch::VariantSpec& spec, core::IpMode mode)
      : NetlistEngine(make_variant_netlist(spec, mode), spec, mode) {}

  EngineKind kind() const noexcept override { return EngineKind::kNetlist; }
  core::IpMode mode() const noexcept override { return mode_; }
  const arch::VariantSpec& variant() const noexcept { return spec_; }

  /// Installs `key` in every lane and makes it the engine key.
  std::uint64_t load_key(std::span<const std::uint8_t> key) override;
  /// True when any lane holds `key`: a pass under it charges no key load.
  bool key_resident(std::span<const std::uint8_t> key) const override;
  /// Makes `key` the engine key; loads it only when no lane holds it.
  std::uint64_t rekey(std::span<const std::uint8_t> key) override;

  /// One key span under the engine key (throws before the first key).
  void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     bool encrypt = true) override;
  /// Cross-key lane packing: up to batch_lanes() blocks of any keys per
  /// pass.  Each block runs in a lane already holding its key where one
  /// is free; the missing keys go in with one per-lane install, charged
  /// one key load per distinct key that no lane held.
  void process_keyed(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     std::span<KeySpan> spans, bool encrypt) override;
  std::size_t batch_lanes() const noexcept override { return drv_.lanes(); }
  const char* batch_backend() const noexcept override;

  std::uint64_t cycles() const noexcept override { return drv_.cycles(); }
  std::uint64_t last_latency() const noexcept override { return last_latency_; }
  core::IpCounters counters() const override { return counters_; }

  /// Every DFF in the evaluated netlist is a fault site.
  std::size_t fault_sites() const noexcept override;
  /// Flip the DFF at `site` in ALL lanes and re-settle combinationally —
  /// the state stays corrupted until the next reset/key-load rewrites it.
  bool inject_fault(std::size_t site) override;

  /// The shared gate graph this engine evaluates (fleet fault-site
  /// classification reads the DFF list through this).
  const std::shared_ptr<const netlist::Netlist>& netlist() const noexcept { return nl_; }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override;

 private:
  /// One gate-level pass over lanes [0, n), `active` of which carry blocks,
  /// plus counter attribution; returns the per-block latency.
  std::uint64_t run_pass(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                         std::size_t n, std::size_t active, bool encrypt);
  /// Whether `lane` holds `key` (a lane that never held a key holds none).
  bool lane_holds(std::size_t lane, std::span<const std::uint8_t> key) const;

  std::shared_ptr<const netlist::Netlist> nl_;
  arch::VariantSpec spec_;
  core::IpMode mode_;
  core::GateIpBatchDriver drv_;
  std::uint64_t last_latency_ = 0;
  std::size_t key_len_;  ///< the geometry's key bytes
  /// The engine key (key_len_ bytes), which unkeyed calls run under.
  std::array<std::uint8_t, 32> key_{};
  bool has_key_ = false;
  /// Per-lane resident keys, key_len_ bytes per lane; lane_used_[L] is the
  /// pass tick lane L last served (0 = never held a key).
  std::vector<std::uint8_t> lane_keys_;
  std::vector<std::uint64_t> lane_used_;
  std::uint64_t tick_ = 0;
  // Reused keyed-pass staging: one Want per distinct key of the pass.
  struct Want {
    std::span<const std::uint8_t> key;
    std::size_t span = 0;    ///< first span under this key
    std::size_t blocks = 0;  ///< its blocks in the pass
    std::size_t next = 0;    ///< scatter/gather cursor into lanes
    std::vector<std::size_t> lanes;
  };
  struct Portion {
    std::size_t span, first, blocks, want;  ///< span's blocks [first, first+blocks)
  };
  std::vector<Want> wants_;
  std::vector<Portion> portions_;
  std::vector<std::size_t> victims_;
  std::vector<std::uint8_t> lane_taken_, pass_in_, pass_out_;
  core::IpCounters counters_;
};

/// Build an engine of the requested kind (netlist engines synthesize a
/// private netlist; prefer the shared-netlist NetlistEngine constructor
/// when creating many).
std::unique_ptr<CipherEngine> make_engine(EngineKind kind,
                                          core::IpMode mode = core::IpMode::kBoth);

/// Build an engine of the requested kind running the requested variant.
/// Software engines are variant-blind (every variant computes the same
/// function); cycle engines take `spec`'s schedule and datapath.
std::unique_ptr<CipherEngine> make_engine(EngineKind kind, const arch::VariantSpec& spec,
                                          core::IpMode mode = core::IpMode::kBoth);

/// BlockCipher128/BlockDecipher128-concept adapter: lets the aes:: modes of
/// operation (ECB/CBC/CTR) run their traffic through any engine.
class EngineBlockCipher {
 public:
  explicit EngineBlockCipher(CipherEngine& e) : e_(&e) {}

  void encrypt_block(std::span<const std::uint8_t> in, std::span<std::uint8_t> out) const {
    const auto r = e_->process_block(in, /*encrypt=*/true);
    for (std::size_t i = 0; i < 16; ++i) out[i] = r[i];
  }
  void decrypt_block(std::span<const std::uint8_t> in, std::span<std::uint8_t> out) const {
    const auto r = e_->process_block(in, /*encrypt=*/false);
    for (std::size_t i = 0; i < 16; ++i) out[i] = r[i];
  }

 private:
  CipherEngine* e_;
};

}  // namespace aesip::engine
