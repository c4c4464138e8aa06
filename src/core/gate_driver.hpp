// Gate-level bus driver: runs the Table 1 protocol against a synthesized
// IP netlist (pre- or post-mapping) through the netlist evaluator.
//
// The gate-level twin of core::BusDriver.  Used by the conformance tests,
// the SEU fault-injection campaigns and the power-estimation runs — all of
// which need to poke a *netlist*, not the RTL model.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace aesip::core {

class GateIpDriver {
 public:
  /// Binds to a synthesized IP netlist (must expose the Table 1 ports).
  /// The netlist must outlive the driver.
  explicit GateIpDriver(const netlist::Netlist& nl);

  // --- raw port access -------------------------------------------------------
  netlist::NetId input(const std::string& name) const { return by_name_.at(name); }
  bool has_input(const std::string& name) const { return by_name_.count(name) != 0; }
  void set(const std::string& name, bool v) { ev_.set(input(name), v); }
  void set_din(std::span<const std::uint8_t> block);
  std::array<std::uint8_t, 16> read_dout() const;
  bool data_ok() const { return ev_.get(out_by_name_.at("data_ok")); }

  /// One clock edge: settles the inputs set since the last edge (free if
  /// none were), then clocks — one netlist sweep per edge.
  void clock();
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Direct evaluator access (fault injection, activity probes).
  netlist::Evaluator& evaluator() noexcept { return ev_; }
  const netlist::Evaluator& evaluator() const noexcept { return ev_; }

  // --- protocol helpers --------------------------------------------------------
  /// Pulse `setup` for one cycle.
  void reset();
  /// Write a key (16/24/32 bytes, multi-beat when wider than din); runs
  /// the 4*Nr extra key-setup cycles when `needs_setup`.
  void load_key(std::span<const std::uint8_t> key, bool needs_setup);
  /// Write a key and run an explicit number of key-setup clocks (the
  /// variant family declares its own schedule — 10 expansion cycles for
  /// the stored-key cores, 40 for the paper's inverse-schedule pass).
  void load_key(std::span<const std::uint8_t> key, int setup_cycles);

  struct BlockResult {
    std::array<std::uint8_t, 16> data;
    int cycles;  ///< load edge -> data_ok
  };
  /// Process one block; nullopt if data_ok never rises (watchdog), which a
  /// fault-injection campaign classifies as a hang.
  std::optional<BlockResult> process(std::span<const std::uint8_t> block, bool encrypt,
                                     int watchdog_cycles = 200);

  struct StreamResult {
    int cycles;  ///< first load edge -> last data_ok
  };
  /// Stream blocks back to back through one device, keeping the Data_In
  /// register fed: the throughput measurement for cores with multiple
  /// blocks in flight.  Uses the `in_ready` admission output when the
  /// netlist has one (the variant family); otherwise feeds a new block the
  /// cycle after each admission slot frees (writes may lead completions by
  /// at most one — the paper core's single pending register).  `out` gets
  /// 16 bytes per input block; nullopt on watchdog.
  std::optional<StreamResult> stream(std::span<const std::uint8_t> in,
                                     std::span<std::uint8_t> out, std::size_t blocks,
                                     bool encrypt, int watchdog_cycles = 200);

 private:
  netlist::Evaluator ev_;
  std::map<std::string, netlist::NetId> by_name_;
  std::map<std::string, netlist::NetId> out_by_name_;
  netlist::Bus din_;
  netlist::Bus dout_;
  std::uint64_t cycles_ = 0;
};

/// Bit-parallel twin of GateIpDriver: the same Table 1 protocol against the
/// same netlist, but through netlist::BatchEvaluator — lanes() independent
/// blocks per pass, one per lane (64 on the portable uint64 backend, up to
/// 512 on AVX-512; see netlist/batch_backend.hpp for the runtime
/// dispatch).  Control inputs (setup/wr_*/encdec) are broadcast to every
/// lane, so the FSM state is identical across lanes and data_ok can be
/// sampled from lane 0.  The driver names those four pins to the
/// evaluator as its broadcast pins: they and the flip-flops they alone
/// steer are the control state each edge's live-cone sweep is pruned by
/// (netlist/batch_eval.hpp), so an edge of the paper core runs ~14 % of
/// the tape and clocks ~15 % of the flip-flops.  The din/dout buses carry
/// per-lane block data (the lane packing transpose lives in set_din_lanes
/// / read_dout_lanes); data_ok and dout are flip-flop outputs, current
/// after every pruned edge.
///
/// Keys are per lane too: the wr_key beats ride din, so load_key_lanes()
/// writes a different key into each lane with one multi-beat write and one
/// broadcast setup run (load_key() is the every-lane-the-same case).
///
/// Cycle accounting: each simulated clock during a process_batch() pass
/// advances cycles() by the number of ACTIVE lanes, so a full sequence of
/// 1-lane batches reports exactly the cycle totals the scalar GateIpDriver
/// (and the behavioral model) would — cycles() stays "simulated device
/// cycles of useful work", independent of how wide the evaluation ran.
/// Reset clocks count once; a key install's clocks are weighted by the
/// number of scalar key loads it stands for (one for load_key()).
class GateIpBatchDriver {
 public:
  /// Binds to a synthesized IP netlist (must expose the Table 1 ports).
  /// The netlist must outlive the driver.  `cfg` forces a batch backend;
  /// the default auto-detects the widest one.
  explicit GateIpBatchDriver(const netlist::Netlist& nl, const netlist::BatchConfig& cfg = {});

  /// Blocks per pass — the resolved backend's lane count.
  std::size_t lanes() const noexcept { return ev_.lanes(); }

  bool has_input(const std::string& name) const { return by_name_.count(name) != 0; }
  /// Drive a control input to the same value in every lane.
  void set_broadcast(const std::string& name, bool v) { ev_.broadcast(by_name_.at(name), v); }
  /// Pack `n` 16-byte blocks (in[16*L..16*L+15] = lane L) onto din; lanes
  /// >= n replicate lane 0.
  void set_din_lanes(std::span<const std::uint8_t> in, std::size_t n);
  /// Unpack `n` lanes of dout into 16-byte blocks: writes out[0, 16*n).
  void read_dout_lanes(std::span<std::uint8_t> out, std::size_t n) const;
  bool data_ok() const { return ev_.get(data_ok_, 0); }

  /// One clock edge in every lane: settles the inputs set since the last
  /// edge (free if none were), then clocks — one live-cone sweep per edge,
  /// two on an edge that follows an input change.  `weight` is the number
  /// of device cycles it represents (= active lanes).
  void clock(std::uint64_t weight = 1);
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Direct evaluator access (lane probes, tape stats, fault injection).
  netlist::BatchEvaluator& evaluator() noexcept { return ev_; }
  const netlist::BatchEvaluator& evaluator() const noexcept { return ev_; }

  /// Pulse `setup` for one cycle (device-global: weight 1 per clock).
  void reset();
  /// Write a key to every lane (multi-beat when wider than din); runs the
  /// 4*Nr extra key-setup cycles when `needs_setup`.  Costs one scalar key
  /// load.
  void load_key(std::span<const std::uint8_t> key, bool needs_setup);
  /// Write a key and run an explicit number of key-setup clocks (the
  /// variant family's declared schedule).
  void load_key(std::span<const std::uint8_t> key, int setup_cycles);
  /// Write a different key into each lane: lane L < n takes
  /// keys[key_len*L, key_len*(L+1)), lanes >= n take lane 0's.  One
  /// multi-beat wr_key write plus `setup_cycles` broadcast clocks install
  /// them all (a lane rewritten with its own key keeps it).  Every clock is
  /// weighted by `charged`, the scalar key loads the install stands for.
  void load_key_lanes(std::span<const std::uint8_t> keys, std::size_t key_len, std::size_t n,
                      int setup_cycles, std::uint64_t charged);

  struct BatchResult {
    int cycles;  ///< per-lane latency, load edge -> data_ok (same in every lane)
  };
  /// Process `n` (1..lanes()) blocks in one pass, one per lane: `in` holds
  /// 16*n input bytes, `out` receives 16*n result bytes.  Inactive lanes
  /// ride along with replicated lane-0 data.  nullopt if data_ok never
  /// rises (watchdog) — a gate-level hang, as in GateIpDriver::process.
  std::optional<BatchResult> process_batch(std::span<const std::uint8_t> in,
                                           std::span<std::uint8_t> out, std::size_t n,
                                           bool encrypt, int watchdog_cycles = 200);
  /// process_batch over lanes [0, n) of which only `active` carry useful
  /// blocks (the rest hold filler): every clock is weighted by `active`.
  std::optional<BatchResult> process_lanes(std::span<const std::uint8_t> in,
                                           std::span<std::uint8_t> out, std::size_t n,
                                           std::size_t active, bool encrypt,
                                           int watchdog_cycles = 200);

 private:
  netlist::BatchEvaluator ev_;
  std::map<std::string, netlist::NetId> by_name_;
  netlist::Bus din_;
  netlist::Bus dout_;
  // The control pins and data_ok, resolved once: a pass drives and polls
  // them on every clock edge.
  netlist::NetId setup_;
  netlist::NetId wr_data_;
  netlist::NetId wr_key_;
  netlist::NetId encdec_;  ///< kNoNet on a one-direction core
  netlist::NetId data_ok_;
  std::uint64_t cycles_ = 0;
  std::vector<std::uint8_t> beat_;  ///< per-lane key beat staging, reused
};

}  // namespace aesip::core
