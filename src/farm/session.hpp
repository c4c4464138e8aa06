// Session table: key-slot affinity scheduling for the IP farm.
//
// The paper's core derives round keys on the fly, so a key *load* costs
// cycles (a bus write, plus a 40-cycle setup pass on decrypt-capable
// devices) while key *reuse* is free. Each worker owns exactly one core and
// a core holds exactly one resident key, so the farm has N one-key "slots".
// The table routes a session's requests to the worker whose core already
// holds its key; when no slot holds the key, the least-recently-used slot
// is re-keyed — classic LRU cache, except the cache lines are simulated
// FPGA cores.
//
// Sessions (user connections) are a second, larger LRU: `max_sessions`
// bounds the id->key binding table the way a front-end bounds its
// connection state. Evicting a session forgets only the binding — the key
// may still sit in a slot and be re-hit by another session using it.
//
// All methods take the table mutex; routing happens once per request on the
// submit path, never inside a worker's simulation loop.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace aesip::farm {

using Key128 = std::array<std::uint8_t, 16>;

/// A Rijndael key of any supported length (16/24/32 bytes; the length
/// selects AES-128/192/256).  Fixed-capacity value type: the unused tail
/// stays zero, so the defaulted comparison is contents-and-length.  The
/// implicit array constructors keep 128-bit call sites terse.
struct KeyBytes {
  std::array<std::uint8_t, 32> bytes{};
  std::uint8_t len = 16;

  KeyBytes() = default;
  KeyBytes(const std::array<std::uint8_t, 16>& k) { assign(k); }
  KeyBytes(const std::array<std::uint8_t, 24>& k) { assign(k); }
  KeyBytes(const std::array<std::uint8_t, 32>& k) { assign(k); }

  /// nullopt unless `key` has a legal Rijndael key length.
  static std::optional<KeyBytes> from(std::span<const std::uint8_t> key) {
    if (key.size() != 16 && key.size() != 24 && key.size() != 32) return std::nullopt;
    KeyBytes k;
    k.assign(key);
    return k;
  }

  std::span<const std::uint8_t> view() const noexcept { return {bytes.data(), len}; }
  int bits() const noexcept { return static_cast<int>(len) * 8; }

  friend bool operator==(const KeyBytes&, const KeyBytes&) = default;

 private:
  void assign(std::span<const std::uint8_t> key) {
    bytes.fill(0);
    std::copy(key.begin(), key.end(), bytes.begin());
    len = static_cast<std::uint8_t>(key.size());
  }
};

class SessionTable {
 public:
  struct Route {
    int worker = 0;        ///< which worker's queue to push to
    bool key_hot = false;  ///< slot already predicted to hold the key (no setup)
  };

  struct Counters {
    std::uint64_t key_hits = 0;          ///< routed to a slot already holding the key
    std::uint64_t key_loads = 0;         ///< slot re-keyed (LRU victim chosen)
    std::uint64_t session_evictions = 0; ///< session bindings dropped at capacity
    std::uint64_t sessions_live = 0;
    std::uint64_t sessions_migrated = 0; ///< sessions re-routed off a disabled worker
  };

  SessionTable(int workers, std::size_t max_sessions);

  /// Pick the worker for one request of `session_id` under `key`.
  Route route(std::uint64_t session_id, const KeyBytes& key);

  /// Affinity-free worker pick for fan-out chunks: round-robin over all
  /// slots (a CTR fan-out deliberately trades key reuse for parallelism).
  /// Marks the slot as re-keyed if it did not hold `key`.
  int next_round_robin(const KeyBytes& key);

  /// Drop a session binding (connection closed). No-op if unknown.
  void end_session(std::uint64_t session_id);

  /// Quarantine plumbing: a disabled worker receives no new routes — its
  /// sessions migrate (re-key elsewhere, counted in sessions_migrated) on
  /// their next request. If every worker is disabled, routing falls back
  /// to ignoring the mask rather than deadlocking.
  void set_worker_enabled(int worker, bool enabled);
  bool worker_enabled(int worker) const;
  int workers_enabled() const;

  Counters counters() const;
  int workers() const noexcept { return static_cast<int>(slots_.size()); }

 private:
  struct Slot {
    std::optional<KeyBytes> key;
    std::uint64_t last_used = 0;  ///< LRU tick
    bool enabled = true;          ///< quarantined workers take no new routes
  };
  struct Session {
    KeyBytes key{};
    int worker = 0;
    std::uint64_t last_used = 0;  ///< LRU tick for the session table
  };

  int touch_slot_with_key_locked(const KeyBytes& key);  ///< -1 if no slot holds it
  int evict_lru_slot_locked(const KeyBytes& key);
  void insert_session_locked(std::uint64_t session_id, const KeyBytes& key, int worker);

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::size_t max_sessions_;
  std::uint64_t tick_ = 0;
  int rr_next_ = 0;
  Counters counters_;
};

}  // namespace aesip::farm
