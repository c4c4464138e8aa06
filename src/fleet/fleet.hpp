// Fleet chaos: SEU-driven fault injection into a live farm.
//
// farm::Farm is the fleet's one control surface (swap_engine,
// set_worker_enabled, inject_fault) and farm::FarmStats its one snapshot;
// the wire admin plane (net::Server) and the tests call them directly.
// This layer adds the one stateful piece on top:
//
//   * ChaosInjector — flips netlist DFF state in a live NetlistEngine
//     mid-traffic. Sites are chosen from the shared gate netlist by
//     standby-upset classification (seu/live.hpp), so an injection is
//     *provably corrupting* — exactly the fault the farm's spot-check
//     policy must catch and heal. Deterministic per seed.
//
// Thread safety: a ChaosInjector holds an RNG and a lazily built site
// list, so each instance is used from one thread at a time (the server
// serializes its own behind a mutex).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "farm/farm.hpp"

namespace aesip::fleet {

/// SEU-driven chaos: inject corrupting standby upsets into live engines.
class ChaosInjector {
 public:
  /// Sentinel: pick a classified-corrupting site automatically.
  static constexpr std::size_t kAutoSite = ~std::size_t{0};

  struct Event {
    int worker = -1;
    std::size_t site = 0;
    bool injected = false;  ///< false when the target engine had no state to flip
  };

  ChaosInjector(farm::Farm& farm, std::uint32_t seed) : farm_(farm), rng_(seed) {}

  /// Flip state in `worker`'s engine (-1 = random worker). With kAutoSite
  /// the site comes from a lazily-built list of standby-corrupting DFFs on
  /// the farm's shared netlist; a farm that never built a netlist engine
  /// gets site 0 (and `injected` reports whether anything flipped).
  Event inject(int worker = -1, std::size_t site = kAutoSite);

  /// A standby-corrupting DFF site on the farm's shared netlist (the list
  /// is classified lazily on first call); 0 when no netlist exists. Public
  /// so async callers (the server's admin plane) can pair it with
  /// Farm::inject_fault directly instead of blocking in inject().
  std::size_t corrupting_site();

  const std::vector<Event>& events() const noexcept { return events_; }

 private:
  farm::Farm& farm_;
  std::mt19937 rng_;
  bool sites_scanned_ = false;
  std::vector<std::size_t> corrupting_sites_;
  std::vector<Event> events_;
};

}  // namespace aesip::fleet
