#include "fleet/fleet.hpp"

#include "seu/live.hpp"

namespace aesip::fleet {

std::size_t ChaosInjector::corrupting_site() {
  if (!sites_scanned_) {
    sites_scanned_ = true;
    // Classify a handful of provably-corrupting standby sites on the shared
    // gate graph (deterministic per seed). The scan is the expensive step,
    // so it runs once and only if a netlist exists to scan.
    if (const auto nl = farm_.shared_netlist())
      corrupting_sites_ = seu::find_standby_sites(*nl, seu::StandbyEffect::kCorrupting,
                                                  /*count=*/4, rng_());
  }
  if (corrupting_sites_.empty()) return 0;  // nothing classified: inject() reports the truth
  return corrupting_sites_[rng_() % corrupting_sites_.size()];
}

ChaosInjector::Event ChaosInjector::inject(int worker, std::size_t site) {
  Event e;
  e.worker = worker >= 0 ? worker
                         : static_cast<int>(rng_() % static_cast<std::uint32_t>(
                                                         farm_.config().workers));
  e.site = site == kAutoSite ? corrupting_site() : site;
  e.injected = farm_.inject_fault(e.worker, e.site).get();
  events_.push_back(e);
  return e;
}

}  // namespace aesip::fleet
