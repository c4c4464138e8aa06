// ScopedProfiler: the RAII front end over the hdl kernel's profile hooks.
//
// Construction attaches a SimProfile sink to the simulator; destruction
// detaches it, restoring the kernel's branch-light uninstrumented path.
// While attached, the kernel counts per-module evaluate()/tick() calls,
// per-signal changed-commits (the activity/toggle figure the power model
// reasons about), delta-loop statistics, and sampled wall time per cycle.
//
//   hdl::Simulator sim;
//   core::RijndaelIp ip(sim, core::IpMode::kBoth);
//   ...
//   {
//     obs::ScopedProfiler prof(sim);
//     run_workload();
//     std::cout << prof.report();          // text table
//     report::JsonWriter j(file);
//     prof.write_json(j);                  // machine-readable
//   }                                      // detached again here
//
// The profile outlives nothing: it is owned by the ScopedProfiler, and
// profile() hands out a const view. For accumulating across several
// attach/detach windows, construct with an external SimProfile.
#pragma once

#include <string>

#include "hdl/profile.hpp"
#include "hdl/simulator.hpp"

namespace aesip::report {
class JsonWriter;
}

namespace aesip::obs {

class ScopedProfiler {
 public:
  /// Attach to `sim` with an internally owned profile.
  explicit ScopedProfiler(hdl::Simulator& sim) : sim_(&sim), external_(nullptr) {
    sim_->attach_profiler(&owned_);
  }

  /// Attach with a caller-owned sink (accumulates across windows).
  ScopedProfiler(hdl::Simulator& sim, hdl::SimProfile& profile)
      : sim_(&sim), external_(&profile) {
    sim_->attach_profiler(external_);
  }

  ~ScopedProfiler() { sim_->detach_profiler(); }

  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

  const hdl::SimProfile& profile() const noexcept {
    sim_->sync_profile();  // flush deferred per-module counters
    return external_ ? *external_ : owned_;
  }

  /// Human-readable summary: kernel rates, per-module eval/tick counts,
  /// and the `top_signals` most active signals.
  std::string report(std::size_t top_signals = 8) const;

  /// The same content as one JSON object (stable keys; see
  /// docs/benchmarks.md), at the writer's root or after a key.
  void write_json(report::JsonWriter& j) const;

 private:
  hdl::Simulator* sim_;
  hdl::SimProfile* external_;
  hdl::SimProfile owned_;
};

}  // namespace aesip::obs
