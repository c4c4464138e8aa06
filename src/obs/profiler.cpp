#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "report/json.hpp"

namespace aesip::obs {

namespace {

/// Signals ranked by activity, most active first (stable on ties).
std::vector<const hdl::SignalProfile*> ranked_signals(const hdl::SimProfile& p) {
  std::vector<const hdl::SignalProfile*> v;
  v.reserve(p.signals.size());
  for (const auto& s : p.signals) v.push_back(&s);
  std::stable_sort(v.begin(), v.end(),
                   [](const auto* a, const auto* b) { return a->activity > b->activity; });
  return v;
}

}  // namespace

std::string ScopedProfiler::report(std::size_t top_signals) const {
  const hdl::SimProfile& p = profile();
  char line[160];
  std::string out;
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  add("simulator: %llu cycles, %.1f ns/cycle (sampled), %.2f deltas/settle (max %llu)\n",
      static_cast<unsigned long long>(p.steps), p.ns_per_cycle(), p.deltas_per_settle(),
      static_cast<unsigned long long>(p.max_deltas));
  add("  %llu module evals, %llu signal toggles over %llu settles\n",
      static_cast<unsigned long long>(p.total_evals()),
      static_cast<unsigned long long>(p.total_activity()),
      static_cast<unsigned long long>(p.settles));
  for (const auto& m : p.modules)
    add("  module %-12s %10llu evals  %10llu ticks\n", m.name.c_str(),
        static_cast<unsigned long long>(m.evals), static_cast<unsigned long long>(m.ticks));
  const auto ranked = ranked_signals(p);
  const std::size_t n = std::min(top_signals, ranked.size());
  if (n) add("  top signals by activity (changed commits):\n");
  for (std::size_t i = 0; i < n; ++i)
    add("    %-16s (%3d bits) %10llu toggles\n", ranked[i]->name.c_str(), ranked[i]->bits,
        static_cast<unsigned long long>(ranked[i]->activity));
  return out;
}

void ScopedProfiler::write_json(report::JsonWriter& j) const {
  const hdl::SimProfile& p = profile();
  j.begin_object();
  j.key("cycles").value(p.steps);
  j.key("settles").value(p.settles);
  j.key("deltas").value(p.deltas);
  j.key("max_deltas_per_settle").value(p.max_deltas);
  j.key("deltas_per_settle").value(p.deltas_per_settle());
  j.key("wall_ns").value(p.wall_ns);
  j.key("ns_per_cycle").value(p.ns_per_cycle());
  j.key("module_evals").value(p.total_evals());
  j.key("signal_toggles").value(p.total_activity());
  j.key("modules").begin_array();
  for (const auto& m : p.modules) {
    j.begin_object();
    j.key("name").value(m.name);
    j.key("evals").value(m.evals);
    j.key("ticks").value(m.ticks);
    j.end_object();
  }
  j.end_array();
  j.key("signals").begin_array();
  for (const auto* s : ranked_signals(p)) {
    j.begin_object();
    j.key("name").value(s->name);
    j.key("bits").value(s->bits);
    j.key("toggles").value(s->activity);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace aesip::obs
