// Paired trials for the wall-clock gates on a shared host.
//
// A single-shot ratio of two runs reads the host's noise as often as the
// system under test. run_pairs() runs the two sides alternately, swapping
// which goes first in each pair so that neither always runs second, and
// the gate reads the median of the per-pair figures, with the quartiles
// beside it as the spread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "report/json.hpp"

namespace aesip::bench {

/// The q-quantile of `v` (0.5 = median), linear between closest ranks.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct PairedFigure {
  std::vector<double> per_pair;  ///< in run order
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

/// `pairs` pairs of `a()` and `b()`, `a` first in even pairs and `b` first
/// in odd ones; `figure(a_result, b_result)` is each pair's value.
template <class A, class B, class F>
PairedFigure run_pairs(int pairs, A&& a, B&& b, F&& figure) {
  PairedFigure out;
  for (int p = 0; p < pairs; ++p) {
    if (p % 2 == 0) {
      const auto ra = a();
      out.per_pair.push_back(figure(ra, b()));
    } else {
      const auto rb = b();
      out.per_pair.push_back(figure(a(), rb));
    }
  }
  out.median = quantile(out.per_pair, 0.50);
  out.q1 = quantile(out.per_pair, 0.25);
  out.q3 = quantile(out.per_pair, 0.75);
  return out;
}

/// The spread of a paired figure, as members of the caller's open object.
inline void write_pairs_json(report::JsonWriter& j, const PairedFigure& f) {
  j.key("pairs").value(f.per_pair.size());
  j.key("per_pair").begin_array();
  for (const double v : f.per_pair) j.value(v);
  j.end_array();
  j.key("q1").value(f.q1);
  j.key("q3").value(f.q3);
  j.key("iqr").value(f.q3 - f.q1);
}

}  // namespace aesip::bench
