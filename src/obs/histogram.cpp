#include "obs/histogram.hpp"

#include "report/json.hpp"

namespace aesip::obs {

void write_histogram_json(report::JsonWriter& j, const HistogramSnapshot& h) {
  j.begin_object();
  j.key("count").value(h.count);
  j.key("sum").value(h.sum);
  j.key("mean").value(h.mean());
  j.key("max").value(h.max);
  j.key("p50").value(h.percentile(0.50));
  j.key("p90").value(h.percentile(0.90));
  j.key("p99").value(h.percentile(0.99));
  j.key("buckets").begin_array();  // [inclusive upper bound, count] pairs
  for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    const auto n = h.buckets[static_cast<std::size_t>(b)];
    if (!n) continue;
    j.begin_array();
    j.value(HistogramSnapshot::bucket_upper(b));
    j.value(n);
    j.end_array();
  }
  j.end_array();
  j.end_object();
}

}  // namespace aesip::obs
