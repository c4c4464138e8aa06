// Lock-free log2-bucketed histogram — the farm's distribution primitive.
//
// record() is wait-free (a handful of relaxed atomic increments plus a CAS
// loop for the max), so any thread can record on its hot path and stats()
// can snapshot mid-run without stopping traffic. Buckets are powers of
// two: bucket 0 holds exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i).
// That gives ~2x resolution over the full uint64 range in 65 counters —
// the right trade for latency/queue-depth distributions, where orders of
// magnitude matter and 1% precision does not.
//
// Percentiles come from the snapshot and are upper bounds of the bucket
// the target rank lands in (clamped to the observed max), i.e. p99 never
// under-reports. Totals are exact: count/sum/max carry no approximation,
// which is what the accounting tests check against request counts.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace aesip::report {
class JsonWriter;
}

namespace aesip::obs {

/// Plain-value copy of a Histogram, safe to serialize and compare.
struct HistogramSnapshot {
  static constexpr int kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Inclusive upper bound of bucket `b` (0, 1, 3, 7, ...).
  static constexpr std::uint64_t bucket_upper(int b) noexcept {
    if (b <= 0) return 0;
    if (b >= 64) return ~0ull;
    return (1ull << b) - 1;
  }

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Fold another snapshot into this one — counts, sums and buckets add,
  /// max takes the larger. Exact (log2 buckets align by construction), so
  /// per-node/per-thread distributions aggregate without losing shape;
  /// the cluster fleet roll-up leans on this.
  void merge(const HistogramSnapshot& other) noexcept {
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
    for (int b = 0; b < kBuckets; ++b)
      buckets[static_cast<std::size_t>(b)] += other.buckets[static_cast<std::size_t>(b)];
  }

  /// Value at quantile `p` in [0,1]: the upper bound of the bucket holding
  /// the rank, clamped to the observed max.
  std::uint64_t percentile(double p) const {
    if (count == 0) return 0;
    if (p < 0) p = 0;
    if (p > 1) p = 1;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(p * static_cast<double>(count - 1)) + 1;
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += buckets[static_cast<std::size_t>(b)];
      if (cum >= rank) return bucket_upper(b) < max ? bucket_upper(b) : max;
    }
    return max;
  }
};

/// Render a snapshot as one JSON object: count, sum, mean, max, p50/p90/
/// p99 and the non-empty buckets as [inclusive upper bound, count] pairs.
/// Every stats document (the farm's, `aesip metrics`) uses this writer.
void write_histogram_json(report::JsonWriter& j, const HistogramSnapshot& h);

class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  static constexpr int bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : 64 - std::countl_zero(v);
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

  /// Point-in-time copy; buckets may lag count by in-flight records but
  /// a quiesced histogram snapshots exactly.
  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b)
      s.buckets[static_cast<std::size_t>(b)] =
          buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace aesip::obs
