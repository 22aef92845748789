// Shared metrics primitives: nearest-rank percentiles, fixed-bucket log2
// histograms, and a small name→counter/histogram registry.
//
// The histogram is the streaming companion to the exact nearest-rank
// percentile: `Log2Histogram::percentile(q)` returns the upper edge of the
// bucket holding the rank-⌈qN⌉ sample, so for any positive sample it
// satisfies  exact ≤ returned < 2·exact  with O(1) memory — good enough
// for heartbeats and long soak streams where keeping every latency is not.
// The serve summaries keep both: exact percentiles selected from the sample
// (via nearest_ranks below) and the histograms under the JSON `metrics` key.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ndf::obs {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least q·N of the sample at or below it (rank ⌈qN⌉,
/// clamped to [1, N]). Returns 0 for an empty sample. This is the single
/// shared implementation behind every reported percentile (serve latency
/// summaries and histogram tests alike).
double nearest_rank(const std::vector<double>& sorted, double q);

/// nearest_rank(sorted sample, qs[i]) for every i, without sorting: each
/// rank is placed by std::nth_element, each later one within the tail the
/// earlier left, so the cost is O(N) per quantile rather than a sort.
/// `qs` must be ascending. Reorders `sample`; all zeros when it is empty.
template <std::size_t K>
std::array<double, K> nearest_ranks(std::vector<double>& sample,
                                    const std::array<double, K>& qs);

/// Streaming histogram over power-of-two buckets: bucket e counts samples
/// in (2^(e-1), 2^e], exponents clamped to [kMinExp, kMaxExp]; zero and
/// negative samples land in a dedicated zero bucket. Exact count, sum,
/// min and max are kept alongside, so mean is exact and only the
/// percentiles are quantized (to the bucket's upper edge — within 2× of
/// the exact nearest-rank value, see file comment).
class Log2Histogram {
 public:
  static constexpr int kMinExp = -32;  ///< smallest bucket edge 2^-32
  static constexpr int kMaxExp = 63;   ///< largest bucket edge 2^63

  /// Adds one sample.
  void record(double value);

  /// Total samples recorded (including the zero bucket).
  std::uint64_t count() const { return count_; }
  /// Samples that were ≤ 0.
  std::uint64_t zero_count() const { return zero_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }

  /// Upper bucket edge of the nearest-rank sample: 0 for an empty
  /// histogram or when the rank falls in the zero bucket; otherwise 2^e
  /// of the rank's bucket (exact ≤ result < 2·exact for positive exacts).
  double percentile(double q) const;

  /// Count in the bucket with upper edge 2^e (e in [kMinExp, kMaxExp]).
  std::uint64_t bucket_count(int e) const {
    return buckets_[std::size_t(e - kMinExp)];
  }

  /// Merges another histogram into this one.
  void merge(const Log2Histogram& other);

  /// Emits `{"count":N,"zero":Z,"min":m,"max":M,"mean":u,"buckets":
  /// [{"le":2^e,"n":c},...]}` — buckets ascending, zero-count buckets
  /// omitted, min/max/mean omitted when empty. Uses the stream's current
  /// float formatting.
  void write_json(std::ostream& os) const;

 private:
  static constexpr std::size_t kBuckets = std::size_t(kMaxExp - kMinExp + 1);
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name-keyed counters and histograms with deterministic (sorted-name)
/// JSON emission. Cheap to copy/move; the serve summaries carry one per
/// cell under the report's `metrics` key.
class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (created at zero on first use).
  void add(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  /// Returns histogram `name`, creating it empty on first use.
  Log2Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, Log2Histogram>& histograms() const {
    return histograms_;
  }
  bool empty() const { return counters_.empty() && histograms_.empty(); }

  /// Emits `{"name":value,...,"name":{histogram},...}` — counters first,
  /// then histograms, each sorted by name. Uses the stream's current
  /// float formatting.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, Log2Histogram> histograms_;
};

}  // namespace ndf::obs
