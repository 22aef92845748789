#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace ndf::obs {

namespace {

/// 0-based position of the rank-⌈qN⌉ element (clamped to [1, N]); N > 0.
std::size_t rank_index(std::size_t size, double q) {
  const std::size_t rank =
      std::size_t(std::max(1.0, std::ceil(q * double(size))));
  return std::min(rank, size) - 1;
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_index(sorted.size(), q)];
}

template <std::size_t K>
std::array<double, K> nearest_ranks(std::vector<double>& sample,
                                    const std::array<double, K>& qs) {
  std::array<double, K> out{};
  if (sample.empty()) return out;
  // Everything from `from` on is >= every value already placed.
  auto from = sample.begin();
  for (std::size_t i = 0; i < K; ++i) {
    const auto at =
        sample.begin() + std::ptrdiff_t(rank_index(sample.size(), qs[i]));
    if (at >= from) {
      std::nth_element(from, at, sample.end());
      from = at + 1;
    }
    out[i] = *at;
  }
  return out;
}

template std::array<double, 3> nearest_ranks(std::vector<double>&,
                                             const std::array<double, 3>&);

namespace {

// Bucket exponent for a positive value: the smallest e with value ≤ 2^e,
// i.e. value in (2^(e-1), 2^e]. frexp gives value = m·2^e with
// m in [0.5, 1); exact powers of two (m == 0.5) belong to the bucket
// below so edges are inclusive.
int bucket_exp(double value) {
  int e = 0;
  const double m = std::frexp(value, &e);
  if (m == 0.5) --e;
  return std::clamp(e, Log2Histogram::kMinExp, Log2Histogram::kMaxExp);
}

}  // namespace

void Log2Histogram::record(double value) {
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  if (!(value > 0.0)) {
    ++zero_;
    return;
  }
  ++buckets_[std::size_t(bucket_exp(value) - kMinExp)];
}

double Log2Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const std::uint64_t rank = std::uint64_t(
      std::max(1.0, std::ceil(q * double(count_))));
  std::uint64_t seen = zero_;
  if (std::min(rank, count_) <= seen) return 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (std::min(rank, count_) <= seen)
      return std::ldexp(1.0, int(i) + kMinExp);
  }
  return max();  // unreachable when counts are consistent
}

void Log2Histogram::merge(const Log2Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_ += other.zero_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Log2Histogram::write_json(std::ostream& os) const {
  os << "{\"count\": " << count_ << ", \"zero\": " << zero_;
  if (count_ != 0) {
    os << ", \"min\": " << min() << ", \"max\": " << max()
       << ", \"mean\": " << mean();
  }
  os << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"le\": " << std::ldexp(1.0, int(i) + kMinExp)
       << ", \"n\": " << buckets_[i] << "}";
  }
  os << "]}";
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << value;
  }
  for (const auto& [name, hist] : histograms_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": ";
    hist.write_json(os);
  }
  os << "}";
}

}  // namespace ndf::obs
