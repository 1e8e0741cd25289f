#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace obs {

int Histogram::bucket_index(double value) {
  if (!(value >= kFirstBound)) return 0;  // also catches NaN and negatives
  int exp = 0;
  // value = m · 2^exp with m in [0.5, 1), relative to the first bound.
  std::frexp(value / kFirstBound, &exp);
  return std::clamp(exp, 1, kBucketCount - 1);
}

double Histogram::bucket_lower_bound(int index) {
  if (index <= 0) return 0.0;
  return kFirstBound * std::exp2(index - 1);
}

double Histogram::bucket_upper_bound(int index) {
  if (index <= 0) return kFirstBound;
  return kFirstBound * std::exp2(index);
}

void Histogram::observe(double value) {
  if (!(value > 0.0)) value = 0.0;  // clamp negatives and NaN
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile in [0, count]; the covering bucket is
  // the first whose cumulative count reaches it.
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    const double before = cumulative;
    cumulative += static_cast<double>(in_bucket);
    if (cumulative >= target) {
      const double lo = bucket_lower_bound(i);
      const double hi = bucket_upper_bound(i);
      const double fraction = (target - before) / static_cast<double>(in_bucket);
      const double interpolated = lo + fraction * (hi - lo);
      // The bucket bounds can overshoot the values actually observed;
      // clamping makes single-sample and boundary cases exact.
      return std::clamp(interpolated, min_, max_);
    }
  }
  return max_;
}

HistogramStats Histogram::stats() const {
  HistogramStats s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  buckets_.fill(0);
}

}  // namespace obs
