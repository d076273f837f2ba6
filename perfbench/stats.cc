#include "perfbench/stats.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace perfbench {

LatencyHist::LatencyHist() : buckets_(static_cast<size_t>(kMaxExp + 1) << kSubBits, 0) {}

size_t LatencyHist::BucketOf(uint64_t ns) {
  constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  if (ns < kSub) {
    return static_cast<size_t>(ns);  // exact below 256 ns
  }
  const int msb = 63 - __builtin_clzll(ns);
  if (msb >= kMaxExp + kSubBits) {
    return ((static_cast<size_t>(kMaxExp) + 1) << kSubBits) - 1;
  }
  const int shift = msb - kSubBits;
  const uint64_t sub = (ns >> shift) - kSub;  // 0 .. kSub-1
  return (static_cast<size_t>(shift + 1) << kSubBits) + static_cast<size_t>(sub);
}

double LatencyHist::BucketLow(size_t bucket) {
  constexpr size_t kSub = size_t{1} << kSubBits;
  if (bucket < kSub) {
    return static_cast<double>(bucket);
  }
  const size_t shift = (bucket >> kSubBits) - 1;
  const size_t sub = bucket & (kSub - 1);
  return static_cast<double>((kSub + sub) << shift);
}

double LatencyHist::BucketHigh(size_t bucket) {
  constexpr size_t kSub = size_t{1} << kSubBits;
  if (bucket < kSub) {
    return static_cast<double>(bucket) + 1.0;
  }
  const size_t shift = (bucket >> kSubBits) - 1;
  return BucketLow(bucket) + static_cast<double>(size_t{1} << shift);
}

void LatencyHist::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHist::Merge(const LatencyHist& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHist::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const double next = seen + static_cast<double>(buckets_[i]);
    if (next >= rank) {
      const double frac = (rank - seen) / static_cast<double>(buckets_[i]);
      return BucketLow(i) + frac * (BucketHigh(i) - BucketLow(i));
    }
    seen = next;
  }
  return BucketHigh(buckets_.size() - 1);
}

std::string LatencyHist::Encode() const {
  std::string out;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      if (!out.empty()) {
        out += ' ';
      }
      out += std::to_string(i) + ':' + std::to_string(buckets_[i]);
    }
  }
  return out.empty() ? "-" : out;
}

bool LatencyHist::Decode(const std::string& text) {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  if (text == "-") {
    return true;
  }
  std::istringstream in(text);
  std::string cell;
  while (in >> cell) {
    const size_t colon = cell.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    const size_t bucket = std::strtoull(cell.c_str(), nullptr, 10);
    const uint64_t n = std::strtoull(cell.c_str() + colon + 1, nullptr, 10);
    if (bucket >= buckets_.size()) {
      return false;
    }
    buckets_[bucket] += n;
    count_ += n;
  }
  return true;
}

double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double MedianOf(const std::vector<double>& values) { return QuantileOf(values, 0.5); }

}  // namespace perfbench
