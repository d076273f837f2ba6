// Small statistics helpers for the benchmark harness: a log-linear latency
// histogram that merges across threads, blocks and processes, and order
// statistics over per-block samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Latency histogram over [0, 2^40) ns with 256 linear sub-buckets per power
// of two (relative resolution 1/256). Quantiles interpolate linearly inside
// the bucket that holds the requested rank, so reported values move
// continuously with the data instead of snapping to bucket edges.
class LatencyHist {
 public:
  LatencyHist();

  void Record(uint64_t ns);
  void Merge(const LatencyHist& other);
  uint64_t count() const { return count_; }
  // q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  // Sparse text form "<bucket>:<count> ..." for passing between processes.
  std::string Encode() const;
  bool Decode(const std::string& text);

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kMaxExp = 40;
  static size_t BucketOf(uint64_t ns);
  static double BucketLow(size_t bucket);
  static double BucketHigh(size_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Linear-interpolated quantile of unsorted samples; 0 when empty.
double QuantileOf(std::vector<double> values, double q);
double MedianOf(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
