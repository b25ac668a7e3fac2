#ifndef LAMP_BENCHMARK_MEASURE_H_
#define LAMP_BENCHMARK_MEASURE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

/// \file
/// The arithmetic behind lamp_benchmark's end-to-end metrics, apart from
/// the workloads so that benchmark_test.cc can pin it down. Percentiles
/// are obs::Histogram's nearest rank, so every one is a measured sample.

namespace lamp::bench {

/// A run issues whole blocks of this many queries, at least one block, so
/// that every block's p90 has ten samples beyond it.
inline constexpr std::size_t kBlockQueries = 100;

/// The median time of the calibration kernel (CalibrationKernel in
/// lamp_benchmark.cc) on the 4-vCPU Xeon virtual machine the bounds were
/// set on. Times are reported at the host speed at which the kernel takes
/// this long.
inline constexpr double kReferenceProbeSeconds = 0.005;

/// The median of \p samples (nearest rank).
inline double Median(const std::vector<double>& samples) {
  obs::Histogram h;
  for (double s : samples) h.Observe(s);
  return h.P50();
}

/// Input tuples processed per second of query time.
inline double Throughput(std::size_t tuples_per_query, std::size_t queries,
                         double query_seconds) {
  return static_cast<double>(tuples_per_query) *
         static_cast<double>(queries) / query_seconds;
}

/// The factor that brings block b's times to the reference host speed.
/// \p probes holds the calibration kernel's time before every block and
/// once after the last; block b is rescaled by kReferenceProbeSeconds over
/// the geometric mean of probes[b] and probes[b + 1], the two probes that
/// bracket it.
inline std::vector<double> BlockScales(const std::vector<double>& probes) {
  LAMP_CHECK(probes.size() >= 2);
  std::vector<double> scales;
  for (std::size_t b = 0; b + 1 < probes.size(); ++b) {
    scales.push_back(kReferenceProbeSeconds /
                     std::sqrt(probes[b] * probes[b + 1]));
  }
  return scales;
}

/// The median, over the consecutive blocks of kBlockQueries samples, of
/// \p stat applied to each block's histogram of samples times its scale.
template <typename Stat>
double MedianOverBlocks(const std::vector<double>& samples,
                        const std::vector<double>& scales, Stat stat) {
  const std::size_t blocks = samples.size() / kBlockQueries;
  LAMP_CHECK(blocks >= 1 && blocks * kBlockQueries == samples.size() &&
             blocks == scales.size());
  obs::Histogram per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    obs::Histogram block;
    for (std::size_t i = b * kBlockQueries; i < (b + 1) * kBlockQueries;
         ++i) {
      block.Observe(samples[i] * scales[b]);
    }
    per_block.Observe(stat(block));
  }
  return per_block.P50();
}

/// The \p q-th percentile of query seconds, median over the blocks.
inline double BlockPercentile(const std::vector<double>& seconds,
                              const std::vector<double>& scales, double q) {
  return MedianOverBlocks(seconds, scales, [q](const obs::Histogram& block) {
    return block.Percentile(q);
  });
}

/// The throughput over \p tuples_per_query input tuples per query, median
/// over the blocks.
inline double BlockThroughput(const std::vector<double>& seconds,
                              const std::vector<double>& scales,
                              std::size_t tuples_per_query) {
  return MedianOverBlocks(
      seconds, scales, [tuples_per_query](const obs::Histogram& block) {
        return Throughput(tuples_per_query, block.Count(), block.Sum());
      });
}

/// One closed loop: the timed region of every query and whether its output
/// equalled the centralized reference.
class QueryLog {
 public:
  void Record(double seconds, bool correct) {
    seconds_.push_back(seconds);
    if (!correct) ++failed_;
  }

  const std::vector<double>& seconds() const { return seconds_; }
  std::size_t attempted() const { return seconds_.size(); }
  std::size_t failed() const { return failed_; }

 private:
  std::vector<double> seconds_;
  std::size_t failed_ = 0;
};

}  // namespace lamp::bench

#endif  // LAMP_BENCHMARK_MEASURE_H_
