// Streaming statistics used by the simulators and benchmark harnesses.
#pragma once

#include <cstddef>

namespace poq::util {

/// Welford online accumulator: mean/variance/min/max in O(1) per sample
/// without storing the samples.
class RunningStats {
 public:
  void add(double x);

  /// Merge another accumulator (parallel Welford / Chan et al.).
  void merge(const RunningStats& other);

  /// Reconstruct an accumulator from its summary moments (population
  /// variance). Used when deserializing persisted metrics; merging such a
  /// reconstruction behaves exactly like the original accumulator.
  [[nodiscard]] static RunningStats from_moments(std::size_t count, double mean,
                                                 double variance, double min,
                                                 double max);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace poq::util
