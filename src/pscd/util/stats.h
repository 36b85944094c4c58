// Small statistics helpers: running moments and the hourly time series
// used by the evaluation figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pscd/util/types.h"

namespace pscd {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Accumulates (numerator, denominator) pairs into hourly buckets; used
/// for hit-ratio-per-hour (fig. 6) and traffic-per-hour (fig. 7).
class HourlySeries {
 public:
  explicit HourlySeries(std::size_t hours);

  void add(SimTime t, double numerator, double denominator = 1.0);

  std::size_t hours() const { return num_.size(); }
  double numerator(std::size_t hour) const { return num_[hour]; }
  double denominator(std::size_t hour) const { return den_[hour]; }
  /// numerator/denominator for the hour, or 0 when the hour is empty.
  double ratio(std::size_t hour) const;

 private:
  std::vector<double> num_;
  std::vector<double> den_;
};

}  // namespace pscd
