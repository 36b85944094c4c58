#include "pscd/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pscd/util/check.h"

namespace pscd {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

HourlySeries::HourlySeries(std::size_t hours) : num_(hours), den_(hours) {
  if (hours == 0) throw std::invalid_argument("HourlySeries: hours > 0");
}

void HourlySeries::add(SimTime t, double numerator, double denominator) {
  auto h = static_cast<std::ptrdiff_t>(t / kHour);
  h = std::clamp<std::ptrdiff_t>(h, 0,
                                 static_cast<std::ptrdiff_t>(num_.size()) - 1);
  num_[static_cast<std::size_t>(h)] += numerator;
  den_[static_cast<std::size_t>(h)] += denominator;
}

double HourlySeries::ratio(std::size_t hour) const {
  PSCD_CHECK_LT(hour, num_.size()) << "HourlySeries::ratio hour out of range";
  return den_[hour] > 0 ? num_[hour] / den_[hour] : 0.0;
}

}  // namespace pscd
