// Measurement statistics for the benchmark harness.
//
// The paper reports mean delays over 10,000 iterations and peak
// throughputs. `RunningStat` accumulates mean/min/max/stddev in O(1)
// memory (Welford); `Histogram` keeps the raw samples for percentiles,
// which the benches print alongside the paper-style means.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace amoeba {

/// Welford online mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  void reset() noexcept { *this = RunningStat{}; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Sample-retaining histogram with exact percentiles.
class Histogram {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
    stat_.add(x);
  }
  void add(Duration d) { add(d.to_micros()); }

  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept { return stat_.mean(); }
  double stddev() const noexcept { return stat_.stddev(); }
  double min() const noexcept { return stat_.min(); }
  double max() const noexcept { return stat_.max(); }

  /// Exact p-th percentile (p in [0,100]) via nearest-rank.
  double percentile(double p);

  void reset() {
    samples_.clear();
    sorted_ = false;
    stat_.reset();
  }

 private:
  void ensure_sorted();

  std::vector<double> samples_;
  bool sorted_{false};
  RunningStat stat_;
};

}  // namespace amoeba
