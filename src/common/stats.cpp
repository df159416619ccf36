#include "common/stats.hpp"

namespace amoeba {

void Histogram::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::percentile(double p) {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace amoeba
