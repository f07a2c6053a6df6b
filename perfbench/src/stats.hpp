// Exact order statistics for the benchmark's timings.
//
// Every per-op time is an integer number of nanoseconds (steady_clock
// stamps), so a histogram with one bucket per nanosecond loses nothing:
// LatencyHist counts times below kDenseNs in a dense array and keeps every
// longer time as an exact sample. Quantiles are nearest-rank order
// statistics of the recorded values — no interpolation between buckets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// |a − b| for unsigned values.
inline std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// num ÷ den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// 1-based nearest rank of quantile q in a sample of n ≥ 1: ceil(q·n),
/// clamped to [1, n]. The epsilon keeps q·n that is integral in exact
/// arithmetic (0.99 · 1000) from rounding up a rank.
inline std::uint64_t rank_of(double q, std::uint64_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::max(r, 1.0)),
                                   1, n);
}

/// Nearest-rank quantile of a sorted sample: the smallest value with at
/// least ceil(q·n) samples at or below it. q in (0, 1]; n ≥ 1.
template <typename T>
T nearest_rank(const std::vector<T>& sorted, double q) {
  return sorted[rank_of(q, sorted.size()) - 1];
}

/// Mid-quantile of a sorted integer-valued sample with ties (Parzen's
/// mid-distribution F_mid(x) = P(X < x) + P(X = x)/2, linearly
/// interpolated between distinct values and clamped at the extremes).
/// Where a nearest-rank quantile of heavily tied data sticks to one value
/// across runs, this moves with the share of samples on each side of it.
template <typename T>
double mid_quantile(const std::vector<T>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  double prev_v = 0, prev_f = -1;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const double v = static_cast<double>(sorted[i]);
    const double f =
        (static_cast<double>(i) + 0.5 * static_cast<double>(j - i)) / n;
    if (q <= f) {
      if (prev_f < 0) return v;
      return prev_v + (q - prev_f) / (f - prev_f) * (v - prev_v);
    }
    prev_v = v;
    prev_f = f;
    i = j;
  }
  return prev_v;
}

/// Median of an unsorted sample (mean of the two middle values when n is
/// even). Empty → 0.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest tail level among 0.9, 0.99, 0.999, … that leaves at least
/// ten samples strictly beyond its nearest-rank position; 0.5 (the median)
/// when fewer than 100 samples exist.
inline double tail_level(std::uint64_t n) {
  double best = 0.5;
  for (double beyond = 0.1; beyond > 1e-12; beyond /= 10) {
    const double q = 1.0 - beyond;
    if (n == 0 || n < rank_of(q, n) + 10) break;
    best = q;
  }
  return best;
}

/// "p99.9"-style label for a tail level.
inline std::string level_label(double q) {
  std::string s = std::to_string(q * 100.0);
  s.erase(s.find_last_not_of('0') + 1);
  if (s.back() == '.') s.pop_back();
  return "p" + s;
}

class LatencyHist {
 public:
  static constexpr std::uint64_t kDenseNs = 1u << 14;

  LatencyHist() : dense_(kDenseNs, 0) {}

  void add(std::uint64_t ns) {
    if (ns < kDenseNs) {
      ++dense_[ns];
    } else {
      over_.push_back(ns);
    }
    ++n_;
  }

  void merge(const LatencyHist& o) {
    for (std::uint64_t i = 0; i < kDenseNs; ++i) dense_[i] += o.dense_[i];
    over_.insert(over_.end(), o.over_.begin(), o.over_.end());
    n_ += o.n_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

  /// Nearest-rank quantile in ns; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (n_ == 0) return 0;
    const std::uint64_t rank = rank_of(q, n_);
    std::uint64_t seen = 0;
    for (std::uint64_t i = 0; i < kDenseNs; ++i) {
      seen += dense_[i];
      if (seen >= rank) return i;
    }
    if (!std::is_sorted(over_.begin(), over_.end())) {
      std::sort(over_.begin(), over_.end());
    }
    return over_[rank - seen - 1];
  }

  /// "median=… p99.99=… n=…": the median, the highest percentile with at
  /// least ten samples beyond it, and the sample count.
  [[nodiscard]] std::string describe() const {
    const double tail = tail_level(n_);
    return "median=" + std::to_string(quantile(0.5)) + "ns " +
           level_label(tail) + "=" + std::to_string(quantile(tail)) +
           "ns n=" + std::to_string(n_);
  }

 private:
  std::vector<std::uint64_t> dense_;
  mutable std::vector<std::uint64_t> over_;  ///< sorted on first quantile()
  std::uint64_t n_ = 0;
};

}  // namespace perfbench
