#pragma once
// Streaming summary statistics (Welford) used for benchmark repeats and
// the error bars the paper's Figures 8-9 report.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ookami {

/// Accumulates samples and reports mean / stddev / min / max / median.
class Summary {
public:
  void add(double x) {
    samples_.push_back(x);
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }

  /// Smallest/largest sample.  An empty accumulator returns quiet NaN —
  /// a deliberate sentinel: 0.0 would look like a plausible measurement
  /// if it leaked into a result file, while NaN propagates loudly and
  /// serializes to null in the harness JSON emitter.  Callers that can
  /// see an empty Summary must check count() first.
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const {
    return n_ > 1 ? std::sqrt(m2_ / static_cast<double>(n_ - 1)) : 0.0;
  }

  /// Empty accumulators return quiet NaN, the same sentinel policy as
  /// min()/max(): 0.0 would read as a plausible measurement in a result
  /// file, while NaN serializes to null in the harness JSON emitter.
  [[nodiscard]] double median() const {
    if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v = samples_;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    if (v.size() % 2 == 1) return v[mid];
    const double hi = v[mid];
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

private:
  std::vector<double> samples_;
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Max fold for check values that stays NaN once it sees a NaN.
/// std::max(worst, d) keeps `worst` when d is NaN (the comparison is
/// false), so a NaN result would pass a `worst <= tol` check.
inline double nan_max(double worst, double d) { return (std::isnan(d) || d > worst) ? d : worst; }

/// Min fold that stays NaN once it sees a NaN in either argument, and
/// otherwise returns the same bits as std::min(best, d) (`best` on ties,
/// so signed zeros fold exactly as std::min folds them).
inline double nan_min(double best, double d) { return (std::isnan(d) || d < best) ? d : best; }

/// The bit-identity comparison under the NaN rule of the op contract in
/// ookami/simd/batch.hpp: two NaNs match whatever their sign and
/// payload, a NaN never matches a number, and every other pair must
/// have the same bits (so +0 and -0 differ).
inline bool same_bits_or_both_nan(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Relative difference |a-b| / max(|a|,|b|,eps); convenient for tests.
inline double rel_diff(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

}  // namespace ookami
