// Measurement primitives: Jain fairness, running summaries, histograms,
// EWMA and moving averages.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace pert::stats {

/// Jain fairness index (sum x)^2 / (n * sum x^2); 1 = perfectly fair.
/// Empty input or all-zero throughputs yield 0.
double jain_index(std::span<const double> xs);

/// Streaming min/max/mean/variance (Welford).
class Summary {
 public:
  void add(double x) {
    ++n_;
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }
  /// Combines another summary as if its samples had been added here too
  /// (Chan et al. parallel variance combination; exact for mean/min/max).
  void merge(const Summary& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double d = o.mean_ - mean_;
    const std::size_t n = n_ + o.n_;
    m2_ += o.m2_ + d * d * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / static_cast<double>(n);
    mean_ += d * static_cast<double>(o.n_) / static_cast<double>(n);
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    n_ = n;
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  /// Raw sum of squared deviations (Welford M2). Exposed so a summary can be
  /// serialized and restored exactly (variance() loses the n-1 factor).
  double m2() const noexcept { return m2_; }

  /// Reconstructs a summary from its serialized state; exact inverse of
  /// reading count/min/max/mean/m2 back out.
  static Summary restore(std::size_t n, double min, double max, double mean,
                         double m2) noexcept {
    Summary s;
    s.n_ = n;
    s.min_ = min;
    s.max_ = max;
    s.mean_ = mean;
    s.m2_ = m2;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double min_ = 0, max_ = 0, mean_ = 0, m2_ = 0;
};

/// Fixed-range histogram on [lo, hi); out-of-range samples clamp to the
/// first/last bin. Supports normalization to a PDF.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    assert(hi > lo && bins > 0);
  }
  void add(double x);
  /// Bin-wise sum with a histogram of identical shape; throws
  /// std::invalid_argument when ranges or bin counts differ.
  void merge(const Histogram& o);
  /// Reconstructs a histogram from serialized bin counts (total is their
  /// sum); exact inverse of reading lo/hi/bin_count back out.
  static Histogram restore(double lo, double hi,
                           std::vector<std::size_t> counts) {
    Histogram h(lo, hi, counts.size());
    for (std::size_t c : counts) h.total_ += c;
    h.counts_ = std::move(counts);
    return h;
  }
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  double bin_center(std::size_t i) const {
    return lo_ + (static_cast<double>(i) + 0.5) * width();
  }
  double width() const noexcept {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  /// Fraction of samples in bin i (0 when empty).
  double pdf(std::size_t i) const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(counts_.at(i)) /
                             static_cast<double>(total_);
  }

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exponentially weighted moving average with history weight `alpha`:
/// v <- alpha * v + (1 - alpha) * sample. First sample initializes.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {
    assert(alpha >= 0.0 && alpha < 1.0);
  }
  void add(double x) {
    value_ = seeded_ ? alpha_ * value_ + (1.0 - alpha_) * x : x;
    seeded_ = true;
  }
  bool seeded() const noexcept { return seeded_; }
  double value() const noexcept { return value_; }
  double alpha() const noexcept { return alpha_; }
  void reset() noexcept { seeded_ = false; value_ = 0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Moving average over the last `window` samples.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window) : window_(window) {
    assert(window > 0);
  }
  void add(double x) {
    buf_.push_back(x);
    sum_ += x;
    if (buf_.size() > window_) {
      sum_ -= buf_.front();
      buf_.pop_front();
    }
  }
  bool full() const noexcept { return buf_.size() == window_; }
  std::size_t count() const noexcept { return buf_.size(); }
  double value() const noexcept {
    return buf_.empty() ? 0.0 : sum_ / static_cast<double>(buf_.size());
  }

 private:
  std::size_t window_;
  std::deque<double> buf_;
  double sum_ = 0.0;
};

}  // namespace pert::stats
