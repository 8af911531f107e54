// Per-feature running normalization (Welford mean/variance), used to map raw
// network statistics into a scale-free state vector — the "normalize these
// statistics ... to achieve better generalization" step of Sec. 4.2.
#pragma once

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "rl/matrix.h"

namespace libra {

class RunningNormalizer {
 public:
  explicit RunningNormalizer(std::size_t dim)
      : mean_(dim, 0.0), m2_(dim, 0.0) {
    if (dim == 0) throw std::invalid_argument("RunningNormalizer: dim must be > 0");
  }

  void update(const Vector& sample) {
    if (sample.size() != mean_.size())
      throw std::invalid_argument("RunningNormalizer: dim mismatch");
    ++n_;
    for (std::size_t i = 0; i < mean_.size(); ++i) {
      double delta = sample[i] - mean_[i];
      mean_[i] += delta / static_cast<double>(n_);
      m2_[i] += delta * (sample[i] - mean_[i]);
    }
  }

  /// (x - mean) / std, clipped to [-clip, clip] for stability. In delta-
  /// collection mode the statistics frozen by begin_delta_collection() are
  /// used, so concurrent episodes normalize identically regardless of what
  /// they accumulate locally.
  Vector normalize(const Vector& sample, double clip = 10.0) const {
    Vector out(sample.size());
    normalize_into(sample, out.data(), clip);
    return out;
  }

  /// normalize() into a caller-owned buffer.
  void normalize_into(const Vector& sample, double* out,
                      double clip = 10.0) const {
    if (sample.size() != mean_.size())
      throw std::invalid_argument("RunningNormalizer: dim mismatch");
    const Vector& mean = delta_mode_ ? ref_mean_ : mean_;
    const Vector& m2 = delta_mode_ ? ref_m2_ : m2_;
    const std::size_t n = delta_mode_ ? ref_n_ : n_;
    if (simd::use_avx2()) {
      // Exact IEEE ops only — bitwise identical to the scalar loop below.
      simd::normalize_into_avx2(sample.data(), mean.data(), m2.data(), n, clip,
                                out, sample.size());
      return;
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
      double var = n > 1 ? m2[i] / static_cast<double>(n - 1) : 1.0;
      double sd = std::sqrt(var);
      double z = sd > 1e-9 ? (sample[i] - mean[i]) / sd : 0.0;
      out[i] = std::clamp(z, -clip, clip);
    }
  }

  /// Enters rollout-collection mode: the current statistics become a frozen
  /// reference for normalize(), while update() starts accumulating into a
  /// fresh delta. take_delta() hands that delta back for ordered merging into
  /// the master normalizer (parallel rollout collection).
  void begin_delta_collection() {
    ref_mean_ = mean_;
    ref_m2_ = m2_;
    ref_n_ = n_;
    std::fill(mean_.begin(), mean_.end(), 0.0);
    std::fill(m2_.begin(), m2_.end(), 0.0);
    n_ = 0;
    delta_mode_ = true;
  }

  /// The statistics accumulated since begin_delta_collection(), as a
  /// standalone normalizer suitable for merge().
  RunningNormalizer take_delta() const {
    RunningNormalizer d(mean_.size());
    d.mean_ = mean_;
    d.m2_ = m2_;
    d.n_ = n_;
    return d;
  }

  /// Parallel Welford combine (Chan et al.): merges `other`'s accumulated
  /// statistics into this one. Deterministic: merging episode deltas in
  /// episode order yields the same state at any thread count.
  void merge(const RunningNormalizer& other) {
    if (other.dim() != dim())
      throw std::invalid_argument("RunningNormalizer::merge: dim mismatch");
    if (other.n_ == 0) return;
    if (n_ == 0) {
      mean_ = other.mean_;
      m2_ = other.m2_;
      n_ = other.n_;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double nab = na + nb;
    for (std::size_t i = 0; i < mean_.size(); ++i) {
      double delta = other.mean_[i] - mean_[i];
      mean_[i] += delta * nb / nab;
      m2_[i] += other.m2_[i] + delta * delta * na * nb / nab;
    }
    n_ += other.n_;
  }

  std::size_t count() const { return n_; }
  std::size_t dim() const { return mean_.size(); }

  /// Mean absolute per-feature mean — telemetry scalar summarizing where the
  /// input distribution sits (0 means centred features).
  double mean_abs() const {
    double acc = 0;
    for (double m : mean_) acc += std::abs(m);
    return acc / static_cast<double>(mean_.size());
  }

  /// Mean per-feature standard deviation — telemetry scalar for input scale.
  double mean_std() const {
    if (n_ < 2) return 0.0;
    double acc = 0;
    for (double v : m2_) acc += std::sqrt(v / static_cast<double>(n_ - 1));
    return acc / static_cast<double>(m2_.size());
  }

  void save(std::ostream& out) const {
    out.precision(17);
    out << n_;
    for (double m : mean_) out << ' ' << m;
    for (double v : m2_) out << ' ' << v;
    out << '\n';
  }
  void load(std::istream& in) {
    in >> n_;
    for (double& m : mean_) in >> m;
    for (double& v : m2_) in >> v;
    if (!in) throw std::runtime_error("RunningNormalizer::load: truncated stream");
  }

 private:
  Vector mean_, m2_;
  std::size_t n_ = 0;
  // Delta-collection mode (parallel rollout collection): frozen reference
  // stats for normalize() while mean_/m2_/n_ accumulate the episode's delta.
  bool delta_mode_ = false;
  Vector ref_mean_, ref_m2_;
  std::size_t ref_n_ = 0;
};

}  // namespace libra
