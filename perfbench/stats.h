// Small numeric helpers shared by the workloads: order statistics over
// timing samples and a deterministic digest of simulated results.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) with linear interpolation between closest ranks,
/// the "linear" method of numpy and Python's statistics.quantiles(...,
/// method="inclusive"). Defined for any non-empty sample: one value is every
/// quantile of itself.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile: q outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// FNV-1a over the exact bit patterns fed to it: two digests match only when
/// every simulated quantity matched bit for bit.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace perfbench
