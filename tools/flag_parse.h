// Strict numeric flag values for the command-line tools: the whole string
// must be a number in [lo, hi]; "abc", "3x", "", " 3", "+3" and out-of-range
// values fail. A tool that gets `false` back prints its usage and exits 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "util/types.h"

namespace libra {

template <typename Int>
bool parse_int(const char* s, Int lo, Int hi, Int& out) {
  const bool neg_ok = std::is_signed_v<Int> && *s == '-';
  if (!std::isdigit(static_cast<unsigned char>(*s)) && !neg_ok) return false;
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_signed_v<Int>) {
    const long long v = std::strtoll(s, &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
    out = static_cast<Int>(v);
  } else {
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
    out = static_cast<Int>(v);
  }
  return true;
}

inline bool parse_real(const char* s, double lo, double hi, double& out) {
  if (!std::isdigit(static_cast<unsigned char>(*s)) && *s != '-' && *s != '.')
    return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v < lo || v > hi)
    return false;
  out = v;
  return true;
}

/// A run length given in seconds: a positive number, rounded to whole
/// microseconds (seconds() truncates, turning 2.01 into 2 009 999 us), that
/// is a whole multiple of `grid`.
inline bool parse_duration(const char* s, SimDuration grid, SimDuration& out) {
  double secs = 0;
  if (!parse_real(s, 0, 9e12, secs)) return false;
  const auto d = static_cast<SimDuration>(std::llround(secs * 1e6));
  if (d <= 0 || d % grid != 0) return false;
  out = d;
  return true;
}

}  // namespace libra
