// Shared helpers of the benchmark: its own seeded RNG (so the op streams
// are fixed by the benchmark, not by the library's arch/rng.hpp), the
// percentile rule, and the clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64's finalizer: a bijection on 64-bit words, so distinct inputs
// always give distinct outputs (the dht generators rely on this for
// collision-free random-looking keys).
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// splitmix64 stream: small state, good enough for workload generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed ^ 0x6a09e667f3bcc909ULL)) {}

  std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ULL); }

  // Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Percentile p (0..100) of `v` by linear interpolation between the closest
// order statistics (numpy's default rule): position p/100 * (n - 1).
// Sorts `v` in place; returns 0 for an empty sample.
template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

template <typename T>
double median(std::vector<T> v) {
  return percentile(v, 50);
}

}  // namespace perfbench
