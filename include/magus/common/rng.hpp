#pragma once
// Deterministic, fast RNG used for workload jitter and the repetition
// protocol. SplitMix64 keeps experiments bit-reproducible across platforms
// (std::mt19937 distributions are not guaranteed identical across stdlibs).

#include <cmath>
#include <cstdint>

namespace magus::common {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit value (SplitMix64).
  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    return n == 0 ? 0 : next_u64() % n;
  }

  /// Standard normal via Box-Muller: one value per call, which advances the
  /// stream by two raw draws (the pair's second normal is discarded).
  double normal() noexcept {
    double u1 = uniform();
    const double u2 = uniform();
    if (u1 <= 1e-300) u1 = 1e-300;
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Multiplicative jitter: 1 + N(0, rel) clamped to [1-3rel, 1+3rel].
  double jitter(double rel) noexcept {
    if (rel <= 0.0) return 1.0;
    double j = 1.0 + normal(0.0, rel);
    const double lo = 1.0 - 3.0 * rel;
    const double hi = 1.0 + 3.0 * rel;
    if (j < lo) j = lo;
    if (j > hi) j = hi;
    return j;
  }

  /// Derive an independent child stream (for per-repetition seeding).
  /// Does not advance this Rng's state, so forking is order-independent and
  /// safe to do concurrently from several threads.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept {
    Rng child(state_ ^ (0xA24BAED4963EE407ull + stream * 0x9FB21C651E98DF25ull));
    child.next_u64();
    return child;
  }

 private:
  std::uint64_t state_;
};

}  // namespace magus::common
