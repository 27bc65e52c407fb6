#pragma once
// Deterministic, fast RNG used for workload jitter and the repetition
// protocol. SplitMix64 keeps experiments bit-reproducible across platforms
// (std::mt19937 distributions are not guaranteed identical across stdlibs).

#include <cmath>
#include <cstdint>

#include "magus/common/cos_knots.hpp"

namespace magus::common {

inline constexpr double kTwoPi = 6.283185307179586476925286766559;

/// cos(x) for x in [0, 2*pi] from the 256 knots of detail::kCosKnots:
/// x = n*h + t with h = 2*pi/256 and |t| <= h/2, then
/// cos x = C[n] + (C[n] (cos t - 1) - S[n] sin t) with the Taylor
/// polynomials of degree 6 and 5 in t. Within 1.3e-16 of cos(x) (see
/// kTableCosDelta), about one ulp: good enough to certify the jitter draw's
/// rounding, not to replace std::cos anywhere else.
inline double table_cos(double x) noexcept {
  // h split Cody-Waite style: kStepHi has 40 significant bits, so n*kStepHi
  // is exact for n <= 256 and x - n*kStepHi is exact (Sterbenz).
  constexpr double kStepHi = 0x1.921fb54442000p-6;
  constexpr double kStepLo = 0x1.a308d313198a3p-47;
  constexpr double kKnotsPerRadian = 0x1.45f306dc9c883p+5;
  const auto n = static_cast<unsigned>(x * kKnotsPerRadian + 0.5);
  const double nd = static_cast<double>(n);
  const double t = (x - nd * kStepHi) - nd * kStepLo;
  const double t2 = t * t;
  const double cos_m1 = t2 * (-0.5 + t2 * (1.0 / 24.0 + t2 * (-1.0 / 720.0)));
  const double sin_t = t + t * t2 * (-1.0 / 6.0 + t2 * (1.0 / 120.0));
  const double c = detail::kCosKnots[n & 255u];
  const double s = detail::kCosKnots[(n - 64u) & 255u];
  return c + (c * cos_m1 - s * sin_t);
}

/// Half-width of the interval around table_cos(x) that is certain to hold
/// std::cos(x). Its budget (absolute, |cos| <= 1):
///   - table_cos error <= 1.3e-16: knot rounding 0.5 ulp (5.6e-17), final
///     add 0.5 ulp (5.6e-17), correction-term truncation and rounding
///     (1.5e-17), step-split error (< 1e-18); 1.9e-16 were the knots only
///     1-ulp accurate;
///   - glibc's documented <= 1-ulp cos error: 1.1e-16;
///   - rounding of c - delta and c + delta toward c: 5.6e-17 (an endpoint
///     past +-1 bounds the libm value anyway).
/// Sum 3.0e-16 (3.6e-16 at 1-ulp knots), under 4e-16. Rng.FastCosMargin
/// checks the measured table-vs-libm gap stays under half of it.
inline constexpr double kTableCosDelta = 4e-16;

/// The multiplicative-jitter arithmetic past the cosine: 1 + rel * (r * c)
/// clamped to [1 - 3 rel, 1 + 3 rel], rounded exactly as Rng::normal
/// composed with the clamp always did. Monotone non-decreasing in c for
/// r >= 0 and rel > 0.
inline double jitter_from_cos(double r, double c, double rel) noexcept {
  double j = 1.0 + (0.0 + rel * (r * c));
  const double lo = 1.0 - 3.0 * rel;
  const double hi = 1.0 + 3.0 * rel;
  if (j < lo) j = lo;
  if (j > hi) j = hi;
  return j;
}

/// The traffic-jitter draw on its two raw uniforms: Box-Muller
/// z = sqrt(-2 ln u1) cos(2 pi u2), then jitter_from_cos. Bit-identical to
/// evaluating it with std::cos, by Ziv's rounding test: the cosine comes
/// from table_cos, and when the jitter at c - delta and at c + delta agree,
/// monotonicity pins libm's result to that same value; otherwise (about 1.4 %
/// of draws at kern::kTrafficNoiseRel, and always for a NaN rel) it is
/// recomputed with std::cos.
inline double jitter_draw(double u1, double u2, double rel) noexcept {
  if (u1 <= 1e-300) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double x = kTwoPi * u2;
  const double c = table_cos(x);
  const double below = jitter_from_cos(r, c - kTableCosDelta, rel);
  const double above = jitter_from_cos(r, c + kTableCosDelta, rel);
  if (below == above) return below;
  return jitter_from_cos(r, std::cos(x), rel);
}

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
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Multiplicative jitter: 1 + N(0, rel) clamped to [1-3rel, 1+3rel]; the
  /// same two raw draws and the same bits as 1 + normal(0, rel) clamped.
  double jitter(double rel) noexcept {
    if (rel <= 0.0) return 1.0;
    const double u1 = uniform();
    const double u2 = uniform();
    return jitter_draw(u1, u2, rel);
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
