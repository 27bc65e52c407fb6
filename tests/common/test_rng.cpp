// Deterministic RNG: repetition seeds must be reproducible bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "magus/common/rng.hpp"
#include "magus/sim/kernel.hpp"

namespace mc = magus::common;

TEST(Rng, DeterministicForSameSeed) {
  mc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  mc::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  mc::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  mc::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.5);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  mc::Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  mc::Rng rng(12);
  double acc = 0.0, acc2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    acc += x;
    acc2 += x * x;
  }
  const double mean = acc / n;
  const double var = acc2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, JitterIsClampedToThreeSigma) {
  mc::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double j = rng.jitter(0.05);
    EXPECT_GE(j, 1.0 - 0.15);
    EXPECT_LE(j, 1.0 + 0.15);
  }
}

TEST(Rng, JitterZeroRelIsIdentity) {
  mc::Rng rng(14);
  EXPECT_DOUBLE_EQ(rng.jitter(0.0), 1.0);
  EXPECT_DOUBLE_EQ(rng.jitter(-1.0), 1.0);
}

TEST(Rng, ForkProducesIndependentStreams) {
  mc::Rng base(7);
  mc::Rng c0 = base.fork(0);
  mc::Rng c1 = base.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c0.next_u64() == c1.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  mc::Rng a(7), b(7);
  mc::Rng fa = a.fork(3);
  mc::Rng fb = b.fork(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, UniformIndexBounds) {
  mc::Rng rng(15);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

// --- The certified table cosine in the jitter draw -------------------------

namespace {

/// Rng::jitter's body before the table cosine, on its two raw uniforms:
/// 1 + normal(0, rel) clamped, normal() a Box-Muller on std::cos.
double libm_jitter(double u1, double u2, double rel) {
  if (u1 <= 1e-300) u1 = 1e-300;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  double j = 1.0 + (0.0 + rel * z);
  const double lo = 1.0 - 3.0 * rel;
  const double hi = 1.0 + 3.0 * rel;
  if (j < lo) j = lo;
  if (j > hi) j = hi;
  return j;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// True when jitter_draw cannot certify the table cosine and recomputes
/// with std::cos (mirrors its rounding test).
bool takes_fallback(double u1, double u2, double rel) {
  const double r = std::sqrt(-2.0 * std::log(u1 <= 1e-300 ? 1e-300 : u1));
  const double c = mc::table_cos(mc::kTwoPi * u2);
  return mc::jitter_from_cos(r, c - mc::kTableCosDelta, rel) !=
         mc::jitter_from_cos(r, c + mc::kTableCosDelta, rel);
}

constexpr double kNoiseRel = magus::sim::kern::kTrafficNoiseRel;
const std::vector<double> kRels = {kNoiseRel, 0.02, 0.05, 0.3, 1e-12,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::infinity()};
constexpr int kSeeds = 20;
constexpr int kDrawsPerSeed = 500'000;  // 10^7 draws in all

/// Calls fn(u2) for u2 within 1000 ulps of every knot k/256 (the quadrant
/// points are knots 0, 64, 128 and 192) and of every cell edge
/// (k + 1/2)/256, where the table index steps; u2 stays in [0, 1).
template <class Fn>
void for_each_targeted_u2(Fn&& fn) {
  for (int m = 0; m <= 512; ++m) {
    double u = m / 512.0;
    for (int i = 0; i < 1000 && u > 0.0; ++i) u = std::nextafter(u, 0.0);
    for (int i = 0; i <= 2000 && u < 1.0; ++i, u = std::nextafter(u, 1.0)) fn(u);
  }
}

/// u1 near 1 (r near 0) and around the 1e-300 clamp.
std::vector<double> edge_u1() {
  std::vector<double> out = {0.0, std::numeric_limits<double>::denorm_min(),
                             std::nextafter(1e-300, 0.0), 1e-300,
                             std::nextafter(1e-300, 1.0)};
  for (int k = 1; k <= 1000; ++k) out.push_back(1.0 - k * 0x1p-53);
  return out;
}

}  // namespace

TEST(Rng, JitterMatchesLibmReference) {
  std::uint64_t mismatches = 0;
  std::uint64_t draws = 0;
  std::uint64_t fallbacks = 0;
  auto check = [&](double u1, double u2, double rel) {
    mismatches += bits(mc::jitter_draw(u1, u2, rel)) != bits(libm_jitter(u1, u2, rel));
  };

  // Random draws, through Rng::jitter itself at the traffic-noise rel.
  for (int s = 0; s < kSeeds; ++s) {
    mc::Rng rng(9000 + static_cast<std::uint64_t>(s));
    mc::Rng raw(9000 + static_cast<std::uint64_t>(s));
    for (int i = 0; i < kDrawsPerSeed; ++i, ++draws) {
      const double u1 = raw.uniform();
      const double u2 = raw.uniform();
      mismatches += bits(rng.jitter(kNoiseRel)) != bits(libm_jitter(u1, u2, kNoiseRel));
      fallbacks += takes_fallback(u1, u2, kNoiseRel);
      for (double rel : kRels) check(u1, u2, rel);
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The fallback is taken, and rarely: at the traffic-noise rel the table
  // cosine settles all but ~1.4 % of draws.
  const double fallback_rate = static_cast<double>(fallbacks) / static_cast<double>(draws);
  RecordProperty("fallback_rate_ppm", static_cast<int>(fallback_rate * 1e6));
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallback_rate, 0.05);

  // Targeted cosine arguments, each with a u1 from a seeded stream.
  mc::Rng u1_stream(77);
  for_each_targeted_u2([&](double u2) {
    const double u1 = u1_stream.uniform();
    for (double rel : kRels) check(u1, u2, rel);
  });
  // Edge u1 against a spread of u2.
  for (double u1 : edge_u1()) {
    mc::Rng u2_stream(78);
    for (int i = 0; i < 1000; ++i) {
      const double u2 = u2_stream.uniform();
      for (double rel : kRels) check(u1, u2, rel);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // NaN rel can never be certified; it must still come out as libm's NaN.
  EXPECT_TRUE(takes_fallback(0.5, 0.3, std::numeric_limits<double>::quiet_NaN()));
}

TEST(Rng, FastCosMargin) {
  // The certificate needs |table_cos - std::cos| + libm's own error +
  // endpoint rounding <= kTableCosDelta; demand the measured gap keep half
  // of it, so a table or polynomial edit that eats the margin fails here.
  double worst = 0.0;
  auto check = [&](double u2) {
    const double x = mc::kTwoPi * u2;
    worst = std::max(worst, std::fabs(mc::table_cos(x) - std::cos(x)));
  };
  for (int s = 0; s < kSeeds; ++s) {
    mc::Rng rng(9000 + static_cast<std::uint64_t>(s));
    for (int i = 0; i < kDrawsPerSeed; ++i) {
      (void)rng.uniform();
      check(rng.uniform());
    }
  }
  for_each_targeted_u2(check);
  RecordProperty("max_abs_error_1e-18", static_cast<int>(worst * 1e18));
  EXPECT_LE(worst, mc::kTableCosDelta / 2) << "max |table_cos - std::cos| = " << worst;
}
