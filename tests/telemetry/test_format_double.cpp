// Property test for telemetry::format_double: byte identity against the
// definition the wire format was built on -- the first %.{p}g string, p = 1..17,
// that strtod parses back to the same double without ERANGE (17 digits when
// none does). Every rollup, event line and /metrics sample goes through the
// formatter, so one differing byte would move the fleet goldens.

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <limits>
#include <string>

#include "magus/telemetry/registry.hpp"
#include "prop.hpp"

namespace mt = magus::telemetry;

namespace {

/// The reference: the formatter's original %.{p}g + strtod loop.
std::string reference_format(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0.0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int prec = 1; prec <= DBL_DECIMAL_DIG; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    errno = 0;
    const double back = std::strtod(buf, nullptr);
    if (errno != ERANGE && back == v) return buf;
  }
  return buf;
}

/// Significant digits of a %g or scientific string: mantissa digits with
/// leading zeros dropped ("0.00120" -> 3, "1.5e-07" -> 2).
int significant_digits(const std::string& s) {
  int digits = 0;
  bool leading = true;
  for (char c : s) {
    if (c == 'e') break;
    if (c < '0' || c > '9') continue;
    if (c != '0') leading = false;
    if (!leading) ++digits;
  }
  return digits == 0 ? 1 : digits;
}

double from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// Checks `n` generated values; returns how many needed more digits than
/// the shortest round-trip form (the binade-edge case the loop exists for).
template <class Next>
int expect_identical(int n, Next next) {
  int longer_than_shortest = 0;
  for (int i = 0; i < n; ++i) {
    const double v = next();
    const std::string want = reference_format(v);
    const std::string got = mt::format_double(v);
    EXPECT_EQ(got, want) << "case " << i << ", value " << std::hexfloat << v;
    if (got != want) return longer_than_shortest;
    if (std::isfinite(v)) {
      char sci[64];
      char* end = std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific).ptr;
      if (significant_digits(want) > significant_digits(std::string(sci, end))) {
        ++longer_than_shortest;
      }
    }
  }
  return longer_than_shortest;
}

}  // namespace

// Random bit patterns span every exponent (NaN, inf and subnormals
// included); two seeds so ctest can run the halves in parallel.
TEST(FormatDouble, MatchesReferenceOnRandomBitPatterns) {
  magus::test::Gen gen(0xF0A7D0B1E5ull);
  expect_identical(200'000, [&] { return from_bits(gen.u64()); });
}

TEST(FormatDouble, MatchesReferenceOnMoreRandomBitPatterns) {
  magus::test::Gen gen(0x7E57B175ull);
  expect_identical(200'000, [&] { return from_bits(gen.u64()); });
}

TEST(FormatDouble, MatchesReferenceOnDecimalLookingValues) {
  // mantissa * 10^exp parsed from text: the short strings real metrics
  // produce (0.25, 1.5e-3, 2400), at every digit count 1..17.
  magus::test::Gen gen(0xDEC1AA1ull);
  expect_identical(300'000, [&] {
    const int digits = gen.int_in(1, 17);
    std::uint64_t mantissa = 0;
    for (int d = 0; d < digits; ++d) mantissa = mantissa * 10 + gen.u64() % 10;
    char text[64];
    std::snprintf(text, sizeof text, "%s%llue%d", gen.u64() % 2 ? "-" : "",
                  static_cast<unsigned long long>(mantissa), gen.int_in(-320, 300));
    return std::strtod(text, nullptr);
  });
}

TEST(FormatDouble, MatchesReferenceOnIntegers) {
  magus::test::Gen gen(0x1A7E6E5ull);
  expect_identical(200'000, [&] {
    const std::uint64_t raw = gen.u64();
    // Half small counters, half anywhere in the int64 range.
    const auto i = static_cast<std::int64_t>(gen.u64() % 2 ? raw % 100'000 : raw);
    return static_cast<double>(i);
  });
}

TEST(FormatDouble, MatchesReferenceOnSubnormalsAndBinadeEdges) {
  magus::test::Gen gen(0x5B40A11ull);
  for (double v : {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
                   -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), DBL_EPSILON, 1.0, -1.0,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(mt::format_double(v), reference_format(v));
  }
  // Subnormals: the 17-digit form, whatever their value.
  expect_identical(100'000, [&] {
    const std::uint64_t mantissa = gen.u64() & ((1ull << 52) - 1);
    return from_bits((gen.u64() & (1ull << 63)) | (mantissa == 0 ? 1 : mantissa));
  });
  // Powers of two and their neighbours: the lower rounding interval is half
  // the upper one there, so the correctly rounded shortest-length string can
  // miss and the formatter must take one more digit.
  int longer = 0;
  for (int e = -1022; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL), -p}) {
      longer += expect_identical(1, [v] { return v; });
    }
  }
  EXPECT_GT(longer, 0) << "no binade-edge case needed the extra digit";
}
