#include <gtest/gtest.h>

#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/parse.hpp"

namespace mc = magus::common;

TEST(Parse, ParseIntAcceptsPlainIntegers) {
  EXPECT_EQ(mc::parse_int("0"), 0);
  EXPECT_EQ(mc::parse_int("40"), 40);
  EXPECT_EQ(mc::parse_int("-3"), -3);
}

TEST(Parse, ParseIntRejectsGarbage) {
  EXPECT_THROW((void)mc::parse_int(""), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("abc"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("12x"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("1.5"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("99999999999999999999"), mc::ConfigError);
}

TEST(Parse, ParseIntErrorNamesToken) {
  try {
    (void)mc::parse_int("12x");
    FAIL() << "expected ConfigError";
  } catch (const mc::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("12x"), std::string::npos);
  }
}

TEST(Parse, ParseIntListSplitsOnCommas) {
  EXPECT_EQ(mc::parse_int_list("0"), (std::vector<int>{0}));
  EXPECT_EQ(mc::parse_int_list("0,40"), (std::vector<int>{0, 40}));
  EXPECT_EQ(mc::parse_int_list("1,2,3"), (std::vector<int>{1, 2, 3}));
}

TEST(Parse, ParseIntListRejectsEmptyTokens) {
  EXPECT_THROW((void)mc::parse_int_list(""), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,,1"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,40,"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list(",0"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,x"), mc::ConfigError);
}

TEST(Parse, ParseIntListWhitespaceTokens) {
  // std::stoi skips leading whitespace, so "0, 40" parses; trailing
  // whitespace inside a token is trailing garbage and must be rejected, as
  // must a token that is nothing but whitespace.
  EXPECT_EQ(mc::parse_int_list("0, 40"), (std::vector<int>{0, 40}));
  EXPECT_THROW((void)mc::parse_int_list("0 ,40"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0, ,40"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list(" "), mc::ConfigError);
}

TEST(Parse, ParseIntListIntLimits) {
  EXPECT_EQ(mc::parse_int_list("2147483647"), (std::vector<int>{2147483647}));
  EXPECT_EQ(mc::parse_int_list("-2147483648,0"),
            (std::vector<int>{-2147483648, 0}));
  // One past INT_MAX overflows std::stoi and must surface as ConfigError,
  // not a bare std::out_of_range.
  EXPECT_THROW((void)mc::parse_int_list("2147483648"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,99999999999999999999"), mc::ConfigError);
}

TEST(Parse, ParseIntListLongLists) {
  EXPECT_EQ(mc::parse_int_list("1,-2,3,-4,5"), (std::vector<int>{1, -2, 3, -4, 5}));
}

TEST(Parse, ParseU64IsDigitsOnly) {
  EXPECT_EQ(mc::parse_u64("0"), 0u);
  EXPECT_EQ(mc::parse_u64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "12x", "18446744073709551616"}) {
    EXPECT_THROW((void)mc::parse_u64(bad), mc::ConfigError) << bad;
  }
}

TEST(Parse, ParseFiniteDoubleRejectsNonFinite) {
  EXPECT_EQ(mc::parse_finite_double("1.5"), 1.5);
  EXPECT_EQ(mc::parse_finite_double("-2e3"), -2000.0);
  for (const char* bad : {"", "x", "1.5x", " 1", "nan", "inf", "-inf", "1e400"}) {
    EXPECT_THROW((void)mc::parse_finite_double(bad), mc::ConfigError) << bad;
  }
}

TEST(Parse, ParseIntInRangeChecksIntegralAndBounds) {
  EXPECT_EQ(mc::parse_int_in_range("16", 1, 64), 16);
  EXPECT_EQ(mc::parse_int_in_range("1.6e1", 1, 64), 16);
  EXPECT_EQ(mc::parse_int_in_range("-3", -5, 5), -3);
  for (const char* bad : {"0", "65", "2.5", "1e300", "-1e300", "nan", ""}) {
    EXPECT_THROW((void)mc::parse_int_in_range(bad, 1, 64), mc::ConfigError) << bad;
  }
}
