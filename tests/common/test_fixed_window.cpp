// FixedWindow is the data structure behind Algorithm 3's two FIFO queues;
// its eviction and pre-fill semantics must match the paper exactly.

#include <gtest/gtest.h>

#include <stdexcept>

#include "magus/common/fixed_window.hpp"

namespace mc = magus::common;

TEST(FixedWindow, StartsEmpty) {
  mc::FixedWindow<double> w(4);
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.full());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.capacity(), 4u);
}

TEST(FixedWindow, ZeroCapacityRejected) {
  EXPECT_THROW(mc::FixedWindow<int>(0), std::invalid_argument);
}

TEST(FixedWindow, PrefilledConstructorMatchesPaperSeeding) {
  // Algorithm 3 initialises uncore_tune_ls as a list of 10 zeros.
  mc::FixedWindow<int> w(10, 0);
  EXPECT_TRUE(w.full());
  EXPECT_EQ(w.sum(), 0);
  EXPECT_EQ(w.size(), 10u);
}

TEST(FixedWindow, PushBelowCapacityGrows) {
  mc::FixedWindow<int> w(3);
  w.push(1);
  w.push(2);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.oldest(), 1);
  EXPECT_EQ(w.newest(), 2);
}

TEST(FixedWindow, PushAtCapacityEvictsOldest) {
  mc::FixedWindow<int> w(3);
  w.push(1);
  w.push(2);
  w.push(3);
  w.push(4);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.oldest(), 2);
  EXPECT_EQ(w.newest(), 4);
}

TEST(FixedWindow, IndexZeroIsOldest) {
  mc::FixedWindow<int> w(3);
  w.push(10);
  w.push(20);
  w.push(30);
  w.push(40);
  EXPECT_EQ(w[0], 20);
  EXPECT_EQ(w[1], 30);
  EXPECT_EQ(w[2], 40);
}

TEST(FixedWindow, SumAndMean) {
  mc::FixedWindow<double> w(4);
  w.push(1.0);
  w.push(2.0);
  w.push(3.0);
  EXPECT_DOUBLE_EQ(w.sum(), 6.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
}

TEST(FixedWindow, MeanOfEmptyIsZero) {
  mc::FixedWindow<double> w(4);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(FixedWindow, AccessorsThrowWhenEmpty) {
  mc::FixedWindow<int> w(2);
  EXPECT_THROW((void)w.oldest(), std::out_of_range);
  EXPECT_THROW((void)w.newest(), std::out_of_range);
}

TEST(FixedWindow, FillResetsToCapacityCopies) {
  mc::FixedWindow<int> w(3);
  w.push(7);
  w.fill(1);
  EXPECT_TRUE(w.full());
  EXPECT_EQ(w.sum(), 3);
}

TEST(FixedWindow, ClearEmpties) {
  mc::FixedWindow<int> w(3, 5);
  w.clear();
  EXPECT_TRUE(w.empty());
}

TEST(FixedWindow, IterationIsOldestToNewest) {
  mc::FixedWindow<int> w(3);
  for (int i = 1; i <= 5; ++i) w.push(i);
  int expect = 3;
  for (int v : w) EXPECT_EQ(v, expect++);
}

TEST(FixedWindow, SumAddsOldestToNewestAfterWrap) {
  // Window [1e16, 1, -1e16] sits in the ring as [-1e16, 1e16, 1]. Summed
  // oldest first, the 1 is absorbed by 1e16 (ulp 2) and the total is 0;
  // summed in storage order it would survive as 1.
  mc::FixedWindow<double> w(3);
  for (double v : {5.0, 1e16, 1.0, -1e16}) w.push(v);
  EXPECT_EQ(w.oldest(), 1e16);
  EXPECT_EQ(w.newest(), -1e16);
  EXPECT_EQ(w.sum(), 0.0);
}

TEST(FixedWindow, ClearAndFillResetTheRingOffset) {
  mc::FixedWindow<int> w(3);
  for (int i = 1; i <= 4; ++i) w.push(i);
  w.clear();
  w.push(7);
  w.push(8);
  EXPECT_EQ(w.oldest(), 7);
  EXPECT_EQ(w[1], 8);
  for (int i = 1; i <= 5; ++i) w.push(i);
  w.fill(0);
  w.push(9);
  EXPECT_EQ(w[0], 0);
  EXPECT_EQ(w.newest(), 9);
  EXPECT_EQ(w.sum(), 9);
}

// Property: after pushing N >= capacity values 0..N-1, the window holds
// exactly the last `capacity` values in order.
class FixedWindowSlide : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FixedWindowSlide, HoldsMostRecentValues) {
  const auto [cap, pushes] = GetParam();
  mc::FixedWindow<int> w(static_cast<std::size_t>(cap));
  for (int i = 0; i < pushes; ++i) w.push(i);
  const int expected_size = std::min(cap, pushes);
  ASSERT_EQ(w.size(), static_cast<std::size_t>(expected_size));
  for (int i = 0; i < expected_size; ++i) {
    EXPECT_EQ(w[static_cast<std::size_t>(i)], pushes - expected_size + i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedWindowSlide,
                         ::testing::Combine(::testing::Values(1, 2, 3, 10, 64),
                                            ::testing::Values(0, 1, 5, 10, 100)));
