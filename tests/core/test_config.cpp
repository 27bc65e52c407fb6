// MagusConfig validation: the runtime must reject configurations that make
// the algorithms meaningless before touching any hardware.

#include <gtest/gtest.h>

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/config.hpp"

namespace mc = magus::core;
using magus::common::Mbps;
using magus::common::Seconds;

TEST(MagusConfig, PaperDefaults) {
  const mc::MagusConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.inc_threshold.value(), 200.0);
  EXPECT_DOUBLE_EQ(cfg.dec_threshold.value(), 500.0);
  EXPECT_DOUBLE_EQ(cfg.high_freq_threshold, 0.4);
  EXPECT_DOUBLE_EQ(cfg.period.value(), 0.2);
  EXPECT_TRUE(cfg.scaling_enabled);
  EXPECT_TRUE(cfg.high_freq_detection_enabled);
  EXPECT_NO_THROW(cfg.validate());
  // Algorithm 3's fixed shape: a 10-slot uncore_tune_ls, 10 warm-up cycles.
  EXPECT_EQ(mc::kTuneWindow, 10);
  EXPECT_EQ(mc::kWarmupCycles, 10);
}

namespace {
mc::MagusConfig mutate(void (*f)(mc::MagusConfig&)) {
  mc::MagusConfig cfg;
  f(cfg);
  return cfg;
}
}  // namespace

TEST(MagusConfig, RejectsNegativeThresholds) {
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.inc_threshold = Mbps(-1.0); }).validate(),
               magus::common::ConfigError);
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.dec_threshold = Mbps(-0.1); }).validate(),
               magus::common::ConfigError);
}

TEST(MagusConfig, RejectsHighFreqOutsideUnitInterval) {
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.high_freq_threshold = -0.1; }).validate(),
               magus::common::ConfigError);
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.high_freq_threshold = 1.1; }).validate(),
               magus::common::ConfigError);
  EXPECT_NO_THROW(mutate([](mc::MagusConfig& c) { c.high_freq_threshold = 1.0; }).validate());
}

TEST(MagusConfig, RejectsDegenerateWindows) {
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.direv_length = 1; }).validate(),
               magus::common::ConfigError);
}

TEST(MagusConfig, RejectsNonPositivePeriod) {
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.period = Seconds(0.0); }).validate(),
               magus::common::ConfigError);
  EXPECT_THROW(mutate([](mc::MagusConfig& c) { c.period = Seconds(-0.2); }).validate(),
               magus::common::ConfigError);
}

// Any threshold set from the paper's Fig. 7 sweep grid must validate.
class SweepGridValidity
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SweepGridValidity, Validates) {
  mc::MagusConfig cfg;
  cfg.inc_threshold = Mbps(std::get<0>(GetParam()));
  cfg.dec_threshold = Mbps(std::get<1>(GetParam()));
  cfg.high_freq_threshold = std::get<2>(GetParam());
  EXPECT_NO_THROW(cfg.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Grid, SweepGridValidity,
    ::testing::Combine(::testing::Values(100.0, 200.0, 300.0, 500.0, 1000.0),
                       ::testing::Values(200.0, 500.0, 1000.0, 2000.0),
                       ::testing::Values(0.2, 0.4, 0.6, 0.8)));
