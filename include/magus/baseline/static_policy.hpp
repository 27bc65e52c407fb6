#pragma once
// Trivial comparison policies.
//
// DefaultPolicy is the paper's baseline: no runtime at all -- uncore scaling
// is left to the stock firmware (which only reacts near TDP; the simulator's
// kern::firmware_update reproduces that). StaticUncorePolicy pins the uncore
// once at launch; its min/max instantiations are the two ends of Fig. 2.

#include "magus/baseline/constants.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

/// Stock vendor behaviour: does nothing from software.
class DefaultPolicy final : public core::IPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "default"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }
  void on_sample(common::Seconds now) override { (void)now; }
};

/// Pin the uncore max limit to a fixed frequency for the whole run.
class StaticUncorePolicy final : public core::IPolicy {
 public:
  StaticUncorePolicy(hw::IMsrDevice& msr, const hw::UncoreFreqLadder& ladder,
                     common::Ghz target)
      : uncore_(msr, ladder), target_(ladder.clamp_ghz(target.value())) {}

  [[nodiscard]] std::string name() const override {
    return "static_" + std::to_string(target_.value());
  }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override {
    (void)now;
    uncore_.set_max_ghz_all(target_.value());
  }
  void on_sample(common::Seconds now) override { (void)now; }

  [[nodiscard]] common::Ghz target() const noexcept { return target_; }

 private:
  hw::UncoreFreqController uncore_;
  common::Ghz target_;
};

}  // namespace magus::baseline
