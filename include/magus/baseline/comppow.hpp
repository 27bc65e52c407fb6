#pragma once
// Component-level power partitioning under a node cap ("comppow").
//
// Where EcoShift treats the node cap as one bucket and reacts to measured
// power, comppow *splits* the cap between components up front: the uncore is
// granted a share of the node budget that grows with memory-bandwidth
// utilisation (an idle uncore earns the minimum share, a saturated one the
// maximum), and the controller then solves its internal quadratic uncore
// power model -- P(f) = leak + k1*f + k2*f^2 per domain -- for the highest
// ladder frequency that fits inside the granted share. Everything left of
// the cap implicitly belongs to cores/DRAM/GPU, which this policy does not
// actuate. Without a cap the budget is unbounded and the controller is inert
// at ladder max.

#include <algorithm>
#include <vector>

#include "magus/baseline/constants.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

class CompPowController final : public core::IPolicy {
 public:
  /// `cap` (optional) is copied; null or inactive means uncapped (inert).
  /// `domains` (optional): more than one domain splits the uncore budget
  /// across domains in proportion to their traffic shares (every domain
  /// keeps at least an even split's minimum-frequency cost). Otherwise the
  /// whole node is the one domain (hw::UncoreDomains).
  CompPowController(hw::IMemThroughputCounter& mem_counter,
                    hw::IEnergyCounter& energy_counter, hw::IMsrDevice& msr,
                    const hw::UncoreFreqLadder& ladder,
                    const core::PowerCapSchedule* cap = nullptr,
                    hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "comppow"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  /// Lowest domain target (the node's target when the node is one domain).
  [[nodiscard]] common::Ghz current_target() const noexcept {
    return *std::min_element(target_.begin(), target_.end());
  }
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }
  [[nodiscard]] double last_uncore_budget_w() const noexcept {
    return last_uncore_budget_w_;
  }

  /// Highest ladder frequency with model power <= budget_w (per domain);
  /// ladder min when even that does not fit.
  [[nodiscard]] double fit_ghz(double budget_w) const;

  [[nodiscard]] int domain_count() const noexcept { return static_cast<int>(target_.size()); }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return target_[static_cast<std::size_t>(domain)];
  }

 private:
  void prime(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::IEnergyCounter& energy_counter_;
  hw::UncoreDomains domains_;
  core::PowerCapSchedule cap_;

  bool primed_ = false;
  double prev_t_ = 0.0;
  double last_util_ = 0.0;
  double last_uncore_budget_w_ = 0.0;
  std::vector<double> prev_mb_;        ///< per-domain cumulative baseline
  std::vector<double> delivered_;      ///< per-sample scratch, MB/s per domain
  std::vector<common::Ghz> target_;    ///< per-domain target
};

}  // namespace magus::baseline
