#pragma once
// EcoShift-style comparator: performance-aware uncore management under a
// per-node power cap (PAPERS.md -- the power-capped datacenter baseline the
// paper's evaluation lacked).
//
// EcoShift watches two signals every period: measured node power (RAPL
// package + DRAM energy deltas) against the cap in force, and memory
// bandwidth utilisation as its performance proxy. Over the cap it sheds
// power by stepping the uncore down; under the cap with headroom to spare it
// restores frequency, but only when utilisation says the workload would
// actually use it -- that is the "performance-aware" half: it never burns
// recovered headroom on an idle uncore. Without a cap (no schedule, no
// static cap) the controller is inert at ladder max, byte-identical to the
// default firmware from the policy layer's point of view.

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

class EcoShiftController final : public core::IPolicy {
 public:
  /// `cap` (optional) is copied; null or inactive means uncapped (inert).
  /// `domains` (optional): more than one domain makes the power verdict pick
  /// a domain -- over the cap the *least*-utilised domain steps down first
  /// (cheapest performance to sell), under it the *most*-utilised domain
  /// recovers first. Otherwise the whole node is the one domain
  /// (hw::UncoreDomains).
  EcoShiftController(hw::IMemThroughputCounter& mem_counter,
                     hw::IEnergyCounter& energy_counter, hw::IMsrDevice& msr,
                     const hw::UncoreFreqLadder& ladder,
                     const core::PowerCapSchedule* cap = nullptr,
                     hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "ecoshift"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  /// Lowest domain target (the node's target when the node is one domain).
  [[nodiscard]] common::Ghz current_target() const noexcept {
    return *std::min_element(target_.begin(), target_.end());
  }
  [[nodiscard]] double last_power_w() const noexcept { return last_power_w_; }
  /// Mean utilisation over the domains in the last sample.
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }

  [[nodiscard]] int domain_count() const noexcept { return static_cast<int>(target_.size()); }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return target_[static_cast<std::size_t>(domain)];
  }

 private:
  [[nodiscard]] double measure_power_w(common::Seconds now);
  void prime(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::IEnergyCounter& energy_counter_;
  hw::UncoreDomains domains_;
  core::PowerCapSchedule cap_;

  bool primed_ = false;
  double prev_t_ = 0.0;
  double prev_energy_j_ = 0.0;
  double last_power_w_ = 0.0;
  double last_util_ = 0.0;
  std::vector<double> prev_mb_;        ///< per-domain cumulative baseline
  std::vector<double> util_;           ///< per-sample scratch, per-domain utilisation
  std::vector<common::Ghz> target_;    ///< per-domain target
};

}  // namespace magus::baseline
