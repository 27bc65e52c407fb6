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

#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

struct EcoShiftConfig {
  common::Seconds period{0.2};
  /// Step back up only when measured power sits this fraction under the cap
  /// (guards against limit-cycling on the cap boundary).
  double headroom_frac = 0.08;
  /// Utilisation gate for restoring frequency: below this the recovered
  /// headroom would be wasted on an idle uncore, so the target holds.
  double restore_util = 0.55;
  /// Capacity model: deliverable MB/s per GHz of uncore (same calibrated
  /// constant the DUF baseline carries).
  double capacity_mbps_per_ghz = 72'000.0;
  bool scaling_enabled = true;
};

class EcoShiftController final : public core::IPolicy {
 public:
  /// `cap` (optional) is copied; null or inactive means uncapped (inert).
  /// `domains` (optional): more than one domain switches to per-domain mode
  /// -- over the cap the *least*-utilised domain steps down first (cheapest
  /// performance to sell), under it the *most*-utilised domain recovers
  /// first. Null or one domain keeps the node-level loop.
  EcoShiftController(hw::IMemThroughputCounter& mem_counter,
                     hw::IEnergyCounter& energy_counter, hw::IMsrDevice& msr,
                     const hw::UncoreFreqLadder& ladder, EcoShiftConfig cfg = {},
                     const core::PowerCapSchedule* cap = nullptr,
                     hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "ecoshift"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  [[nodiscard]] common::Ghz current_target() const noexcept { return target_; }
  [[nodiscard]] double last_power_w() const noexcept { return last_power_w_; }
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }

  /// Domains under independent control (1 in node-level mode).
  [[nodiscard]] int domain_count() const noexcept {
    return domains_ ? static_cast<int>(domain_target_.size()) : 1;
  }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return domains_ ? domain_target_[static_cast<std::size_t>(domain)] : target_;
  }

 private:
  [[nodiscard]] double measure_power_w(common::Seconds now);
  void sample_node(common::Seconds now);
  void sample_domains(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::IEnergyCounter& energy_counter_;
  hw::UncoreFreqController uncore_;
  EcoShiftConfig cfg_;
  core::PowerCapSchedule cap_;

  bool primed_ = false;
  double prev_t_ = 0.0;
  double prev_energy_j_ = 0.0;
  double prev_mb_ = 0.0;
  common::Ghz target_;
  double last_power_w_ = 0.0;
  double last_util_ = 0.0;

  // Per-domain mode (domains_ non-null).
  hw::IUncoreDomainSet* domains_ = nullptr;
  std::vector<double> domain_prev_mb_;
  std::vector<common::Ghz> domain_target_;
};

}  // namespace magus::baseline
