#pragma once
// Ilager-style data-driven deadline baseline (PAPERS.md -- "data-driven
// frequency scaling" against a per-job deadline / slowdown bound).
//
// Instead of walking the ladder a step at a time, the controller keeps a
// learned linear capacity model (deliverable MB/s per GHz of uncore, relearnt
// online from delivered-throughput observations whenever the link runs near
// saturation) and an EWMA demand predictor, then *selects* -- every period,
// from scratch -- the lowest ladder frequency whose predicted capacity keeps
// the memory-induced slowdown inside a fixed 5 % bound. That is the
// data-driven trade: it converges in one period where DUF takes
// steps-per-ladder, but it trusts its model where DUF trusts only the last
// sample.

#include <algorithm>
#include <vector>

#include "magus/baseline/constants.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

class DeadlineController final : public core::IPolicy {
 public:
  /// `domains` (optional): more than one domain makes the controller
  /// predict demand and select a frequency per domain, against the domain's
  /// share of the capacity model. Otherwise the whole node is the one domain
  /// (hw::UncoreDomains).
  DeadlineController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                     const hw::UncoreFreqLadder& ladder,
                     hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "deadline"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  /// Lowest domain target (the node's target when the node is one domain).
  [[nodiscard]] common::Ghz current_target() const noexcept {
    return *std::min_element(target_.begin(), target_.end());
  }
  /// Predicted demand summed over the domains.
  [[nodiscard]] double predicted_demand_mbps() const noexcept {
    double sum = 0.0;
    for (const double d : demand_mbps_) sum += d;
    return sum;
  }
  [[nodiscard]] double learned_capacity_mbps_per_ghz() const noexcept {
    return capacity_coef_;
  }

  [[nodiscard]] int domain_count() const noexcept { return static_cast<int>(target_.size()); }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return target_[static_cast<std::size_t>(domain)];
  }

 private:
  /// Lowest ladder frequency whose capacity (coef * f) covers `needed`;
  /// ladder max when nothing does.
  [[nodiscard]] double select_ghz(common::Mbps needed, double coef) const;
  void prime(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::UncoreDomains domains_;

  bool primed_ = false;
  double prev_t_ = 0.0;
  double capacity_coef_ = kCapacityMbpsPerGhz;  ///< learned node MB/s per GHz
  std::vector<double> prev_mb_;       ///< per-domain cumulative baseline
  std::vector<double> demand_mbps_;   ///< per-domain EWMA demand predictor
  std::vector<common::Ghz> target_;   ///< per-domain target
};

}  // namespace magus::baseline
