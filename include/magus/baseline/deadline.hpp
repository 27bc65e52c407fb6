#pragma once
// Ilager-style data-driven deadline baseline (PAPERS.md -- "data-driven
// frequency scaling" against a per-job deadline / slowdown bound).
//
// Instead of walking the ladder a step at a time, the controller keeps a
// learned linear capacity model (deliverable MB/s per GHz of uncore, relearnt
// online from delivered-throughput observations whenever the link runs near
// saturation) and an EWMA demand predictor, then *selects* -- every period,
// from scratch -- the lowest ladder frequency whose predicted capacity keeps
// the memory-induced slowdown inside the configured bound. That is the
// data-driven trade: it converges in one period where DUF takes
// steps-per-ladder, but it trusts its model where DUF trusts only the last
// sample.

#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

struct DeadlineConfig {
  common::Seconds period{0.2};
  /// Allowed runtime stretch vs a never-throttled run, in percent. The
  /// controller provisions capacity >= demand / (1 + bound/100): progress
  /// gated on memory stretches by at most that factor.
  double slowdown_bound_pct = 5.0;
  /// Initial capacity model (MB/s per GHz); relearnt online.
  double capacity_mbps_per_ghz = 72'000.0;
  /// EWMA weight for both the demand predictor and capacity relearning.
  double learn_rate = 0.25;
  /// Relearn capacity only when delivered/predicted-capacity exceeds this
  /// (observations below saturation say nothing about the ceiling).
  double saturation_util = 0.90;
  bool scaling_enabled = true;
};

class DeadlineController final : public core::IPolicy {
 public:
  /// `domains` (optional): more than one domain switches to per-domain mode
  /// -- demand predicted and frequency selected per domain against its share
  /// of the capacity model. Null or one domain keeps the node-level loop.
  DeadlineController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                     const hw::UncoreFreqLadder& ladder, DeadlineConfig cfg = {},
                     hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "deadline"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  [[nodiscard]] common::Ghz current_target() const noexcept { return target_; }
  [[nodiscard]] double predicted_demand_mbps() const noexcept { return demand_mbps_; }
  [[nodiscard]] double learned_capacity_mbps_per_ghz() const noexcept {
    return capacity_coef_;
  }

  /// Domains under independent control (1 in node-level mode).
  [[nodiscard]] int domain_count() const noexcept {
    return domains_ ? static_cast<int>(domain_target_.size()) : 1;
  }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return domains_ ? domain_target_[static_cast<std::size_t>(domain)] : target_;
  }

 private:
  /// Lowest ladder frequency whose capacity (coef * f) covers `needed_mbps`;
  /// ladder max when nothing does.
  [[nodiscard]] double select_ghz(double needed_mbps, double coef) const;
  void sample_node(common::Seconds now);
  void sample_domains(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::UncoreFreqController uncore_;
  DeadlineConfig cfg_;

  bool primed_ = false;
  double prev_t_ = 0.0;
  double prev_mb_ = 0.0;
  double demand_mbps_ = 0.0;     ///< EWMA demand predictor
  double capacity_coef_ = 0.0;   ///< learned MB/s per GHz
  common::Ghz target_;

  // Per-domain mode (domains_ non-null).
  hw::IUncoreDomainSet* domains_ = nullptr;
  std::vector<double> domain_prev_mb_;
  std::vector<double> domain_demand_mbps_;
  std::vector<common::Ghz> domain_target_;
};

}  // namespace magus::baseline
