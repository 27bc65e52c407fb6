#include "magus/baseline/deadline.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

namespace {
/// Allowed runtime stretch vs a never-throttled run, in percent. The
/// controller provisions capacity >= demand / (1 + bound/100): progress
/// gated on memory stretches by at most that factor.
constexpr double kSlowdownBoundPct = 5.0;
/// EWMA weight for both the demand predictor and capacity relearning.
constexpr double kLearnRate = 0.25;
/// Relearn capacity only when delivered/predicted-capacity exceeds this
/// (observations below saturation say nothing about the ceiling).
constexpr double kSaturationUtil = 0.90;
}  // namespace

DeadlineController::DeadlineController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      domains_(domains, msr, ladder),
      prev_mb_(domains_.size(), 0.0),
      demand_mbps_(domains_.size(), 0.0),
      target_(domains_.size(), common::Ghz(ladder.max_ghz())) {}

double DeadlineController::select_ghz(common::Mbps needed, double coef) const {
  const auto& ladder = domains_.ladder();
  for (const double f : ladder.frequencies()) {  // ascending
    if (coef * f >= needed.value()) return f;
  }
  return ladder.max_ghz();
}

void DeadlineController::prime(common::Seconds now) {
  domains_.read_all_mb(mem_counter_, prev_mb_);
  prev_t_ = now.value();
  primed_ = true;
}

void DeadlineController::on_start(common::Seconds now) {
  domains_.write_all_max_ghz(common::Ghz(domains_.ladder().max_ghz()));
  prime(now);
}

void DeadlineController::on_sample(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  // Each domain carries its own predictor against its share of the learned
  // capacity model (the coefficient is node-calibrated, split evenly).
  const auto n = target_.size();
  const double a = kLearnRate;
  const double coef = std::max(1.0, capacity_coef_ / static_cast<double>(n));
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.read_mb(mem_counter_, d);
    const double delivered = (mb - prev_mb_[d]) / dt;
    prev_mb_[d] = mb;

    // Demand predictor: EWMA of delivered throughput. Capacity relearning:
    // only near-saturation observations reveal the ceiling, and then
    // delivered / frequency *is* a direct sample of the coefficient.
    double& demand = demand_mbps_[d];
    demand = demand == 0.0 ? delivered : (1.0 - a) * demand + a * delivered;
    const double predicted_capacity = std::max(1.0, coef * target_[d].value());
    if (delivered / predicted_capacity > kSaturationUtil && target_[d].value() > 0.0) {
      capacity_coef_ = (1.0 - a) * capacity_coef_ +
                       a * (delivered / target_[d].value()) * static_cast<double>(n);
    }

    // Provision the lowest frequency that keeps the memory stretch inside
    // the slowdown bound: capacity >= demand / (1 + bound). The whole node
    // selects with the coefficient it just relearnt; the domains of a set
    // select with the one the sample started from, as the per-domain loop
    // always has (RollupGolden.BudgetedDeadline pins it).
    const double needed = demand / (1.0 + kSlowdownBoundPct / 100.0);
    const double select_coef = domains_.whole_node() ? std::max(1.0, capacity_coef_) : coef;
    const common::Ghz next{select_ghz(common::Mbps(needed), select_coef)};
    if (next != target_[d]) {
      target_[d] = next;
      domains_.write_max_ghz(d, next);
    }
  }
}

}  // namespace magus::baseline
