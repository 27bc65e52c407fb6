#include "magus/baseline/deadline.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

DeadlineController::DeadlineController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       DeadlineConfig cfg, hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      uncore_(msr, ladder),
      cfg_(cfg),
      capacity_coef_(cfg.capacity_mbps_per_ghz),
      target_(ladder.max_ghz()) {
  if (domains != nullptr && domains->domain_count() > 1) {
    domains_ = domains;
    const auto n = static_cast<std::size_t>(domains->domain_count());
    domain_prev_mb_.assign(n, 0.0);
    domain_demand_mbps_.assign(n, 0.0);
    domain_target_.assign(n, common::Ghz(ladder.max_ghz()));
  }
}

double DeadlineController::select_ghz(double needed_mbps, double coef) const {
  const auto& ladder = uncore_.ladder();
  for (const double f : ladder.frequencies()) {  // ascending
    if (coef * f >= needed_mbps) return f;
  }
  return ladder.max_ghz();
}

void DeadlineController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    if (domains_) {
      for (std::size_t d = 0; d < domain_target_.size(); ++d) {
        domains_->write_max_ghz(static_cast<int>(d),
                                common::Ghz(uncore_.ladder().max_ghz()));
      }
    } else {
      uncore_.set_max_ghz_all(uncore_.ladder().max_ghz());
    }
  }
  if (domains_) {
    for (std::size_t d = 0; d < domain_prev_mb_.size(); ++d) {
      domain_prev_mb_[d] = mem_counter_.domain_mb(static_cast<int>(d));
    }
  } else {
    prev_mb_ = mem_counter_.total_mb();
  }
  prev_t_ = now.value();
  primed_ = true;
}

void DeadlineController::sample_node(common::Seconds now) {
  const double mb = mem_counter_.total_mb();
  if (!primed_) {
    prev_mb_ = mb;
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;
  const double delivered = (mb - prev_mb_) / dt;
  prev_mb_ = mb;
  prev_t_ = now.value();

  // Demand predictor: EWMA of delivered throughput. Capacity relearning:
  // only near-saturation observations reveal the ceiling, and then delivered
  // / frequency *is* a direct sample of the coefficient.
  const double a = cfg_.learn_rate;
  demand_mbps_ = demand_mbps_ == 0.0 ? delivered : (1.0 - a) * demand_mbps_ + a * delivered;
  const double predicted_capacity =
      std::max(1.0, capacity_coef_ * target_.value());
  if (delivered / predicted_capacity > cfg_.saturation_util && target_.value() > 0.0) {
    capacity_coef_ = (1.0 - a) * capacity_coef_ + a * (delivered / target_.value());
  }

  // Provision the lowest frequency that keeps the memory stretch inside the
  // slowdown bound: capacity >= demand / (1 + bound).
  const double needed =
      demand_mbps_ / (1.0 + cfg_.slowdown_bound_pct / 100.0);
  const common::Ghz next{select_ghz(needed, std::max(1.0, capacity_coef_))};
  if (next != target_) {
    target_ = next;
    if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
  }
}

void DeadlineController::sample_domains(common::Seconds now) {
  const auto n = domain_target_.size();
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    for (std::size_t d = 0; d < n; ++d) {
      domain_prev_mb_[d] = mem_counter_.domain_mb(static_cast<int>(d));
    }
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  prev_t_ = now.value();

  // Each domain carries its own predictor against its share of the learned
  // capacity model (the coefficient is node-calibrated, split evenly).
  const double a = cfg_.learn_rate;
  const double coef = std::max(1.0, capacity_coef_ / static_cast<double>(n));
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = mem_counter_.domain_mb(static_cast<int>(d));
    const double delivered = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;
    double& demand = domain_demand_mbps_[d];
    demand = demand == 0.0 ? delivered : (1.0 - a) * demand + a * delivered;
    const double predicted_capacity =
        std::max(1.0, coef * domain_target_[d].value());
    if (delivered / predicted_capacity > cfg_.saturation_util &&
        domain_target_[d].value() > 0.0) {
      capacity_coef_ = (1.0 - a) * capacity_coef_ +
                       a * (delivered / domain_target_[d].value()) *
                           static_cast<double>(n);
    }
    const double needed = demand / (1.0 + cfg_.slowdown_bound_pct / 100.0);
    const common::Ghz next{select_ghz(needed, coef)};
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) {
        domains_->write_max_ghz(static_cast<int>(d), next);
      }
    }
  }
}

void DeadlineController::on_sample(common::Seconds now) {
  if (domains_) {
    sample_domains(now);
  } else {
    sample_node(now);
  }
}

}  // namespace magus::baseline
