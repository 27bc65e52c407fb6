#include "magus/baseline/duf.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

DufController::DufController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                             const hw::UncoreFreqLadder& ladder, DufConfig cfg,
                             hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      uncore_(msr, ladder),
      cfg_(cfg),
      target_(ladder.max_ghz()) {
  if (domains != nullptr && domains->domain_count() > 1) {
    domains_ = domains;
    const auto n = static_cast<std::size_t>(domains->domain_count());
    domain_prev_mb_.assign(n, 0.0);
    domain_target_.assign(n, common::Ghz(ladder.max_ghz()));
  }
}

void DufController::on_start(common::Seconds now) {
  if (domains_) {
    const auto n = domain_target_.size();
    if (cfg_.scaling_enabled) {
      for (std::size_t d = 0; d < n; ++d) {
        domains_->write_max_ghz(static_cast<int>(d),
                                common::Ghz(uncore_.ladder().max_ghz()));
      }
    }
    for (std::size_t d = 0; d < n; ++d) {
      domain_prev_mb_[d] = mem_counter_.domain_mb(static_cast<int>(d));
    }
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  if (cfg_.scaling_enabled) {
    uncore_.set_max_ghz_all(uncore_.ladder().max_ghz());
  }
  prev_mb_ = mem_counter_.total_mb();
  prev_t_ = now.value();
  primed_ = true;
}

void DufController::sample_domains(common::Seconds now) {
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

  // Each domain serves only its share of the calibrated node capacity.
  const double per_domain_mbps_per_ghz =
      cfg_.capacity_mbps_per_ghz / static_cast<double>(n);
  const auto& ladder = uncore_.ladder();
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = mem_counter_.domain_mb(static_cast<int>(d));
    const double throughput = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;

    const double capacity =
        std::max(1.0, per_domain_mbps_per_ghz * domain_target_[d].value());
    const double util = throughput / capacity;
    util_sum += util;

    common::Ghz next = domain_target_[d];
    if (util > cfg_.high_util) {
      next = common::Ghz(ladder.max_ghz());
    } else if (util < cfg_.low_util) {
      next = common::Ghz(ladder.step_down(domain_target_[d].value()));
    }
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) {
        domains_->write_max_ghz(static_cast<int>(d), next);
      }
    }
  }
  last_util_ = util_sum / static_cast<double>(n);
}

void DufController::on_sample(common::Seconds now) {
  if (domains_) {
    sample_domains(now);
    return;
  }
  const double mb = mem_counter_.total_mb();
  if (!primed_) {
    prev_mb_ = mb;
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;
  const double throughput = (mb - prev_mb_) / dt;
  prev_mb_ = mb;
  prev_t_ = now.value();

  // Utilisation relative to what the *current* target can deliver.
  const double capacity = std::max(1.0, cfg_.capacity_mbps_per_ghz * target_.value());
  last_util_ = throughput / capacity;

  const auto& ladder = uncore_.ladder();
  common::Ghz next = target_;
  if (last_util_ > cfg_.high_util) {
    next = common::Ghz(ladder.max_ghz());  // bandwidth-starved: give it everything
  } else if (last_util_ < cfg_.low_util) {
    next = common::Ghz(ladder.step_down(target_.value()));  // over-provisioned: creep down
  }
  if (next != target_) {
    target_ = next;
    if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
  }
}

}  // namespace magus::baseline
