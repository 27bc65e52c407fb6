#include "magus/baseline/ecoshift.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

EcoShiftController::EcoShiftController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IEnergyCounter& energy_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       EcoShiftConfig cfg,
                                       const core::PowerCapSchedule* cap,
                                       hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      energy_counter_(energy_counter),
      uncore_(msr, ladder),
      cfg_(cfg),
      target_(ladder.max_ghz()) {
  if (cap != nullptr) cap_ = *cap;
  if (domains != nullptr && domains->domain_count() > 1) {
    domains_ = domains;
    const auto n = static_cast<std::size_t>(domains->domain_count());
    domain_prev_mb_.assign(n, 0.0);
    domain_target_.assign(n, common::Ghz(ladder.max_ghz()));
  }
}

double EcoShiftController::measure_power_w(common::Seconds now) {
  // RAPL-style accumulation: package + DRAM over every socket, differenced
  // against the previous sample. The first call only primes the counters.
  double energy_j = 0.0;
  const int sockets = energy_counter_.socket_count();
  for (int s = 0; s < sockets; ++s) {
    energy_j += energy_counter_.pkg_energy_j(s);
    energy_j += energy_counter_.dram_energy_j(s);
  }
  const double dt = now.value() - prev_t_;
  const double watts =
      primed_ && dt > 0.0 ? (energy_j - prev_energy_j_) / dt : 0.0;
  prev_energy_j_ = energy_j;
  return watts;
}

void EcoShiftController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled && cap_.active()) {
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
  double energy_j = 0.0;
  const int sockets = energy_counter_.socket_count();
  for (int s = 0; s < sockets; ++s) {
    energy_j += energy_counter_.pkg_energy_j(s);
    energy_j += energy_counter_.dram_energy_j(s);
  }
  prev_energy_j_ = energy_j;
  prev_t_ = now.value();
  primed_ = true;
}

void EcoShiftController::sample_node(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  const double mb = mem_counter_.total_mb();
  if (!primed_ || dt <= 0.0) {
    prev_mb_ = mb;
    (void)measure_power_w(now);
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  last_power_w_ = measure_power_w(now);
  const double delivered = (mb - prev_mb_) / dt;
  prev_mb_ = mb;
  prev_t_ = now.value();

  const double capacity = std::max(1.0, cfg_.capacity_mbps_per_ghz * target_.value());
  last_util_ = delivered / capacity;

  const double cap_w = cap_.cap_at(now);
  const auto& ladder = uncore_.ladder();
  common::Ghz next = target_;
  if (last_power_w_ > cap_w) {
    next = common::Ghz(ladder.step_down(target_.value()));
  } else if (last_power_w_ < cap_w * (1.0 - cfg_.headroom_frac) &&
             last_util_ > cfg_.restore_util) {
    next = common::Ghz(ladder.step_up(target_.value()));
  }
  if (next != target_) {
    target_ = next;
    if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
  }
}

void EcoShiftController::sample_domains(common::Seconds now) {
  const auto n = domain_target_.size();
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    for (std::size_t d = 0; d < n; ++d) {
      domain_prev_mb_[d] = mem_counter_.domain_mb(static_cast<int>(d));
    }
    (void)measure_power_w(now);
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  last_power_w_ = measure_power_w(now);
  prev_t_ = now.value();

  // Per-domain utilisation against each domain's share of the calibrated
  // node capacity; the node-level power verdict picks which domain moves.
  const double per_domain_mbps_per_ghz =
      cfg_.capacity_mbps_per_ghz / static_cast<double>(n);
  std::vector<double> util(n, 0.0);
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = mem_counter_.domain_mb(static_cast<int>(d));
    const double delivered = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;
    const double capacity =
        std::max(1.0, per_domain_mbps_per_ghz * domain_target_[d].value());
    util[d] = delivered / capacity;
    util_sum += util[d];
  }
  last_util_ = util_sum / static_cast<double>(n);

  const double cap_w = cap_.cap_at(now);
  const auto& ladder = uncore_.ladder();
  if (last_power_w_ > cap_w) {
    // Shed power where it costs the least performance: the least-utilised
    // domain that still has ladder room steps down. Ties break on the lower
    // index so the walk is deterministic.
    std::size_t victim = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (domain_target_[d].value() <= ladder.min_ghz()) continue;
      if (victim == n || util[d] < util[victim]) victim = d;
    }
    if (victim < n) {
      domain_target_[victim] = common::Ghz(ladder.step_down(domain_target_[victim].value()));
      if (cfg_.scaling_enabled) {
        domains_->write_max_ghz(static_cast<int>(victim), domain_target_[victim]);
      }
    }
  } else if (last_power_w_ < cap_w * (1.0 - cfg_.headroom_frac)) {
    // Recover where it buys the most: the most-utilised domain above the
    // restore gate steps up. Same lowest-index tie break.
    std::size_t winner = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (util[d] <= cfg_.restore_util) continue;
      if (domain_target_[d].value() >= ladder.max_ghz()) continue;
      if (winner == n || util[d] > util[winner]) winner = d;
    }
    if (winner < n) {
      domain_target_[winner] = common::Ghz(ladder.step_up(domain_target_[winner].value()));
      if (cfg_.scaling_enabled) {
        domains_->write_max_ghz(static_cast<int>(winner), domain_target_[winner]);
      }
    }
  }
}

void EcoShiftController::on_sample(common::Seconds now) {
  if (domains_) {
    sample_domains(now);
  } else {
    sample_node(now);
  }
}

}  // namespace magus::baseline
