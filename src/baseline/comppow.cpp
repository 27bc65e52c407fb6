#include "magus/baseline/comppow.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace magus::baseline {

CompPowController::CompPowController(hw::IMemThroughputCounter& mem_counter,
                                     hw::IEnergyCounter& energy_counter,
                                     hw::IMsrDevice& msr,
                                     const hw::UncoreFreqLadder& ladder,
                                     CompPowConfig cfg,
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

double CompPowController::fit_ghz(double budget_w) const {
  // Walk the ladder top-down: the model P(f) is monotone in f, so the first
  // frequency that fits is the best one. Nothing fitting clamps to min.
  const auto& ladder = uncore_.ladder();
  const std::vector<double> freqs = ladder.frequencies();  // ascending
  for (auto it = freqs.rbegin(); it != freqs.rend(); ++it) {
    const double f = *it;
    const double power = cfg_.leak_w + cfg_.k1_w_per_ghz * f + cfg_.k2_w_per_ghz2 * f * f;
    if (power <= budget_w) return f;
  }
  return ladder.min_ghz();
}

void CompPowController::on_start(common::Seconds now) {
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
  prev_t_ = now.value();
  primed_ = true;
}

void CompPowController::sample_node(common::Seconds now) {
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

  const double capacity = std::max(1.0, cfg_.capacity_mbps_per_ghz * target_.value());
  last_util_ = std::min(1.0, delivered / capacity);

  const double cap_w = cap_.cap_at(now);
  if (cap_w == std::numeric_limits<double>::infinity()) return;  // uncapped: inert

  // Component split: the uncore earns a utilisation-scaled share of the node
  // cap, spread over the sockets (all sockets run one frequency here).
  const double share =
      cfg_.uncore_share_min + (cfg_.uncore_share_max - cfg_.uncore_share_min) * last_util_;
  last_uncore_budget_w_ = share * cap_w;
  const int sockets = std::max(1, energy_counter_.socket_count());
  const common::Ghz next{uncore_.ladder().clamp_ghz(
      fit_ghz(last_uncore_budget_w_ / static_cast<double>(sockets)))};
  if (next != target_) {
    target_ = next;
    if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
  }
}

void CompPowController::sample_domains(common::Seconds now) {
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

  std::vector<double> delivered(n, 0.0);
  double total_delivered = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = mem_counter_.domain_mb(static_cast<int>(d));
    delivered[d] = std::max(0.0, (mb - domain_prev_mb_[d]) / dt);
    domain_prev_mb_[d] = mb;
    total_delivered += delivered[d];
  }
  const double capacity = std::max(1.0, cfg_.capacity_mbps_per_ghz * target_.value());
  last_util_ = std::min(1.0, total_delivered / capacity);

  const double cap_w = cap_.cap_at(now);
  if (cap_w == std::numeric_limits<double>::infinity()) return;  // uncapped: inert

  const double share =
      cfg_.uncore_share_min + (cfg_.uncore_share_max - cfg_.uncore_share_min) * last_util_;
  last_uncore_budget_w_ = share * cap_w;

  // Per-domain budgets: half the uncore share splits evenly (every domain
  // keeps a base allowance), half follows the measured traffic split. The
  // quadratic model is per *socket*; a socket's dies share its coefficients,
  // so a domain's budget is scaled back up by dies = domains / sockets
  // before the fit.
  const int sockets = std::max(1, energy_counter_.socket_count());
  const double dies =
      std::max(1.0, static_cast<double>(n) / static_cast<double>(sockets));
  for (std::size_t d = 0; d < n; ++d) {
    const double traffic_w =
        total_delivered > 0.0 ? delivered[d] / total_delivered : 1.0 / static_cast<double>(n);
    const double budget_d =
        last_uncore_budget_w_ * (0.5 / static_cast<double>(n) + 0.5 * traffic_w);
    const common::Ghz next{uncore_.ladder().clamp_ghz(fit_ghz(budget_d * dies))};
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) {
        domains_->write_max_ghz(static_cast<int>(d), next);
      }
    }
  }
}

void CompPowController::on_sample(common::Seconds now) {
  if (domains_) {
    sample_domains(now);
  } else {
    sample_node(now);
  }
}

}  // namespace magus::baseline
