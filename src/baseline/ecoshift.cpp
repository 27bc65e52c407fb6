#include "magus/baseline/ecoshift.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

namespace {
/// Step back up only when measured power sits this fraction under the cap
/// (guards against limit-cycling on the cap boundary).
constexpr double kHeadroomFrac = 0.08;
/// Utilisation gate for restoring frequency: below this the recovered
/// headroom would be wasted on an idle uncore, so the target holds.
constexpr double kRestoreUtil = 0.55;
}  // namespace

EcoShiftController::EcoShiftController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IEnergyCounter& energy_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       const core::PowerCapSchedule* cap,
                                       hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      energy_counter_(energy_counter),
      domains_(domains, msr, ladder),
      prev_mb_(domains_.size(), 0.0),
      util_(domains_.size(), 0.0),
      target_(domains_.size(), common::Ghz(ladder.max_ghz())) {
  if (cap != nullptr) cap_ = *cap;
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

void EcoShiftController::prime(common::Seconds now) {
  domains_.read_all_mb(mem_counter_, prev_mb_);
  (void)measure_power_w(now);
  prev_t_ = now.value();
  primed_ = true;
}

void EcoShiftController::on_start(common::Seconds now) {
  if (cap_.active()) {
    domains_.write_all_max_ghz(common::Ghz(domains_.ladder().max_ghz()));
  }
  prime(now);
}

void EcoShiftController::on_sample(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  last_power_w_ = measure_power_w(now);
  prev_t_ = now.value();

  // Per-domain utilisation against each domain's share of the calibrated
  // node capacity; the node-level power verdict picks which domain moves.
  const auto n = target_.size();
  const double per_domain_mbps_per_ghz = kCapacityMbpsPerGhz / static_cast<double>(n);
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.read_mb(mem_counter_, d);
    const double delivered = (mb - prev_mb_[d]) / dt;
    prev_mb_[d] = mb;
    const double capacity = std::max(1.0, per_domain_mbps_per_ghz * target_[d].value());
    util_[d] = delivered / capacity;
    util_sum += util_[d];
  }
  last_util_ = util_sum / static_cast<double>(n);

  const double cap_w = cap_.cap_at(now);
  const auto& ladder = domains_.ladder();
  if (last_power_w_ > cap_w) {
    // Shed power where it costs the least performance: the least-utilised
    // domain that still has ladder room steps down. Ties break on the lower
    // index so the walk is deterministic.
    std::size_t victim = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (target_[d].value() <= ladder.min_ghz()) continue;
      if (victim == n || util_[d] < util_[victim]) victim = d;
    }
    if (victim < n) {
      target_[victim] = common::Ghz(ladder.step_down(target_[victim].value()));
      domains_.write_max_ghz(victim, target_[victim]);
    }
  } else if (last_power_w_ < cap_w * (1.0 - kHeadroomFrac)) {
    // Recover where it buys the most: the most-utilised domain above the
    // restore gate steps up (a NaN utilisation never passes the gate). Same
    // lowest-index tie break.
    std::size_t winner = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (!(util_[d] > kRestoreUtil)) continue;
      if (target_[d].value() >= ladder.max_ghz()) continue;
      if (winner == n || util_[d] > util_[winner]) winner = d;
    }
    if (winner < n) {
      target_[winner] = common::Ghz(ladder.step_up(target_[winner].value()));
      domains_.write_max_ghz(winner, target_[winner]);
    }
  }
}

}  // namespace magus::baseline
