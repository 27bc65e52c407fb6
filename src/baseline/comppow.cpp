#include "magus/baseline/comppow.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace magus::baseline {

namespace {
/// Uncore share of the node cap: kShareMin at zero memory utilisation,
/// sliding linearly to kShareMax at full utilisation.
constexpr double kShareMin = 0.10;
constexpr double kShareMax = 0.35;
/// Internal uncore power model, per socket:
/// P(f) = kLeakW + kK1WPerGhz * f + kK2WPerGhz2 * f^2, the Intel presets'
/// per-socket coefficients.
constexpr double kLeakW = 5.0;
constexpr double kK1WPerGhz = 2.0;
constexpr double kK2WPerGhz2 = 13.0;
}  // namespace

CompPowController::CompPowController(hw::IMemThroughputCounter& mem_counter,
                                     hw::IEnergyCounter& energy_counter,
                                     hw::IMsrDevice& msr,
                                     const hw::UncoreFreqLadder& ladder,
                                     const core::PowerCapSchedule* cap,
                                     hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      energy_counter_(energy_counter),
      domains_(domains, msr, ladder),
      prev_mb_(domains_.size(), 0.0),
      delivered_(domains_.size(), 0.0),
      target_(domains_.size(), common::Ghz(ladder.max_ghz())) {
  if (cap != nullptr) cap_ = *cap;
}

double CompPowController::fit_ghz(double budget_w) const {
  // Walk the ladder top-down: the model P(f) is monotone in f, so the first
  // frequency that fits is the best one. Nothing fitting clamps to min.
  const auto& ladder = domains_.ladder();
  const std::vector<double> freqs = ladder.frequencies();  // ascending
  for (auto it = freqs.rbegin(); it != freqs.rend(); ++it) {
    const double f = *it;
    const double power = kLeakW + kK1WPerGhz * f + kK2WPerGhz2 * f * f;
    if (power <= budget_w) return f;
  }
  return ladder.min_ghz();
}

void CompPowController::prime(common::Seconds now) {
  domains_.read_all_mb(mem_counter_, prev_mb_);
  prev_t_ = now.value();
  primed_ = true;
}

void CompPowController::on_start(common::Seconds now) {
  if (cap_.active()) {
    domains_.write_all_max_ghz(common::Ghz(domains_.ladder().max_ghz()));
  }
  prime(now);
}

void CompPowController::on_sample(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  // A counter that moved backwards (or read NaN) delivered nothing.
  const auto n = target_.size();
  double total_delivered = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.read_mb(mem_counter_, d);
    delivered_[d] = std::max(0.0, (mb - prev_mb_[d]) / dt);
    prev_mb_[d] = mb;
    total_delivered += delivered_[d];
  }
  // Utilisation against the capacity at the whole node's live target. A
  // multi-domain set measures against ladder max, the reference its
  // per-domain loop has always used (RollupGolden.BudgetedComppow pins it).
  const auto& ladder = domains_.ladder();
  const double ref_ghz = domains_.whole_node() ? target_[0].value() : ladder.max_ghz();
  const double capacity = std::max(1.0, kCapacityMbpsPerGhz * ref_ghz);
  last_util_ = std::min(1.0, total_delivered / capacity);

  const double cap_w = cap_.cap_at(now);
  if (cap_w == std::numeric_limits<double>::infinity()) return;  // uncapped: inert

  // Component split: the uncore earns a utilisation-scaled share of the node
  // cap.
  const double share = kShareMin + (kShareMax - kShareMin) * last_util_;
  last_uncore_budget_w_ = share * cap_w;

  // Per-domain budgets: half the uncore share splits evenly (every domain
  // keeps a base allowance), half follows the measured traffic split. The
  // quadratic model is per *socket*, so a domain's budget is scaled by
  // domains / sockets before the fit: a socket's dies share its
  // coefficients, and the whole node spreads its budget over the sockets.
  const int sockets = std::max(1, energy_counter_.socket_count());
  const double domains_per_socket = static_cast<double>(n) / static_cast<double>(sockets);
  for (std::size_t d = 0; d < n; ++d) {
    const double traffic_w =
        total_delivered > 0.0 ? delivered_[d] / total_delivered : 1.0 / static_cast<double>(n);
    const double budget_d =
        last_uncore_budget_w_ * (0.5 / static_cast<double>(n) + 0.5 * traffic_w);
    const common::Ghz next{ladder.clamp_ghz(fit_ghz(budget_d * domains_per_socket))};
    if (next != target_[d]) {
      target_[d] = next;
      domains_.write_max_ghz(d, next);
    }
  }
}

}  // namespace magus::baseline
