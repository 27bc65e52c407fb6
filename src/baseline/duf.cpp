#include "magus/baseline/duf.hpp"

#include <algorithm>
#include <cstddef>

namespace magus::baseline {

namespace {
constexpr double kLowUtil = 0.40;   ///< below: step the uncore down one ratio
constexpr double kHighUtil = 0.80;  ///< above: jump back to max
}  // namespace

DufController::DufController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                             const hw::UncoreFreqLadder& ladder,
                             hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter),
      domains_(domains, msr, ladder),
      prev_mb_(domains_.size(), 0.0),
      target_(domains_.size(), common::Ghz(ladder.max_ghz())) {}

void DufController::prime(common::Seconds now) {
  domains_.read_all_mb(mem_counter_, prev_mb_);
  prev_t_ = now.value();
  primed_ = true;
}

void DufController::on_start(common::Seconds now) {
  domains_.write_all_max_ghz(common::Ghz(domains_.ladder().max_ghz()));
  prime(now);
}

void DufController::on_sample(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  // Each domain serves only its share of the calibrated node capacity, and
  // its utilisation is relative to what its *current* target can deliver.
  const auto n = target_.size();
  const double per_domain_mbps_per_ghz = kCapacityMbpsPerGhz / static_cast<double>(n);
  const auto& ladder = domains_.ladder();
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.read_mb(mem_counter_, d);
    const double throughput = (mb - prev_mb_[d]) / dt;
    prev_mb_[d] = mb;

    const double capacity = std::max(1.0, per_domain_mbps_per_ghz * target_[d].value());
    const double util = throughput / capacity;
    util_sum += util;

    common::Ghz next = target_[d];
    if (util > kHighUtil) {
      next = common::Ghz(ladder.max_ghz());  // bandwidth-starved: give it everything
    } else if (util < kLowUtil) {
      next = common::Ghz(ladder.step_down(target_[d].value()));  // over-provisioned: creep down
    }
    if (next != target_[d]) {
      target_[d] = next;
      domains_.write_max_ghz(d, next);
    }
  }
  last_util_ = util_sum / static_cast<double>(n);
}

}  // namespace magus::baseline
