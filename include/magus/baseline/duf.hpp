#pragma once
// DUF-style baseline (Andre, Dulong, Guermouche, Trahay 2022 -- cited by the
// paper as the prior dynamic uncore-frequency approach, refs [5]/[6]).
//
// DUF watches memory *bandwidth utilisation* (delivered throughput relative
// to the capacity the current uncore frequency can serve) and walks the
// ladder gradually: utilisation below a low-water mark means the uncore is
// over-provisioned (step down); above a high-water mark means the workload
// is bandwidth-hungry (return to max). Like MAGUS it reads one aggregated
// throughput counter; unlike MAGUS it has neither trend prediction nor
// high-frequency detection, so it reacts a step at a time and chases
// oscillation.

#include <algorithm>
#include <vector>

#include "magus/baseline/constants.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

class DufController final : public core::IPolicy {
 public:
  /// `domains` (optional): a set exposing more than one domain makes DUF
  /// walk each domain independently, its utilisation measured against its
  /// share of the calibrated capacity (kCapacityMbpsPerGhz / domains).
  /// Otherwise the whole node is the one domain (hw::UncoreDomains).
  DufController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                const hw::UncoreFreqLadder& ladder, hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "duf"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  /// Lowest domain target (the node's target when the node is one domain).
  [[nodiscard]] common::Ghz current_target() const noexcept {
    return *std::min_element(target_.begin(), target_.end());
  }
  /// Mean utilisation over the domains in the last sample.
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }

 private:
  void prime(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::UncoreDomains domains_;
  bool primed_ = false;
  double prev_t_ = 0.0;
  double last_util_ = 0.0;
  std::vector<double> prev_mb_;        ///< per-domain cumulative baseline
  std::vector<common::Ghz> target_;    ///< per-domain target
};

}  // namespace magus::baseline
