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

#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

struct DufConfig {
  common::Seconds period{0.2};
  double low_util = 0.40;   ///< below: step the uncore down one ratio
  double high_util = 0.80;  ///< above: jump back to max
  /// Capacity model: deliverable MB/s per GHz of uncore (the controller's
  /// internal estimate; DUF calibrates this once per platform).
  double capacity_mbps_per_ghz = 72'000.0;
  bool scaling_enabled = true;
};

class DufController final : public core::IPolicy {
 public:
  /// `domains` (optional): a set exposing more than one domain switches DUF
  /// to per-domain mode -- utilisation computed per domain against its
  /// per-domain capacity share (capacity_mbps_per_ghz / domains), each
  /// domain walking the ladder independently. Null or one domain keeps the
  /// node-level loop bit-identical to the seed.
  DufController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                const hw::UncoreFreqLadder& ladder, DufConfig cfg = {},
                hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "duf"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  [[nodiscard]] common::Ghz current_target() const noexcept { return target_; }
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }

  /// Domains under independent control (1 in node-level mode).
  [[nodiscard]] int domain_count() const noexcept {
    return domains_ ? static_cast<int>(domain_target_.size()) : 1;
  }
  [[nodiscard]] common::Ghz domain_target(int domain) const noexcept {
    return domains_ ? domain_target_[static_cast<std::size_t>(domain)] : target_;
  }

 private:
  void sample_domains(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::UncoreFreqController uncore_;
  DufConfig cfg_;
  bool primed_ = false;
  double prev_mb_ = 0.0;
  double prev_t_ = 0.0;
  common::Ghz target_;
  double last_util_ = 0.0;

  // Per-domain mode (domains_ non-null).
  hw::IUncoreDomainSet* domains_ = nullptr;
  std::vector<double> domain_prev_mb_;
  std::vector<common::Ghz> domain_target_;
};

}  // namespace magus::baseline
