#pragma once
// UPS (Uncore Power Scavenger, Gholkar et al. SC'19) reimplementation.
//
// The paper compares against UPS rebuilt from its published description
// (no open-source release exists); we do the same. Per monitoring cycle UPS
// reads DRAM power and per-core IPC -- instructions retired and unhalted
// cycles through each core's MSRs -- then:
//   * a significant DRAM-power swing marks a phase boundary: reset the
//     uncore to max and re-baseline;
//   * otherwise step the uncore down one ratio as long as IPC stays within
//     a guard band of the phase-best IPC, stepping back up when it slips.
// The per-core MSR sweep is what makes UPS's invocation ~3x longer and its
// power overhead 4-8x higher than MAGUS (Table 2), reproduced emergently by
// the engine's access metering.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "magus/baseline/constants.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

struct UpsConfig {
  bool scaling_enabled = true;  ///< false = monitor-only (Table 2 protocol)
};

class UpsController final : public core::IPolicy {
 public:
  /// `domains` (optional): a set exposing more than one domain makes UPS
  /// control each socket on its own -- phase boundaries detected on the
  /// socket's own DRAM power, one scavenging target per socket applied to
  /// all of that socket's dies (IPC stays a node-level guard: per-core
  /// counters carry no die affinity, a documented simplification).
  /// Otherwise the whole node is the one domain (hw::UncoreDomains) and one
  /// target covers every socket.
  UpsController(hw::IEnergyCounter& energy, hw::ICoreCounters& cores, hw::IMsrDevice& msr,
                const hw::UncoreFreqLadder& ladder, UpsConfig cfg = {},
                hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "ups"; }
  [[nodiscard]] double period_s() const override { return kPeriodS; }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  /// Lowest group target (the node's target when the node is one domain).
  [[nodiscard]] common::Ghz current_target() const noexcept {
    return *std::min_element(group_target_.begin(), group_target_.end());
  }
  [[nodiscard]] double last_ipc() const noexcept { return last_ipc_; }
  [[nodiscard]] common::Watts last_dram_power() const noexcept { return last_dram_; }
  [[nodiscard]] unsigned long long phase_changes() const noexcept { return phase_changes_; }

 private:
  /// Sweep all counters the real UPS reads each cycle. DRAM joules also land
  /// in `group_dram_j` per socket group (same counter traffic either way).
  struct Snapshot {
    double dram_j = 0.0;
    std::vector<double> group_dram_j;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
  };
  void sweep(Snapshot& out);
  /// Apply one group's target to all of its domains.
  void write_group(std::size_t group, common::Ghz ghz);

  hw::IEnergyCounter& energy_;
  hw::ICoreCounters& cores_;
  hw::UncoreDomains domains_;
  UpsConfig cfg_;
  std::size_t domains_per_group_ = 1;
  std::size_t sockets_per_group_ = 1;
  bool primed_ = false;
  Snapshot prev_;
  Snapshot cur_;  ///< per-sample scratch
  double prev_t_ = 0.0;
  double last_ipc_ = 0.0;
  common::Watts last_dram_{0.0};
  unsigned long long phase_changes_ = 0;
  std::vector<common::Ghz> group_target_;
  std::vector<double> group_phase_ref_w_;
  std::vector<double> group_best_ipc_;
};

}  // namespace magus::baseline
