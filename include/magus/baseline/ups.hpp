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

#include <cstdint>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {

struct UpsConfig {
  common::Seconds period{0.2};    ///< same monitoring period as MAGUS
  double dram_phase_rel = 0.12;   ///< relative DRAM-power swing marking a phase change
  double ipc_guard = 0.92;        ///< step down while ipc >= guard * phase-best IPC
  bool scaling_enabled = true;    ///< false = monitor-only (Table 2 protocol)
};

class UpsController final : public core::IPolicy {
 public:
  /// `domains` (optional): a set exposing more than one domain switches UPS
  /// to per-package mode -- phase boundaries detected on each socket's own
  /// DRAM power, one scavenging target per socket applied to all of that
  /// socket's dies (IPC stays a node-level guard: per-core counters carry
  /// no die affinity, a documented simplification). Null or one domain
  /// keeps the node-level loop bit-identical to the seed.
  UpsController(hw::IEnergyCounter& energy, hw::ICoreCounters& cores, hw::IMsrDevice& msr,
                const hw::UncoreFreqLadder& ladder, UpsConfig cfg = {},
                hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "ups"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  void on_start(common::Seconds now) override;
  void on_sample(common::Seconds now) override;

  [[nodiscard]] common::Ghz current_target() const noexcept { return target_; }
  [[nodiscard]] double last_ipc() const noexcept { return last_ipc_; }
  [[nodiscard]] common::Watts last_dram_power() const noexcept { return last_dram_; }
  [[nodiscard]] unsigned long long phase_changes() const noexcept { return phase_changes_; }

  /// Sockets under independent control (1 in node-level mode).
  [[nodiscard]] int controlled_sockets() const noexcept {
    return domains_ ? static_cast<int>(socket_target_.size()) : 1;
  }
  [[nodiscard]] common::Ghz socket_target(int socket) const noexcept {
    return domains_ ? socket_target_[static_cast<std::size_t>(socket)] : target_;
  }

 private:
  /// Sweep all counters the real UPS reads each cycle. In per-package mode
  /// the same reads additionally land in `dram_j_by_socket` (same counter
  /// traffic, finer attribution).
  struct Snapshot {
    double dram_j = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::vector<double> dram_j_by_socket;  ///< filled in per-package mode only
  };
  Snapshot sweep();
  void sample_domains(common::Seconds now, const Snapshot& cur, double dt);
  /// Apply one socket's target to all of its dies.
  void write_socket(int socket, common::Ghz ghz);

  hw::IEnergyCounter& energy_;
  hw::ICoreCounters& cores_;
  hw::UncoreFreqController uncore_;
  UpsConfig cfg_;
  bool primed_ = false;
  Snapshot prev_;
  double prev_t_ = 0.0;
  common::Ghz target_;
  double last_ipc_ = 0.0;
  common::Watts last_dram_{0.0};
  double phase_ref_dram_w_ = -1.0;
  double phase_best_ipc_ = 0.0;
  unsigned long long phase_changes_ = 0;

  // Per-package mode (domains_ non-null).
  hw::IUncoreDomainSet* domains_ = nullptr;
  int dies_per_socket_ = 1;
  std::vector<common::Ghz> socket_target_;
  std::vector<double> socket_phase_ref_w_;
  std::vector<double> socket_best_ipc_;
};

}  // namespace magus::baseline
