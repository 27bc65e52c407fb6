#include "magus/baseline/ups.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace magus::baseline {

namespace {
constexpr double kDramPhaseRel = 0.12;  ///< relative DRAM-power swing marking a phase change
constexpr double kIpcGuard = 0.92;      ///< step down while ipc >= guard * phase-best IPC
}  // namespace

UpsController::UpsController(hw::IEnergyCounter& energy, hw::ICoreCounters& cores,
                             hw::IMsrDevice& msr, const hw::UncoreFreqLadder& ladder,
                             UpsConfig cfg, hw::IUncoreDomainSet* domains)
    : energy_(energy),
      cores_(cores),
      domains_(domains, msr, ladder),
      cfg_(cfg) {
  // A socket's dies form one group; the whole node (one domain) is one
  // group spanning every socket.
  const auto sockets = static_cast<std::size_t>(std::max(1, energy.socket_count()));
  domains_per_group_ = std::max<std::size_t>(1, domains_.size() / sockets);
  const std::size_t groups = domains_.size() / domains_per_group_;
  sockets_per_group_ = sockets / groups;
  prev_.group_dram_j.assign(groups, 0.0);
  cur_.group_dram_j.assign(groups, 0.0);
  group_target_.assign(groups, common::Ghz(ladder.max_ghz()));
  group_phase_ref_w_.assign(groups, -1.0);
  group_best_ipc_.assign(groups, 0.0);
}

void UpsController::sweep(Snapshot& out) {
  out.dram_j = 0.0;
  std::fill(out.group_dram_j.begin(), out.group_dram_j.end(), 0.0);
  for (int sock = 0; sock < energy_.socket_count(); ++sock) {
    const double j = energy_.dram_energy_j(sock);
    out.dram_j += j;
    out.group_dram_j[static_cast<std::size_t>(sock) / sockets_per_group_] += j;
  }
  // The expensive part: two MSR reads for every core in the node.
  out.instructions = 0;
  out.cycles = 0;
  for (int c = 0; c < cores_.core_count(); ++c) {
    out.instructions += cores_.instructions_retired(c);
    out.cycles += cores_.cycles_unhalted(c);
  }
}

void UpsController::write_group(std::size_t group, common::Ghz ghz) {
  for (std::size_t d = 0; d < domains_per_group_; ++d) {
    domains_.write_max_ghz(group * domains_per_group_ + d, ghz);
  }
}

void UpsController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    const common::Ghz max{domains_.ladder().max_ghz()};
    for (std::size_t g = 0; g < group_target_.size(); ++g) {
      write_group(g, max);
      group_target_[g] = max;
    }
  }
  sweep(prev_);
  prev_t_ = now.value();
  primed_ = true;
}

void UpsController::on_sample(common::Seconds now) {
  sweep(cur_);
  if (!primed_) {
    std::swap(prev_, cur_);
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;

  last_dram_ = common::Watts((cur_.dram_j - prev_.dram_j) / dt);
  const auto dcycles = static_cast<double>(cur_.cycles - prev_.cycles);
  const auto dinst = static_cast<double>(cur_.instructions - prev_.instructions);
  last_ipc_ = dcycles > 0.0 ? dinst / dcycles : 0.0;

  const auto& ladder = domains_.ladder();
  for (std::size_t g = 0; g < group_target_.size(); ++g) {
    const double dram_w = (cur_.group_dram_j[g] - prev_.group_dram_j[g]) / dt;

    // Phase-boundary detection on the group's own DRAM power.
    const bool phase_change =
        group_phase_ref_w_[g] < 0.0 ||
        std::abs(dram_w - group_phase_ref_w_[g]) >
            kDramPhaseRel * std::max(group_phase_ref_w_[g], 1.0);
    if (phase_change) {
      ++phase_changes_;
      group_phase_ref_w_[g] = dram_w;
      group_best_ipc_[g] = last_ipc_;
      group_target_[g] = common::Ghz(ladder.max_ghz());
      if (cfg_.scaling_enabled) write_group(g, group_target_[g]);
      continue;
    }

    group_best_ipc_[g] = std::max(group_best_ipc_[g], last_ipc_);

    // Within a phase: scavenge downward while node IPC holds, back off when
    // it slips.
    const common::Ghz next =
        last_ipc_ >= kIpcGuard * group_best_ipc_[g]
            ? common::Ghz(ladder.step_down(group_target_[g].value()))
            : common::Ghz(ladder.step_up(group_target_[g].value()));
    if (next != group_target_[g]) {
      group_target_[g] = next;
      if (cfg_.scaling_enabled) write_group(g, next);
    }
  }
  std::swap(prev_, cur_);
  prev_t_ = now.value();
}

}  // namespace magus::baseline
