#include "magus/baseline/ups.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace magus::baseline {

UpsController::UpsController(hw::IEnergyCounter& energy, hw::ICoreCounters& cores,
                             hw::IMsrDevice& msr, const hw::UncoreFreqLadder& ladder,
                             UpsConfig cfg, hw::IUncoreDomainSet* domains)
    : energy_(energy),
      cores_(cores),
      uncore_(msr, ladder),
      cfg_(cfg),
      target_(ladder.max_ghz()) {
  if (domains != nullptr && domains->domain_count() > 1) {
    domains_ = domains;
    const auto sockets = static_cast<std::size_t>(energy.socket_count());
    dies_per_socket_ = domains->domain_count() / energy.socket_count();
    socket_target_.assign(sockets, common::Ghz(ladder.max_ghz()));
    socket_phase_ref_w_.assign(sockets, -1.0);
    socket_best_ipc_.assign(sockets, 0.0);
  }
}

UpsController::Snapshot UpsController::sweep() {
  Snapshot s;
  if (domains_) s.dram_j_by_socket.reserve(socket_target_.size());
  for (int sock = 0; sock < energy_.socket_count(); ++sock) {
    const double j = energy_.dram_energy_j(sock);
    s.dram_j += j;
    if (domains_) s.dram_j_by_socket.push_back(j);
  }
  // The expensive part: two MSR reads for every core in the node.
  for (int c = 0; c < cores_.core_count(); ++c) {
    s.instructions += cores_.instructions_retired(c);
    s.cycles += cores_.cycles_unhalted(c);
  }
  return s;
}

void UpsController::write_socket(int socket, common::Ghz ghz) {
  for (int die = 0; die < dies_per_socket_; ++die) {
    domains_->write_max_ghz(socket * dies_per_socket_ + die, ghz);
  }
}

void UpsController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    if (domains_) {
      for (std::size_t s = 0; s < socket_target_.size(); ++s) {
        write_socket(static_cast<int>(s), common::Ghz(uncore_.ladder().max_ghz()));
        socket_target_[s] = common::Ghz(uncore_.ladder().max_ghz());
      }
    } else {
      uncore_.set_max_ghz_all(uncore_.ladder().max_ghz());
    }
    target_ = common::Ghz(uncore_.ladder().max_ghz());
  }
  prev_ = sweep();
  prev_t_ = now.value();
  primed_ = true;
}

void UpsController::on_sample(common::Seconds now) {
  const Snapshot cur = sweep();
  if (!primed_) {
    prev_ = cur;
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;

  last_dram_ = common::Watts((cur.dram_j - prev_.dram_j) / dt);
  const auto dcycles = static_cast<double>(cur.cycles - prev_.cycles);
  const auto dinst = static_cast<double>(cur.instructions - prev_.instructions);
  last_ipc_ = dcycles > 0.0 ? dinst / dcycles : 0.0;
  if (domains_) {
    sample_domains(now, cur, dt);
    prev_ = cur;
    prev_t_ = now.value();
    return;
  }
  prev_ = cur;
  prev_t_ = now.value();

  const auto& ladder = uncore_.ladder();

  // Phase-boundary detection on DRAM power.
  const double last_dram_w = last_dram_.value();
  const bool phase_change =
      phase_ref_dram_w_ < 0.0 ||
      std::abs(last_dram_w - phase_ref_dram_w_) >
          cfg_.dram_phase_rel * std::max(phase_ref_dram_w_, 1.0);
  if (phase_change) {
    ++phase_changes_;
    phase_ref_dram_w_ = last_dram_w;
    phase_best_ipc_ = last_ipc_;
    target_ = common::Ghz(ladder.max_ghz());
    if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
    return;
  }

  phase_best_ipc_ = std::max(phase_best_ipc_, last_ipc_);

  // Within a phase: scavenge downward while IPC holds, back off when it slips.
  if (last_ipc_ >= cfg_.ipc_guard * phase_best_ipc_) {
    const common::Ghz next(ladder.step_down(target_.value()));
    if (next != target_) {
      target_ = next;
      if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
    }
  } else {
    const common::Ghz next(ladder.step_up(target_.value()));
    if (next != target_) {
      target_ = next;
      if (cfg_.scaling_enabled) uncore_.set_max_ghz_all(target_.value());
    }
  }
}

void UpsController::sample_domains(common::Seconds now, const Snapshot& cur, double dt) {
  (void)now;
  const auto& ladder = uncore_.ladder();
  for (std::size_t s = 0; s < socket_target_.size(); ++s) {
    const double dram_w = (cur.dram_j_by_socket[s] - prev_.dram_j_by_socket[s]) / dt;

    // Phase-boundary detection on this socket's own DRAM power.
    const bool phase_change =
        socket_phase_ref_w_[s] < 0.0 ||
        std::abs(dram_w - socket_phase_ref_w_[s]) >
            cfg_.dram_phase_rel * std::max(socket_phase_ref_w_[s], 1.0);
    if (phase_change) {
      ++phase_changes_;
      socket_phase_ref_w_[s] = dram_w;
      socket_best_ipc_[s] = last_ipc_;
      socket_target_[s] = common::Ghz(ladder.max_ghz());
      if (cfg_.scaling_enabled) {
        write_socket(static_cast<int>(s), socket_target_[s]);
      }
      continue;
    }

    socket_best_ipc_[s] = std::max(socket_best_ipc_[s], last_ipc_);

    // Within a phase: scavenge this socket downward while node IPC holds.
    common::Ghz next = socket_target_[s];
    if (last_ipc_ >= cfg_.ipc_guard * socket_best_ipc_[s]) {
      next = common::Ghz(ladder.step_down(socket_target_[s].value()));
    } else {
      next = common::Ghz(ladder.step_up(socket_target_[s].value()));
    }
    if (next != socket_target_[s]) {
      socket_target_[s] = next;
      if (cfg_.scaling_enabled) {
        write_socket(static_cast<int>(s), next);
      }
    }
  }
  // Diagnostics mirror the node-level fields: worst (lowest) socket target.
  common::Ghz lo = socket_target_[0];
  for (const common::Ghz g : socket_target_) {
    if (g.value() < lo.value()) lo = g;
  }
  target_ = lo;
}

}  // namespace magus::baseline
