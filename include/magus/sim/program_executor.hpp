#pragma once
// ProgramExecutor: walks a PhaseProgram in "phase seconds". Progress advances
// at the node's progress rate, so memory starvation stretches wall-clock
// automatically. Each lane's run (sim::LaneRun) walks its program through
// one, in SimEngine and in BatchEngine alike.

#include <cstddef>

#include "magus/sim/kernel.hpp"
#include "magus/wl/phase.hpp"

namespace magus::sim {

class ProgramExecutor {
 public:
  explicit ProgramExecutor(const wl::PhaseProgram& program) : program_(&program) {}

  [[nodiscard]] bool done() const noexcept { return index_ >= program_->size(); }

  [[nodiscard]] WorkSlice slice() const {
    const auto& p = program_->phases()[index_];
    return {p.mem_demand_mbps, p.mem_bound_frac, p.cpu_util, p.gpu_util};
  }

  /// Advance by `progress_dt` phase seconds. True when that moved past the
  /// current phase -- slice() changed, or the program is done.
  bool advance(double progress_dt) {
    progress_ += progress_dt;
    bool moved = false;
    while (!done() && progress_ >= program_->phases()[index_].duration_s) {
      progress_ -= program_->phases()[index_].duration_s;
      ++index_;
      moved = true;
    }
    return moved;
  }

 private:
  const wl::PhaseProgram* program_;  // non-owning; pointer keeps the class movable
  std::size_t index_ = 0;
  double progress_ = 0.0;
};

}  // namespace magus::sim
