#include "magus/exp/batch.hpp"

#include <utility>

namespace magus::exp {

std::size_t BatchRun::add(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                          const std::string& policy, const RunOptions& opts) {
  const std::size_t lane = engine_.add_lane(system, workload, opts.engine);
  Job& job = jobs_.emplace_back();  // deque: stable for the engine's life
  sim::PolicyHook hook =
      bind_policy(job.binding, engine_.backends(lane), system, policy, opts, job.out.faults);
  engine_.set_hook(lane, std::move(hook));
  if (opts.metrics) engine_.attach_telemetry(lane, *opts.metrics);
  return lane;
}

void BatchRun::run_all() {
  engine_.run_all();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    // A job whose add() threw has no policy; its index was never handed out.
    if (engine_.lane_failed(i) || !job.binding.policy) continue;
    job.out.result = engine_.result(i);
    job.out.policy_degraded = job.binding.policy->degraded();
  }
}

}  // namespace magus::exp
