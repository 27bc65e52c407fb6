#pragma once
// Batched experiment wiring: the BatchEngine counterpart of exp::run_policy.
//
// A BatchRun collects (system, workload, policy, options) jobs, binds each
// job's policy (built from the core::PolicyFactory table) and fault
// decorators to its batch lane through exp::bind_policy -- the same function
// run_policy binds a SimEngine with -- then advances every lane through the
// shared lane storage. Per job the output is bit-identical to run_policy on
// the same inputs (minus traces, which the batch path never records).
//
// Two callers: fleet::FleetRunner (a shard's nodes and their default twins)
// and exp::run_repeated (two repetitions' policy arms). Jobs on one engine
// seed share a single noise draw (sim/batch_engine.hpp).

#include <cstddef>
#include <deque>
#include <exception>
#include <string>

#include "magus/exp/experiment.hpp"
#include "magus/sim/batch_engine.hpp"

namespace magus::exp {

class BatchRun {
 public:
  BatchRun() = default;
  // Jobs point at the engine and at each other; pin the address.
  BatchRun(const BatchRun&) = delete;
  BatchRun& operator=(const BatchRun&) = delete;

  /// Queue one job; returns its index. Policy names are looked up in the
  /// core::PolicyFactory table like run_policy; an unknown name, a maker
  /// that throws, or invalid options propagate out of this call.
  /// opts.engine.record_traces must be false. With opts.metrics set, the
  /// finished run counts into the engine series as run_policy's does, and
  /// policy-level metrics/events pass through unchanged. The policy keeps
  /// pointers into `opts`, which must outlive the BatchRun.
  std::size_t add(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                  const std::string& policy, const RunOptions& opts);

  /// Run every queued job. Call at most once.
  void run_all();

  /// True when the job's policy threw (at start or at a sample boundary).
  [[nodiscard]] bool failed(std::size_t job) const { return engine_.lane_failed(job); }
  [[nodiscard]] const std::string& error(std::size_t job) const {
    return engine_.lane_error(job);
  }
  /// The failed job's exception, type intact (null unless failed(job)).
  [[nodiscard]] std::exception_ptr exception(std::size_t job) const {
    return engine_.lane_exception(job);
  }
  /// Output of a successful job (unspecified when failed(job)).
  [[nodiscard]] const RunOutput& output(std::size_t job) const {
    return jobs_[job].out;
  }

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_.size(); }
  [[nodiscard]] unsigned long long total_ticks() const noexcept {
    return engine_.total_ticks();
  }
  /// Lane ticks made two at a time and at width 1 (sim::BatchEngine).
  [[nodiscard]] unsigned long long pair_lane_ticks() const noexcept {
    return engine_.pair_lane_ticks();
  }
  [[nodiscard]] unsigned long long single_lane_ticks() const noexcept {
    return engine_.single_lane_ticks();
  }

 private:
  struct Job {
    PolicyBinding binding;
    RunOutput out;
  };

  sim::BatchEngine engine_;
  std::deque<Job> jobs_;  ///< stable addresses: hooks capture into these
};

}  // namespace magus::exp
