#include "magus/exp/repeat.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/stats.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/exp/batch.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/jitter.hpp"

namespace magus::exp {

namespace {

AggregateResult aggregate(const std::vector<sim::SimResult>& results) {
  // magus:rollup-begin -- serial aggregation in repetition order; ordered
  // containers only (see the unordered-rollup lint rule).
  std::vector<double> runtime, pkg_j, dram_j, gpu_j, cpu_w, gpu_w, invoc;
  for (const sim::SimResult& r : results) {
    runtime.push_back(r.duration_s);
    pkg_j.push_back(r.pkg_energy_j);
    dram_j.push_back(r.dram_energy_j);
    gpu_j.push_back(r.gpu_energy_j);
    cpu_w.push_back(r.avg_cpu_power_w());
    gpu_w.push_back(r.avg_gpu_power_w);
    invoc.push_back(r.avg_invocation_s());
  }

  AggregateResult agg;
  agg.runtime = common::Seconds(common::mean_without_outliers(runtime));
  agg.pkg_energy = common::Joules(common::mean_without_outliers(pkg_j));
  agg.dram_energy = common::Joules(common::mean_without_outliers(dram_j));
  agg.gpu_energy = common::Joules(common::mean_without_outliers(gpu_j));
  agg.avg_cpu_power = common::Watts(common::mean_without_outliers(cpu_w));
  agg.avg_gpu_power = common::Watts(common::mean_without_outliers(gpu_w));
  agg.avg_invocation = common::Seconds(common::mean_without_outliers(invoc));
  agg.reps_total = static_cast<int>(results.size());
  agg.reps_used = static_cast<int>(common::iqr_filter(runtime).size());
  return agg;
  // magus:rollup-end
}

}  // namespace

std::vector<std::vector<sim::SimResult>> run_repetitions(const sim::SystemSpec& system,
                                                         const wl::PhaseProgram& workload,
                                                         const std::vector<Arm>& arms,
                                                         const RepeatSpec& spec) {
  if (spec.repetitions < 1 || spec.repetitions > kMaxRepetitions) {
    throw common::ConfigError("run_repeated: repetitions must be in [1, " +
                              std::to_string(kMaxRepetitions) + "]");
  }

  // Repetitions are independent simulations: each forks its own Rng stream
  // from the master (fork does not advance master state) and seeds its own
  // lanes, so they can run on any worker in any order. Two consecutive
  // repetitions share one BatchRun, so that the arm each leaves out of its
  // pairs (UPS, in the Fig. 4 comparison) pairs with the other's; an odd
  // last repetition runs alone. Results land in slot [arm][rep]; aggregation
  // walks the slots serially in rep order, so the numbers are bit-identical
  // to the serial loop for any job count.
  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
  std::vector<std::vector<sim::SimResult>> runs(arms.size(),
                                                std::vector<sim::SimResult>(reps));
  const common::Rng master(spec.seed);

  std::vector<telemetry::Counter*> reps_done(arms.size(), nullptr);
  for (std::size_t a = 0; a < arms.size(); ++a) {
    if (telemetry::MetricsRegistry* reg = arms[a].options.metrics) {
      reps_done[a] =
          reg->counter("magus_exp_reps_completed_total", "Experiment repetitions completed");
    }
  }

  constexpr std::size_t kRepsPerBatch = 2;
  const std::size_t chunks = (reps + kRepsPerBatch - 1) / kRepsPerBatch;
  common::default_pool().parallel_for_each(chunks, [&](std::size_t chunk) {
    const std::size_t first = chunk * kRepsPerBatch;
    const std::size_t count = std::min(kRepsPerBatch, reps - first);
    // Policies keep pointers into their options: the copies outlive `batch`.
    // Lane (r, a) -- arm a of repetition first + r -- is job r * arms + a.
    std::vector<RunOptions> rep_opts(count * arms.size());
    BatchRun batch;
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t rep = first + r;
      common::Rng rep_rng = master.fork(static_cast<std::uint64_t>(rep));
      const wl::PhaseProgram jittered = wl::apply_jitter(workload, rep_rng, spec.jitter);
      for (std::size_t a = 0; a < arms.size(); ++a) {
        RunOptions& opts = rep_opts[r * arms.size() + a];
        opts = arms[a].options;
        opts.engine.seed = spec.seed * 1000003ull + static_cast<std::uint64_t>(rep);
        opts.engine.record_traces = false;  // scalar metrics only; traces cost memory
        (void)batch.add(system, jittered, arms[a].policy, opts);
      }
    }
    batch.run_all();
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t a = 0; a < arms.size(); ++a) {
        const std::size_t job = r * arms.size() + a;
        if (batch.failed(job)) std::rethrow_exception(batch.exception(job));
        runs[a][first + r] = batch.output(job).result;
        telemetry::inc(reps_done[a]);
      }
    }
  });
  return runs;
}

std::vector<AggregateResult> run_repeated(const sim::SystemSpec& system,
                                          const wl::PhaseProgram& workload,
                                          const std::vector<Arm>& arms,
                                          const RepeatSpec& spec) {
  std::vector<AggregateResult> out;
  out.reserve(arms.size());
  for (const std::vector<sim::SimResult>& arm_runs :
       run_repetitions(system, workload, arms, spec)) {
    out.push_back(aggregate(arm_runs));
  }
  return out;
}

AggregateResult run_repeated(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                             const std::string& policy, const RepeatSpec& spec,
                             const RunOptions& opts) {
  return run_repeated(system, workload, {Arm{policy, opts}}, spec).front();
}

}  // namespace magus::exp
