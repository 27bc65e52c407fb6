#include "magus/exp/evaluation.hpp"

#include <string>
#include <cmath>
#include <set>
#include <tuple>

#include "magus/common/thread_pool.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/trace/burst.hpp"
#include "magus/wl/catalog.hpp"

namespace magus::exp {

AppEvaluation evaluate_app(const sim::SystemSpec& system, const std::string& app,
                           const EvalSpec& spec) {
  wl::PhaseProgram program = wl::make_workload(app);
  if (spec.gpu_workload_scale > 1) {
    program = wl::scale_for_gpus(program, spec.gpu_workload_scale);
  }
  AppEvaluation eval;
  eval.app = app;

  // One three-arm call: each repetition runs default, MAGUS and UPS as lanes
  // of one batch on the repetition's seed, sharing its noise draw, and the
  // repetitions fan out on the pool.
  const std::vector<AggregateResult> agg =
      run_repeated(system, program,
                   {{"default", spec.options}, {"magus", spec.options}, {"ups", spec.options}},
                   spec.repeat);
  eval.baseline = agg[0];
  eval.magus = agg[1];
  eval.ups = agg[2];
  eval.magus_vs_base = compare(eval.magus, eval.baseline);
  eval.ups_vs_base = compare(eval.ups, eval.baseline);
  return eval;
}

JaccardResult jaccard_for_app(const sim::SystemSpec& system, const std::string& app,
                              const RunOptions& opts, double threshold_fraction) {
  const wl::PhaseProgram program = wl::make_workload(app);

  RunOptions trace_opts = opts;
  trace_opts.engine.record_traces = true;

  const RunOutput base = run_policy(system, program, "static_max", trace_opts);
  const RunOutput magus = run_policy(system, program, "magus", trace_opts);

  const auto& base_ts = base.traces.series(trace::channel::kMemThroughput);
  const auto& magus_ts = magus.traces.series(trace::channel::kMemThroughput);

  JaccardResult out;
  out.app = app;
  out.threshold_mbps = trace::default_burst_threshold(base_ts, threshold_fraction);
  out.jaccard = trace::burst_jaccard(base_ts, magus_ts, out.threshold_mbps);
  return out;
}

std::vector<SweepPoint> sensitivity_sweep(const sim::SystemSpec& system,
                                          const std::string& app, const SweepSpec& spec) {
  const wl::PhaseProgram program = wl::make_workload(app);

  // Enumerate the whole grid first into a deduplicated work list (a keyed
  // set replaces the old O(n^2) rescan of `points` per combination; first
  // occurrence wins, preserving the serial enumeration order), then execute
  // the independent combinations in parallel into pre-sized slots.
  struct Combo {
    double inc, dec, hf;
  };
  std::vector<Combo> combos;
  std::set<std::tuple<double, double, double>> seen;
  auto add_combo = [&](double inc, double dec, double hf) {
    if (seen.emplace(inc, dec, hf).second) combos.push_back({inc, dec, hf});
  };

  // Fix two thresholds at the base values and vary the third (paper 6.4),
  // then add the full cross of the coarse grids to reach ~40 combinations.
  for (double inc : spec.inc_values) add_combo(inc, spec.base_dec, spec.base_hf);
  for (double dec : spec.dec_values) add_combo(spec.base_inc, dec, spec.base_hf);
  for (double hf : spec.hf_values) add_combo(spec.base_inc, spec.base_dec, hf);
  for (double inc : spec.inc_values) {
    for (double dec : spec.dec_values) {
      add_combo(inc, dec, spec.base_hf);
    }
  }
  for (double hf : spec.hf_values) {
    for (double inc : spec.inc_values) {
      add_combo(inc, spec.base_dec, hf);
    }
  }

  telemetry::Gauge* combos_total = nullptr;
  telemetry::Counter* combos_done = nullptr;
  if (spec.metrics) {
    combos_total = spec.metrics->gauge("magus_exp_sweep_combos",
                                       "Threshold combinations in the current sweep");
    combos_done = spec.metrics->counter("magus_exp_sweep_combos_completed_total",
                                        "Threshold combinations completed");
  }
  telemetry::set(combos_total, static_cast<double>(combos.size()));

  std::vector<SweepPoint> points(combos.size());
  common::default_pool().parallel_for_each(combos.size(), [&](std::size_t i) {
    const Combo& c = combos[i];
    RunOptions opts;
    opts.magus.inc_threshold = common::Mbps(c.inc);
    opts.magus.dec_threshold = common::Mbps(c.dec);
    opts.magus.high_freq_threshold = c.hf;
    opts.metrics = spec.metrics;
    const AggregateResult agg =
        run_repeated(system, program, "magus", spec.repeat, opts);
    telemetry::inc(combos_done);
    SweepPoint pt;
    pt.inc_threshold = c.inc;
    pt.dec_threshold = c.dec;
    pt.high_freq_threshold = c.hf;
    pt.runtime_s = agg.runtime.value();
    pt.energy_j = agg.total_energy().value();
    pt.is_recommended =
        c.inc == spec.base_inc && c.dec == spec.base_dec && c.hf == spec.base_hf;
    points[i] = pt;
  });

  std::vector<ParetoPoint> pp(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    pp[i] = {points[i].runtime_s, points[i].energy_j, i, false};
  }
  mark_pareto_front(pp);
  for (std::size_t i = 0; i < points.size(); ++i) points[i].on_front = pp[i].on_front;
  return points;
}

OverheadResult measure_overhead(const sim::SystemSpec& system, double idle_duration_s,
                                std::uint64_t seed) {
  const wl::PhaseProgram idle = idle_workload(idle_duration_s);

  RunOptions opts;
  opts.engine.seed = seed;
  opts.engine.record_traces = false;
  // Table 2 protocol: monitoring + phase detection only, no uncore scaling.
  opts.magus.scaling_enabled = false;
  opts.ups.scaling_enabled = false;

  const RunOutput base = run_policy(system, idle, "default", opts);
  const RunOutput magus = run_policy(system, idle, "magus", opts);
  const RunOutput ups = run_policy(system, idle, "ups", opts);

  auto cpu_power = [](const sim::SimResult& r) { return r.avg_cpu_power_w(); };

  OverheadResult out;
  out.system = system.name;
  out.idle_power_w = cpu_power(base.result);
  out.magus_power_overhead_pct =
      100.0 * (cpu_power(magus.result) - out.idle_power_w) / out.idle_power_w;
  out.ups_power_overhead_pct =
      100.0 * (cpu_power(ups.result) - out.idle_power_w) / out.idle_power_w;
  out.magus_invocation_s = magus.result.avg_invocation_s();
  out.ups_invocation_s = ups.result.avg_invocation_s();
  return out;
}

}  // namespace magus::exp
