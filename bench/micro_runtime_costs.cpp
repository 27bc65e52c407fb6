// Google-benchmark microbenchmarks for the hot paths: the per-cycle cost of
// MAGUS's decision logic (which must be negligible next to the 0.1 s PCM
// sweep), MSR codec operations, the repetition-protocol fan-out and the
// telemetry primitives. Per-policy on_sample cost, the node tick and the
// run_policy tick rate are perfbench's traced sheet (perfbench/README.md).

#include <benchmark/benchmark.h>

#include <string>

#include "magus/common/thread_pool.hpp"
#include "magus/core/mdfs.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/hw/msr.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/telemetry/registry.hpp"

namespace {

using namespace magus;

void BM_PredictTrend(benchmark::State& state) {
  common::FixedWindow<double> w(2);
  w.push(12'000.0);
  w.push(95'000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::predict_trend(w, 2, common::Mbps(200.0), common::Mbps(500.0)));
  }
}
BENCHMARK(BM_PredictTrend);

void BM_HighFreqDetect(benchmark::State& state) {
  common::FixedWindow<int> w(10, 0);
  for (int i = 0; i < 5; ++i) w.push(i % 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_high_frequency(w, 0.4));
  }
}
BENCHMARK(BM_HighFreqDetect);

void BM_MdfsDecisionRound(benchmark::State& state) {
  core::MdfsController ctl(core::MagusConfig{}, common::Ghz(0.8), common::Ghz(2.2));
  double t = 0.3;
  double v = 10'000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.on_throughput(common::Seconds(t), common::Mbps(v)));
    t += 0.3;
    v = (v < 50'000.0) ? 120'000.0 : 10'000.0;  // keep both branches hot
  }
}
BENCHMARK(BM_MdfsDecisionRound);

void BM_Msr620Codec(benchmark::State& state) {
  std::uint64_t raw = 0x0816;
  for (auto _ : state) {
    auto limit = hw::UncoreRatioLimit::decode(raw);
    limit.max_ratio = (limit.max_ratio == 22) ? 8 : 22;
    raw = limit.encode(raw);
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_Msr620Codec);

// Serial-vs-parallel fan-out of the full repetition protocol (7 jittered
// reps x 3 policies, the Fig. 4 per-app unit of work). Arg = worker count;
// compare the real-time column of /jobs:1 vs /jobs:4 for the speedup. The
// aggregates are bit-identical at any job count (see DESIGN.md "Parallel
// execution"), so this measures pure executor overhead/scaling.
void BM_EvaluateAppRepeatProtocol(benchmark::State& state) {
  common::set_default_jobs(static_cast<std::size_t>(state.range(0)));
  exp::EvalSpec spec;
  spec.repeat.repetitions = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::evaluate_app(sim::intel_a100(), "unet", spec));
  }
  state.counters["jobs"] =
      benchmark::Counter(static_cast<double>(common::default_pool().size()));
  common::set_default_jobs(0);  // back to auto for any later benchmarks
}
BENCHMARK(BM_EvaluateAppRepeatProtocol)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Telemetry hot-path costs. The contract in DESIGN.md: one relaxed atomic
// when enabled, one branch when disabled (null handle), so instrumenting the
// 0.1 s sampling loop is free in either configuration.
void BM_TelemetryCounterInc(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* c = reg.counter("magus_bench_total");
  for (auto _ : state) {
    telemetry::inc(c);
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryNullHandleInc(benchmark::State& state) {
  telemetry::Counter* c = telemetry::null_registry().counter("magus_bench_total");
  for (auto _ : state) {
    telemetry::inc(c);  // c == nullptr: the disabled-telemetry branch
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TelemetryNullHandleInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram* h = reg.histogram("magus_bench_seconds", "",
                                          {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
  double v = 1e-6;
  for (auto _ : state) {
    telemetry::observe(h, v);
    v = v < 1.0 ? v * 10.0 : 1e-6;  // walk the buckets
  }
  benchmark::DoNotOptimize(h->count());
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRenderPrometheus(benchmark::State& state) {
  // A registry the size the daemon actually produces (~20 families).
  telemetry::MetricsRegistry reg;
  for (int i = 0; i < 16; ++i) {
    reg.counter("magus_bench_counter_" + std::to_string(i) + "_total", "help")->inc(7);
    reg.gauge("magus_bench_gauge_" + std::to_string(i), "help")->set(1.5 + i);
  }
  reg.histogram("magus_bench_seconds", "help", {1e-4, 1e-2, 1.0})->observe(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.render_prometheus());
  }
}
BENCHMARK(BM_TelemetryRenderPrometheus);

}  // namespace

BENCHMARK_MAIN();
