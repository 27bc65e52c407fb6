#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "magus/common/error.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/sim/batch_engine.hpp"
#include "magus/sim/engine.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/patterns.hpp"
#include "sim_result_fields.hpp"

namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {
mw::PhaseProgram simple_program(double duration = 2.0, double demand = 20'000.0) {
  return mw::PhaseProgram(
      "test", {mw::patterns::steady("p", duration, demand, 0.3, 0.1, 0.5)});
}

struct PolicyFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};
}  // namespace

TEST(SimEngine, RunsToCompletion) {
  ms::SimEngine engine(ms::intel_a100(), simple_program());
  const auto r = engine.run();
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.duration_s, 2.0, 0.01);
  EXPECT_GT(r.pkg_energy_j, 0.0);
  EXPECT_GT(r.gpu_energy_j, 0.0);
  EXPECT_EQ(r.invocations, 0ull);  // default policy has no monitoring loop
}

TEST(SimEngine, RejectsBadConfig) {
  ms::EngineConfig cfg;
  cfg.tick_s = 0.0;
  EXPECT_THROW(ms::SimEngine(ms::intel_a100(), simple_program(), cfg),
               magus::common::ConfigError);
}

TEST(EngineConfigValidation, RejectsNonFiniteAndNonPositiveSteps) {
  // A NaN step used to pass the `<= 0` check, and SimEngine::run then
  // never returned. Both engines now throw at construction, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 0.0, -0.002}) {
    ms::EngineConfig cfg;
    cfg.record_traces = false;
    cfg.tick_s = bad;
    SCOPED_TRACE("tick_s = " + std::to_string(bad));
    try {
      ms::SimEngine engine(ms::intel_a100(), simple_program(1.0), cfg);
      ADD_FAILURE() << "SimEngine accepted the config";
    } catch (const magus::common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("tick_s"), std::string::npos) << e.what();
    }
    ms::BatchEngine batch;
    try {
      batch.add_lane(ms::intel_a100(), simple_program(1.0), cfg);
      ADD_FAILURE() << "BatchEngine accepted the config";
    } catch (const magus::common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("tick_s"), std::string::npos) << e.what();
    }
  }
}

TEST(SimEngine, SafetyCapBoundsRuntime) {
  // A workload whose demand can never be delivered at any frequency still
  // terminates at the cap.
  mw::PhaseProgram p("stuck", {{"impossible", 1.0, 1e9, 1.0, 0.1, 0.5}});
  ms::EngineConfig cfg;
  cfg.max_sim_s = 3.0;
  ms::SimEngine engine(ms::intel_a100(), p, cfg);
  const auto r = engine.run();
  EXPECT_FALSE(r.completed);
  EXPECT_NEAR(r.duration_s, 3.0, 0.01);
}

TEST(SimEngine, RecordsCanonicalChannels) {
  ms::SimEngine engine(ms::intel_a100(), simple_program());
  engine.run();
  const auto& rec = engine.recorder();
  for (const char* ch :
       {magus::trace::channel::kMemThroughput, magus::trace::channel::kUncoreFreq,
        magus::trace::channel::kPkgPower, magus::trace::channel::kGpuPower,
        magus::trace::channel::kGpuClock, magus::trace::channel::kTotalPower}) {
    EXPECT_TRUE(rec.has(ch)) << ch;
  }
  EXPECT_TRUE(rec.has(std::string(magus::trace::channel::kCoreFreq) + "_0"));
}

TEST(SimEngine, TraceRecordingCanBeDisabled) {
  ms::EngineConfig cfg;
  cfg.record_traces = false;
  ms::SimEngine engine(ms::intel_a100(), simple_program(), cfg);
  engine.run();
  EXPECT_TRUE(engine.recorder().channels().empty());
}

TEST(SimEngine, PolicyCallbacksFireOnSchedule) {
  ms::SimEngine engine(ms::intel_a100(), simple_program(4.0));
  int starts = 0;
  int samples = 0;
  ms::PolicyHook hook;
  hook.name = "counter";
  hook.period_s = 0.2;
  hook.on_start = [&](magus::common::Seconds) { ++starts; };
  hook.on_sample = [&](magus::common::Seconds) { ++samples; };
  const auto r = engine.run(hook);
  EXPECT_EQ(starts, 1);
  // Zero-cost policy: one sample every 0.2 s over 4 s.
  EXPECT_NEAR(static_cast<double>(samples), 20.0, 2.0);
  EXPECT_EQ(r.invocations, static_cast<unsigned long long>(samples));
}

TEST(SimEngine, InvocationCostDelaysNextSample) {
  // A policy that reads one PCM counter (0.1 s) per sample runs at a
  // 0.1 + 0.2 = 0.3 s cadence -- the paper's section 6.5 arithmetic.
  ms::SimEngine engine(ms::intel_a100(), simple_program(6.0));
  int samples = 0;
  ms::PolicyHook hook;
  hook.name = "pcm_reader";
  hook.period_s = 0.2;
  hook.on_sample = [&](magus::common::Seconds) {
    ++samples;
    (void)engine.mem_counter().total_mb();
  };
  const auto r = engine.run(hook);
  EXPECT_NEAR(static_cast<double>(samples), 6.0 / 0.3, 2.0);
  EXPECT_NEAR(r.avg_invocation_s(), 0.1, 0.005);
}

TEST(SimEngine, MonitorPowerChargedWhileBusy) {
  // Same workload; a counter-heavy policy must raise package energy.
  auto run_with_reads = [](int reads_per_sample) {
    ms::EngineConfig cfg;
    cfg.record_traces = false;
    ms::SimEngine engine(ms::intel_a100(), simple_program(5.0), cfg);
    ms::PolicyHook hook;
    hook.name = "reader";
    hook.period_s = 0.2;
    hook.on_sample = [&engine, reads_per_sample](magus::common::Seconds) {
      for (int i = 0; i < reads_per_sample; ++i) {
        (void)engine.core_counters().cycles_unhalted(i % 80);
      }
    };
    return engine.run(hook).pkg_energy_j;
  };
  EXPECT_GT(run_with_reads(160), run_with_reads(1));
}

TEST(SimEngine, AvgPowersConsistentWithEnergies) {
  ms::SimEngine engine(ms::intel_a100(), simple_program());
  const auto r = engine.run();
  EXPECT_NEAR(r.avg_pkg_power_w * r.duration_s, r.pkg_energy_j, 1e-6);
  EXPECT_NEAR(r.avg_gpu_power_w * r.duration_s, r.gpu_energy_j, 1e-6);
  EXPECT_DOUBLE_EQ(r.cpu_energy_j(), r.pkg_energy_j + r.dram_energy_j);
  EXPECT_DOUBLE_EQ(r.total_energy_j(), r.cpu_energy_j() + r.gpu_energy_j);
}

TEST(SimEngine, MultiPhaseProgramsAdvance) {
  mw::PhaseProgram p("two", {{"a", 1.0, 10'000.0, 0.2, 0.1, 0.3},
                             {"b", 1.0, 90'000.0, 0.7, 0.1, 0.9}});
  ms::SimEngine engine(ms::intel_a100(), p);
  const auto r = engine.run();
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.duration_s, 2.0, 0.05);
  // The throughput trace must show both levels.
  const auto& ts = engine.recorder().series(magus::trace::channel::kMemThroughput);
  EXPECT_GT(ts.max_value(), 80'000.0);
  EXPECT_LT(ts.min_value(), 20'000.0);
}

TEST(SimEngine, PolicyThrowKeepsItsType) {
  // The lane run catches a policy's throw (so a BatchEngine lane fails
  // alone); SimEngine::run rethrows it, so its caller still sees the type
  // and value that were thrown. A run that throws is not counted.
  magus::telemetry::MetricsRegistry reg;
  const auto run = [&reg](const ms::PolicyHook& hook) {
    ms::SimEngine engine(ms::intel_a100(), simple_program());
    engine.attach_telemetry(reg);
    engine.run(hook);
  };
  ms::PolicyHook at_start;
  at_start.on_start = [](magus::common::Seconds) { throw PolicyFault("at start"); };
  ms::PolicyHook mid_run;
  mid_run.on_sample = [](magus::common::Seconds now) {
    if (now.value() > 1.0) throw PolicyFault("mid-run");
  };
  ms::PolicyHook non_standard;
  non_standard.on_sample = [](magus::common::Seconds) { throw 7; };

  for (const ms::PolicyHook* hook : {&at_start, &mid_run}) {
    try {
      run(*hook);
      ADD_FAILURE() << "run() returned";
    } catch (const PolicyFault& e) {
      EXPECT_STREQ(e.what(), hook == &at_start ? "at start" : "mid-run");
    }
  }
  try {
    run(non_standard);
    ADD_FAILURE() << "run() returned";
  } catch (int thrown) {
    EXPECT_EQ(thrown, 7);
  }
  EXPECT_EQ(reg.counter("magus_sim_runs_total")->value(), 0u);

  run(ms::PolicyHook{});
  EXPECT_EQ(reg.counter("magus_sim_runs_total")->value(), 1u);
}

TEST(SimEngine, TracingDoesNotPerturbResults) {
  // The trace recorder observes each tick and never feeds it: MAGUS on a
  // multi-phase program gives the same result, field for field, traced or
  // not, on one die and on two NUMA-skewed dies.
  const mw::PhaseProgram program(
      "waves", mw::patterns::square_wave(4, 0.6, 90'000.0, 0.6, 8'000.0, 0.7, 0.6));
  for (const int dies : {1, 2}) {
    SCOPED_TRACE(dies);
    ms::SystemSpec system = ms::intel_a100();
    system.cpu.dies_per_socket = dies;
    system.numa_skew = dies > 1 ? 0.3 : 0.0;
    const auto run = [&](bool traced) {
      magus::exp::RunOptions opts;
      opts.engine.record_traces = traced;
      return magus::exp::run_policy(system, program, "magus", opts);
    };
    const magus::exp::RunOutput traced = run(true);
    const magus::exp::RunOutput untraced = run(false);
    EXPECT_FALSE(traced.traces.channels().empty());
    EXPECT_TRUE(untraced.traces.channels().empty());
    EXPECT_GT(traced.result.invocations, 0u);
    EXPECT_EQ(traced.result.domain_uncore_energy_j.size(), static_cast<std::size_t>(2 * dies));
    EXPECT_EQ(magus::test::result_fields(traced.result),
              magus::test::result_fields(untraced.result));
  }
}
