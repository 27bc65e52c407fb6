// MagusRuntime bound to the simulator backends: the deployable policy.

#include <gtest/gtest.h>

#include "magus/core/runtime.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mc = magus::core;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

struct Rig {
  explicit Rig(mw::PhaseProgram program, mc::MagusConfig cfg = {})
      : engine(ms::intel_a100(), std::move(program)),
        ladder(0.8, 2.2),
        magus(engine.mem_counter(), engine.msr(), ladder, cfg) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = magus.name();
    hook.period_s = magus.period_s();
    hook.on_start = [this](magus::common::Seconds t) { magus.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { magus.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mc::MagusRuntime magus;
};

mw::PhaseProgram burst_workload() {
  mw::ProgramBuilder b("bursty");
  b.add(mw::patterns::steady("init", 4.0, 10'000.0, 0.2, 0.1, 0.5));
  b.repeat(3, mw::patterns::burst_train(1, 0.3, 0.9, 120'000.0, 3.6, 10'000.0, 0.8, 0.8));
  return b.build();
}

}  // namespace

TEST(MagusRuntime, ComputesThroughputFromCounterDeltas) {
  Rig rig(burst_workload());
  rig.run();
  // Last observed throughput must be a plausible MB/s value, not a raw
  // cumulative counter.
  EXPECT_GT(rig.magus.last_throughput().value(), 0.0);
  EXPECT_LT(rig.magus.last_throughput().value(), 200'000.0);
}

TEST(MagusRuntime, ScalesDownDuringQuietPhases) {
  Rig rig(burst_workload());
  rig.run();
  const auto& log = rig.magus.controller().log();
  ASSERT_FALSE(log.empty());
  bool saw_min = false;
  bool saw_max = false;
  for (const auto& rec : log) {
    if (rec.target == magus::common::Ghz(0.8)) saw_min = true;
    if (rec.target == magus::common::Ghz(2.2)) saw_max = true;
  }
  EXPECT_TRUE(saw_min);
  EXPECT_TRUE(saw_max);
}

TEST(MagusRuntime, SavesCpuEnergyOnBurstyWorkload) {
  Rig magus_rig(burst_workload());
  const auto magus_result = magus_rig.run();

  ms::SimEngine base_engine(ms::intel_a100(), burst_workload());
  const auto base_result = base_engine.run();

  EXPECT_LT(magus_result.cpu_energy_j(), 0.9 * base_result.cpu_energy_j());
  // Perf loss below the paper's 5% bound.
  EXPECT_LT(magus_result.duration_s, base_result.duration_s * 1.05);
}

TEST(MagusRuntime, DryRunMonitorsWithoutScaling) {
  mc::MagusConfig cfg;
  cfg.scaling_enabled = false;  // Table 2 protocol
  Rig rig(burst_workload(), cfg);
  const auto r = rig.run();
  EXPECT_GT(rig.magus.controller().log().size(), 10u);
  EXPECT_EQ(r.accesses.msr_writes, 0ull);
  // Uncore stayed wherever the node had it (max).
  EXPECT_DOUBLE_EQ(rig.engine.node().uncore(0).policy_limit_ghz, 2.2);
}

TEST(MagusRuntime, OneCounterReadPerCycle) {
  Rig rig(burst_workload());
  const auto r = rig.run();
  // MAGUS's footprint: exactly one PCM read per invocation (plus the
  // on_start priming read), and invocation cost = one PCM sweep (~0.1 s).
  EXPECT_NEAR(static_cast<double>(r.accesses.pcm_reads),
              static_cast<double>(r.invocations) + 1.0, 1.5);
  EXPECT_GT(r.avg_invocation_s(), 0.09);
  EXPECT_LT(r.avg_invocation_s(), 0.12);
}

TEST(MagusRuntime, PeriodMatchesPaperDefault) {
  Rig rig(burst_workload());
  EXPECT_DOUBLE_EQ(rig.magus.period_s(), 0.2);
  EXPECT_EQ(rig.magus.name(), "magus");
}

TEST(MagusRuntime, InitialUncoreIsMax) {
  // Section 3.3: uncore starts at the maximum when the application arrives.
  Rig rig(burst_workload());
  rig.magus.on_start(magus::common::Seconds(0.0));
  EXPECT_DOUBLE_EQ(rig.engine.node().uncore(0).policy_limit_ghz, 2.2);
  EXPECT_DOUBLE_EQ(rig.engine.node().uncore(1).policy_limit_ghz, 2.2);
}
