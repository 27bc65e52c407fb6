// UPS reimplementation: DRAM-power phase detection, IPC-guarded descent,
// and the per-core counter sweep that makes it expensive.

#include <gtest/gtest.h>

#include "magus/baseline/ups.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mb = magus::baseline;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

struct Rig {
  explicit Rig(mw::PhaseProgram program, mb::UpsConfig cfg = {})
      : engine(ms::intel_a100(), std::move(program),
               [] {
                 ms::EngineConfig c;
                 c.record_traces = false;
                 return c;
               }()),
        ladder(0.8, 2.2),
        ups(engine.energy_counter(), engine.core_counters(), engine.msr(), ladder, cfg) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = ups.name();
    hook.period_s = ups.period_s();
    hook.on_start = [this](magus::common::Seconds t) { ups.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { ups.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mb::UpsController ups;
};

}  // namespace

TEST(Ups, StepsDownDuringSteadyPhase) {
  // 12 s of steady light traffic: UPS must walk the ladder downward.
  Rig rig(mw::PhaseProgram(
      "steady", {mw::patterns::steady("s", 12.0, 20'000.0, 0.2, 0.2, 0.7)}));
  rig.run();
  EXPECT_LT(rig.ups.current_target().value(), 1.5);
}

TEST(Ups, DramPowerSwingResetsToMax) {
  // A demand step mid-run: phase detector must reset the uncore to max.
  mw::PhaseProgram p("step", {mw::patterns::steady("lo", 8.0, 15'000.0, 0.2, 0.2, 0.7),
                              mw::patterns::steady("hi", 1.2, 120'000.0, 0.8, 0.2, 0.7)});
  Rig rig(std::move(p));
  rig.run();
  EXPECT_GE(rig.ups.phase_changes(), 2ull);  // initial + the step
  // The run ends inside the high phase with the uncore reset near max.
  EXPECT_GT(rig.ups.current_target().value(), 1.8);
}

TEST(Ups, IpcGuardStopsTheDescent) {
  // Heavy memory-bound demand: descending the ladder starves the workload,
  // IPC collapses, and the guard must keep UPS well above the floor.
  Rig rig(mw::PhaseProgram(
      "heavy", {mw::patterns::steady("h", 15.0, 150'000.0, 0.95, 0.2, 0.8)}));
  rig.run();
  EXPECT_GT(rig.ups.current_target().value(), 0.9);
  EXPECT_GT(rig.ups.last_ipc(), 0.0);
}

TEST(Ups, SweepsEveryCoreEveryCycle) {
  Rig rig(mw::PhaseProgram(
      "steady", {mw::patterns::steady("s", 3.0, 20'000.0, 0.2, 0.2, 0.7)}));
  const auto r = rig.run();
  // 2 fixed counters x 80 cores + 2 DRAM energy reads per invocation.
  const double per_invocation = static_cast<double>(r.accesses.msr_reads) /
                                static_cast<double>(r.invocations + 1);
  EXPECT_NEAR(per_invocation, 162.0, 8.0);
  // ...which is what makes its invocation ~3x MAGUS's (paper Table 2).
  EXPECT_GT(r.avg_invocation_s(), 0.25);
  EXPECT_LT(r.avg_invocation_s(), 0.35);
}

TEST(Ups, DryRunNeverWritesMsrs) {
  mb::UpsConfig cfg;
  cfg.scaling_enabled = false;
  Rig rig(mw::PhaseProgram(
              "steady", {mw::patterns::steady("s", 5.0, 20'000.0, 0.2, 0.2, 0.7)}),
          cfg);
  const auto r = rig.run();
  EXPECT_EQ(r.accesses.msr_writes, 0ull);
  EXPECT_DOUBLE_EQ(rig.engine.node().uncore(0).policy_limit_ghz, 2.2);
}

TEST(Ups, ReportsDramPowerAndIpc) {
  Rig rig(mw::PhaseProgram(
      "steady", {mw::patterns::steady("s", 4.0, 40'000.0, 0.4, 0.3, 0.7)}));
  rig.run();
  EXPECT_GT(rig.ups.last_dram_power().value(), 10.0);
  EXPECT_LT(rig.ups.last_dram_power().value(), 80.0);
  EXPECT_NEAR(rig.ups.last_ipc(), 1.6, 0.2);
  EXPECT_EQ(rig.ups.name(), "ups");
}
