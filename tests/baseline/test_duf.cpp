// DUF baseline: gradual bandwidth-utilisation-driven scaling.

#include <gtest/gtest.h>

#include "magus/baseline/duf.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mb = magus::baseline;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

struct Rig {
  explicit Rig(mw::PhaseProgram program)
      : engine(ms::intel_a100(), std::move(program),
               [] {
                 ms::EngineConfig c;
                 c.record_traces = false;
                 return c;
               }()),
        ladder(0.8, 2.2),
        duf(engine.mem_counter(), engine.msr(), ladder) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = duf.name();
    hook.period_s = duf.period_s();
    hook.on_start = [this](magus::common::Seconds t) { duf.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { duf.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mb::DufController duf;
};

}  // namespace

TEST(Duf, CreepsDownOnQuietWorkload) {
  Rig rig(mw::PhaseProgram("quiet",
                           {mw::patterns::steady("q", 10.0, 8'000.0, 0.15, 0.1, 0.6)}));
  rig.run();
  EXPECT_LT(rig.duf.current_target().value(), 1.2);
  EXPECT_LT(rig.duf.last_utilization(), 0.4);
}

TEST(Duf, JumpsToMaxWhenBandwidthHungry) {
  mw::PhaseProgram p("step", {mw::patterns::steady("q", 6.0, 8'000.0, 0.15, 0.1, 0.6),
                              mw::patterns::steady("h", 2.0, 140'000.0, 0.9, 0.2, 0.8)});
  Rig rig(std::move(p));
  rig.run();
  // The heavy tail saturates the lowered uncore -> utilisation trips the
  // high-water mark -> back to max.
  EXPECT_DOUBLE_EQ(rig.duf.current_target().value(), 2.2);
}

TEST(Duf, SingleCounterLikeMagus) {
  Rig rig(mw::PhaseProgram("quiet",
                           {mw::patterns::steady("q", 4.0, 8'000.0, 0.15, 0.1, 0.6)}));
  const auto r = rig.run();
  // One PCM read per invocation: DUF's monitoring cost matches MAGUS's,
  // unlike UPS's per-core sweep.
  EXPECT_NEAR(static_cast<double>(r.accesses.pcm_reads),
              static_cast<double>(r.invocations) + 1.0, 1.5);
  EXPECT_NEAR(r.avg_invocation_s(), 0.1, 0.02);
}

TEST(Duf, GradualDescentIsSlowerThanMagusDrop) {
  // Both see the same falling edge; MAGUS goes straight to the floor, DUF
  // walks one ratio per period -- the design contrast the paper draws in
  // section 6.1 ("more aggressive uncore frequency tuning").
  mw::PhaseProgram p("edge", {mw::patterns::steady("h", 4.0, 120'000.0, 0.8, 0.2, 0.8),
                              mw::patterns::steady("q", 2.5, 8'000.0, 0.15, 0.1, 0.6)});
  Rig rig(std::move(p));
  rig.run();
  // 2.5 s of quiet at a 0.3 s cadence is ~8 steps: not yet at min.
  EXPECT_GT(rig.duf.current_target().value(), 0.8);
  EXPECT_LT(rig.duf.current_target().value(), 2.2);
}
