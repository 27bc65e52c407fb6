// Deadline baseline: data-driven frequency selection against a slowdown
// bound (Ilager-style), contrasted with DUF's one-step ladder walk.

#include <gtest/gtest.h>

#include <utility>

#include "magus/baseline/deadline.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mb = magus::baseline;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

constexpr double kBusyMbps = 140'000.0;
constexpr double kQuietMbps = 8'000.0;

struct Rig {
  explicit Rig(mw::PhaseProgram program, bool per_domain = false)
      : engine(
            [&] {
              ms::SystemSpec spec = ms::intel_a100();
              if (per_domain) {
                spec.cpu.dies_per_socket = 2;
                spec.numa_skew = 0.6;
              }
              return spec;
            }(),
            std::move(program),
            [] {
              ms::EngineConfig c;
              c.record_traces = false;
              return c;
            }()),
        ladder(0.8, 2.2),
        ctl(engine.mem_counter(), engine.msr(), ladder,
            per_domain ? &engine.domains() : nullptr) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = ctl.name();
    hook.period_s = ctl.period_s();
    hook.on_start = [this](magus::common::Seconds t) { ctl.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { ctl.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mb::DeadlineController ctl;
};

}  // namespace

TEST(Deadline, SelectsTheFloorForAQuietWorkload) {
  Rig rig(mw::PhaseProgram(
      "quiet", {mw::patterns::steady("q", 6.0, kQuietMbps, 0.15, 0.1, 0.6)}));
  rig.run();
  // ~8 GB/s of demand needs ~0.11 GHz of modelled capacity: the lowest rung
  // already covers it with a huge margin.
  EXPECT_LT(rig.ctl.current_target().value(), 1.0);
  EXPECT_GT(rig.ctl.predicted_demand_mbps(), 0.0);
}

TEST(Deadline, ProvisionsHighForBandwidthHungryWork) {
  Rig rig(mw::PhaseProgram("busy",
                           {mw::patterns::steady("b", 6.0, kBusyMbps, 0.9, 0.6, 0.8)}));
  rig.run();
  // 140 GB/s inside a 5% bound needs ~1.85 GHz of the 72 GB/s-per-GHz model.
  EXPECT_GT(rig.ctl.current_target().value(), 1.6);
}

TEST(Deadline, RelearnsCapacityNearSaturation) {
  Rig rig(mw::PhaseProgram("busy",
                           {mw::patterns::steady("b", 6.0, kBusyMbps, 0.9, 0.6, 0.8)}));
  EXPECT_EQ(rig.ctl.learned_capacity_mbps_per_ghz(), mb::kCapacityMbpsPerGhz);
  rig.run();
  // The rung the controller selects runs the link near its predicted
  // ceiling, so every sample there is a saturation observation: the
  // coefficient leaves its 72 000 start for what the node delivers per GHz.
  const double delivered_per_ghz = kBusyMbps / rig.ctl.current_target().value();
  EXPECT_GT(rig.ctl.learned_capacity_mbps_per_ghz(), mb::kCapacityMbpsPerGhz);
  EXPECT_NEAR(rig.ctl.learned_capacity_mbps_per_ghz(), delivered_per_ghz,
              0.01 * delivered_per_ghz);
}

TEST(Deadline, PerDomainSelectionFollowsTheTrafficSplit) {
  // NUMA skew pins extra demand on each socket's first die: that domain
  // must be provisioned at least as high as its quiet sibling.
  Rig rig(mw::PhaseProgram("busy",
                           {mw::patterns::steady("b", 6.0, kBusyMbps, 0.9, 0.6, 0.8)}),
          /*per_domain=*/true);
  rig.run();
  ASSERT_EQ(rig.ctl.domain_count(), 4);
  EXPECT_GE(rig.ctl.domain_target(0).value(), rig.ctl.domain_target(1).value());
  // The skewed split must actually produce differentiated targets.
  EXPECT_GT(rig.ctl.domain_target(0).value(), 0.8);
}
