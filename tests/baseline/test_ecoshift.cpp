// EcoShift comparator: performance-aware throttling under a power cap.

#include <gtest/gtest.h>

#include <utility>

#include "magus/baseline/ecoshift.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mb = magus::baseline;
namespace mc = magus::core;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

constexpr double kBusyMbps = 140'000.0;
constexpr double kQuietMbps = 8'000.0;

mw::PhaseProgram busy(double seconds) {
  return mw::PhaseProgram("busy",
                          {mw::patterns::steady("b", seconds, kBusyMbps, 0.9, 0.6, 0.8)});
}

mw::PhaseProgram quiet(double seconds) {
  return mw::PhaseProgram(
      "quiet", {mw::patterns::steady("q", seconds, kQuietMbps, 0.15, 0.1, 0.6)});
}

struct Rig {
  explicit Rig(mw::PhaseProgram program, mc::PowerCapSchedule cap = {},
               bool per_domain = false)
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
        eco(engine.mem_counter(), engine.energy_counter(), engine.msr(), ladder, &cap,
            per_domain ? &engine.domains() : nullptr) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = eco.name();
    hook.period_s = eco.period_s();
    hook.on_start = [this](magus::common::Seconds t) { eco.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { eco.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mb::EcoShiftController eco;
};

mc::PowerCapSchedule fixed_cap(double watts) {
  mc::PowerCapSchedule cap;
  cap.fixed_cap_w = watts;
  return cap;
}

}  // namespace

TEST(EcoShift, InertWithoutCap) {
  Rig rig(busy(4.0));  // default-constructed schedule: uncapped
  const auto r = rig.run();
  EXPECT_DOUBLE_EQ(rig.eco.current_target().value(), 2.2);
  // No cap means nothing to enforce: EcoShift never touches the MSR, so the
  // run is firmware-default from the hardware's point of view.
  EXPECT_EQ(r.accesses.msr_writes, 0ull);
}

TEST(EcoShift, ShedsToTheFloorUnderATightCap) {
  // 50 W is far below even idle package+DRAM power, so every sample is over
  // the cap and the target walks the whole ladder down.
  Rig rig(busy(8.0), fixed_cap(50.0));
  rig.run();
  EXPECT_DOUBLE_EQ(rig.eco.current_target().value(), 0.8);
  EXPECT_GT(rig.eco.last_power_w(), 50.0);
}

TEST(EcoShift, RestoresWhenTheCapLiftsAndTheWorkloadIsHungry) {
  // Tight cap for 3 s crushes the uncore; then a generous cap plus high
  // utilisation walks it back up -- the performance-aware restore path.
  mc::PowerCapSchedule cap;
  cap.epoch_s = 3.0;
  cap.epoch_cap_w = {50.0, 10'000.0};
  Rig rig(busy(10.0), cap);
  rig.run();
  EXPECT_GT(rig.eco.current_target().value(), 1.8);
}

TEST(EcoShift, HoldsLowWhenIdleDespiteHeadroom) {
  // Same cap lift, but a quiet workload: utilisation stays under the restore
  // gate, so the recovered headroom is never spent on an idle uncore.
  mc::PowerCapSchedule cap;
  cap.epoch_s = 5.0;
  cap.epoch_cap_w = {50.0, 10'000.0};
  Rig rig(quiet(12.0), cap);
  rig.run();
  EXPECT_LT(rig.eco.current_target().value(), 1.2);
  EXPECT_LT(rig.eco.last_utilization(), 0.55);
}

TEST(EcoShift, PerDomainModeShedsTheLeastUtilisedDomainFirst)
{
  // 2 dies/socket with NUMA skew pinning extra traffic on each socket's
  // first die: domain 1 is the cheapest performance to sell, so under a
  // tight cap it must sit no higher than domain 0.
  Rig rig(busy(8.0), fixed_cap(50.0), /*per_domain=*/true);
  rig.run();
  ASSERT_EQ(rig.eco.domain_count(), 4);
  EXPECT_LE(rig.eco.domain_target(1).value(), rig.eco.domain_target(0).value());
  // A tight cap keeps shedding until every domain hits the floor eventually;
  // at minimum someone must have left ladder max.
  double min_t = 2.2;
  for (int d = 0; d < rig.eco.domain_count(); ++d) {
    min_t = std::min(min_t, rig.eco.domain_target(d).value());
  }
  EXPECT_LT(min_t, 2.2);
}
