#include <gtest/gtest.h>

#include "magus/baseline/static_policy.hpp"
#include "magus/common/quantity.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mb = magus::baseline;
using namespace magus::common::quantity_literals;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {
mw::PhaseProgram heavy_workload() {
  return mw::PhaseProgram("heavy",
                          {mw::patterns::steady("h", 3.0, 150'000.0, 0.9, 0.15, 0.9)});
}
}  // namespace

TEST(DefaultPolicy, IsInert) {
  mb::DefaultPolicy p;
  EXPECT_EQ(p.name(), "default");
  EXPECT_NO_THROW(p.on_start(magus::common::Seconds(0.0)));
  EXPECT_NO_THROW(p.on_sample(magus::common::Seconds(1.0)));
}

TEST(StaticUncorePolicy, PinsAtStart) {
  ms::SimEngine engine(ms::intel_a100(), heavy_workload());
  const magus::hw::UncoreFreqLadder ladder(0.8, 2.2);
  mb::StaticUncorePolicy p(engine.msr(), ladder, 1.2_ghz);
  p.on_start(magus::common::Seconds(0.0));
  EXPECT_DOUBLE_EQ(engine.node().uncore(0).policy_limit_ghz, 1.2);
  EXPECT_DOUBLE_EQ(engine.node().uncore(1).policy_limit_ghz, 1.2);
  EXPECT_DOUBLE_EQ(p.target().value(), 1.2);
}

TEST(StaticUncorePolicy, ClampsToLadder) {
  ms::SimEngine engine(ms::intel_a100(), heavy_workload());
  const magus::hw::UncoreFreqLadder ladder(0.8, 2.2);
  mb::StaticUncorePolicy p(engine.msr(), ladder, 99.0_ghz);
  EXPECT_DOUBLE_EQ(p.target().value(), 2.2);
}

TEST(StaticUncorePolicy, MinPinSlowsMemoryBoundWork) {
  // Fig. 2's right panel: min uncore stretches a memory-heavy run.
  ms::EngineConfig cfg;
  cfg.record_traces = false;

  ms::SimEngine max_engine(ms::intel_a100(), heavy_workload(), cfg);
  const magus::hw::UncoreFreqLadder ladder(0.8, 2.2);
  mb::StaticUncorePolicy max_p(max_engine.msr(), ladder, 2.2_ghz);
  ms::PolicyHook max_hook;
  max_hook.on_start = [&](magus::common::Seconds t) { max_p.on_start(t); };
  const auto max_r = max_engine.run(max_hook);

  ms::SimEngine min_engine(ms::intel_a100(), heavy_workload(), cfg);
  mb::StaticUncorePolicy min_p(min_engine.msr(), ladder, 0.8_ghz);
  ms::PolicyHook min_hook;
  min_hook.on_start = [&](magus::common::Seconds t) { min_p.on_start(t); };
  const auto min_r = min_engine.run(min_hook);

  EXPECT_GT(min_r.duration_s, 1.3 * max_r.duration_s);
  EXPECT_LT(min_r.avg_pkg_power_w, max_r.avg_pkg_power_w);
}
