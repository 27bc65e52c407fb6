#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "magus/common/error.hpp"
#include "magus/sim/node.hpp"

namespace ms = magus::sim;
namespace mc = magus::common;

namespace {
ms::NodeModel make_node() { return ms::NodeModel(ms::intel_a100(), 42); }

ms::WorkSlice quiet_slice() { return {10'000.0, 0.2, 0.1, 0.5}; }
ms::WorkSlice heavy_slice() { return {150'000.0, 0.9, 0.15, 0.95}; }
}  // namespace

TEST(NodeModel, EnergiesAccumulateMonotonically) {
  auto node = make_node();
  double last_pkg = 0.0;
  for (int i = 0; i < 1000; ++i) {
    node.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
    EXPECT_GE(node.total_pkg_energy_j(), last_pkg);
    last_pkg = node.total_pkg_energy_j();
  }
  EXPECT_GT(node.total_dram_energy_j(), 0.0);
  EXPECT_GT(node.gpu().energy_j, 0.0);
}

TEST(NodeModel, TrafficCounterTracksDelivered) {
  auto node = make_node();
  for (int i = 0; i < 500; ++i) node.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
  // ~1 s at ~10.3 GB/s (incl. background traffic).
  EXPECT_NEAR(node.total_traffic_mb(), 10'300.0, 600.0);
}

TEST(NodeModel, UncoreAtMaxByDefault) {
  auto node = make_node();
  ms::TickOutput out;
  for (int i = 0; i < 500; ++i) {
    out = node.tick(mc::Seconds(i * 0.002), 0.002, heavy_slice(), 0.0);
  }
  // GPU-dominant power stays far from TDP -> stock firmware never throttles.
  EXPECT_DOUBLE_EQ(out.uncore_freq_ghz, 2.2);
}

TEST(NodeModel, LowUncoreStretchesHeavyPhases) {
  auto node = make_node();
  for (int s = 0; s < node.socket_count(); ++s) {
    ms::kern::uncore_set_policy_limit(node.uncore(s), node.params().ladder, 0.8);
  }
  ms::TickOutput out;
  for (int i = 0; i < 500; ++i) {
    out = node.tick(mc::Seconds(i * 0.002), 0.002, heavy_slice(), 0.0);
  }
  EXPECT_GT(out.stretch, 1.3);
  EXPECT_LT(out.progress_rate, 0.8);
  // Quiet phases are unaffected even at min uncore.
  auto node2 = make_node();
  for (int s = 0; s < node2.socket_count(); ++s) {
    ms::kern::uncore_set_policy_limit(node2.uncore(s), node2.params().ladder, 0.8);
  }
  for (int i = 0; i < 500; ++i) {
    out = node2.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
  }
  EXPECT_DOUBLE_EQ(out.stretch, 1.0);
}

TEST(NodeModel, LowUncoreCutsPackagePower) {
  auto lo = make_node();
  auto hi = make_node();
  for (int s = 0; s < lo.socket_count(); ++s) {
    ms::kern::uncore_set_policy_limit(lo.uncore(s), lo.params().ladder, 0.8);
  }
  ms::TickOutput lo_out;
  ms::TickOutput hi_out;
  for (int i = 0; i < 500; ++i) {
    lo_out = lo.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
    hi_out = hi.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
  }
  // Fig. 2 calibration: tens of watts between the two uncore extremes.
  EXPECT_GT(hi_out.pkg_power_w - lo_out.pkg_power_w, 40.0);
}

TEST(NodeModel, MonitorPowerLandsOnPackage) {
  auto with = make_node();
  auto without = make_node();
  ms::TickOutput with_out;
  ms::TickOutput without_out;
  for (int i = 0; i < 100; ++i) {
    with_out = with.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 10.0);
    without_out = without.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
  }
  EXPECT_NEAR(with_out.pkg_power_w - without_out.pkg_power_w, 10.0, 0.5);
}

TEST(NodeModel, DeterministicForSameSeed) {
  ms::NodeModel a(ms::intel_a100(), 7);
  ms::NodeModel b(ms::intel_a100(), 7);
  for (int i = 0; i < 200; ++i) {
    a.tick(mc::Seconds(i * 0.002), 0.002, heavy_slice(), 0.0);
    b.tick(mc::Seconds(i * 0.002), 0.002, heavy_slice(), 0.0);
  }
  EXPECT_DOUBLE_EQ(a.total_traffic_mb(), b.total_traffic_mb());
  EXPECT_DOUBLE_EQ(a.total_pkg_energy_j(), b.total_pkg_energy_j());
}

TEST(NodeModel, CapacityIsSumOfSockets) {
  // A fully memory-bound slice far past capacity stretches by exactly
  // demand / capacity, and capacity is the sum over both sockets.
  auto node = make_node();
  const ms::WorkSlice flood{1'000'000.0, 1.0, 0.1, 0.5};
  const ms::TickOutput out = node.tick(mc::Seconds(0.002), 0.002, flood, 0.0);
  const ms::kern::UncoreParams& die = node.params().die;
  const double capacity = ms::kern::uncore_capacity_at(die, node.uncore(0).freq_ghz) +
                          ms::kern::uncore_capacity_at(die, node.uncore(1).freq_ghz);
  EXPECT_DOUBLE_EQ(out.stretch,
                   (flood.demand_mbps + ms::kern::kBackgroundTrafficMbps) / capacity);
}

TEST(NodeModel, PerSocketEnergySymmetricWithoutMonitor) {
  auto node = make_node();
  for (int i = 0; i < 200; ++i) node.tick(mc::Seconds(i * 0.002), 0.002, quiet_slice(), 0.0);
  EXPECT_NEAR(node.pkg_energy_j(0), node.pkg_energy_j(1), 1e-9);
}

TEST(NodeModel, GovernorsFollowClosedFormAtAnyDt) {
  // The kernel memoizes each governor's 1 - exp(-dt / tau) on dt and the GPU
  // boost pow(util, 0.7) on util. A dt other than the engine's tick_s (0.002)
  // or a new util must recompute: every step matches the closed form.
  const ms::SystemSpec spec = ms::intel_a100();
  auto node = make_node();
  double t = 0.0;
  int step = 0;
  for (double dt : {0.002, 0.002, 0.0037, 0.002, 0.01, 0.01, 0.00025, 0.002}) {
    const ms::WorkSlice slice = (step++ % 3 == 0) ? heavy_slice() : quiet_slice();
    const double f0 = node.cores().freq_ghz;
    const double c0 = node.gpu().clock_ghz;
    t += dt;
    const ms::TickOutput out = node.tick(mc::Seconds(t), dt, slice, 0.0);

    const double span = spec.cpu.core_max_ghz - spec.cpu.core_min_ghz;
    const double core_target =
        std::min(spec.cpu.core_max_ghz, spec.cpu.core_min_ghz + span * slice.cpu_util * 1.4);
    const double core_alpha = 1.0 - std::exp(-dt / ms::kern::kCoreGovernorTau);
    EXPECT_EQ(node.cores().freq_ghz, f0 + (core_target - f0) * core_alpha) << "dt=" << dt;

    const double util = std::clamp(slice.gpu_util / out.stretch, 0.0, 1.0);
    const double boost = std::pow(util, 0.7);
    const double gpu_target =
        spec.gpu.base_clock_ghz + (spec.gpu.max_clock_ghz - spec.gpu.base_clock_ghz) * boost;
    const double gpu_alpha = 1.0 - std::exp(-dt / ms::kern::kGpuGovernorTau);
    EXPECT_EQ(node.gpu().clock_ghz, c0 + (gpu_target - c0) * gpu_alpha) << "dt=" << dt;
  }
}

TEST(NodeModel, RejectsNonFiniteNumaSkew) {
  // NaN fails every ordered comparison, so the range check must be a negated
  // in-range test to catch it.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1.0, -0.1}) {
    ms::SystemSpec spec = ms::intel_a100();
    spec.numa_skew = bad;
    EXPECT_THROW(ms::NodeModel(spec, 42), mc::ConfigError) << bad;
  }
}
