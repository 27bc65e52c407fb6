// System presets: the four modelled nodes must be internally consistent
// (valid ladders, sane power budgets, Table 2 monitoring constants).

#include <gtest/gtest.h>

#include "magus/common/error.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/kernel.hpp"
#include "magus/sim/system_preset.hpp"

namespace ms = magus::sim;

TEST(SystemPreset, LookupByName) {
  EXPECT_EQ(ms::system_by_name("intel_a100").name, "intel_a100");
  EXPECT_EQ(ms::system_by_name("intel_4a100").name, "intel_4a100");
  EXPECT_EQ(ms::system_by_name("intel_max1550").name, "intel_max1550");
  EXPECT_EQ(ms::system_by_name("amd_mi250").name, "amd_mi250");
  EXPECT_THROW((void)ms::system_by_name("cray"), magus::common::ConfigError);
}

TEST(SystemPreset, PaperTestbedsMatchSection5) {
  const auto a100 = ms::intel_a100();
  EXPECT_EQ(a100.cpu.sockets, 2);
  EXPECT_DOUBLE_EQ(a100.cpu.uncore_min_ghz, 0.8);
  EXPECT_DOUBLE_EQ(a100.cpu.uncore_max_ghz, 2.2);
  EXPECT_EQ(a100.gpu.count, 1);

  const auto quad = ms::intel_4a100();
  EXPECT_EQ(quad.gpu.count, 4);
  EXPECT_NEAR(quad.gpu.idle_w * quad.gpu.count, 200.0, 10.0);

  const auto max1550 = ms::intel_max1550();
  EXPECT_DOUBLE_EQ(max1550.cpu.uncore_max_ghz, 2.5);
}

TEST(SystemPreset, AmdNodeUsesFabricLadder) {
  const auto amd = ms::amd_mi250();
  EXPECT_DOUBLE_EQ(amd.cpu.uncore_min_ghz, 1.2);
  EXPECT_DOUBLE_EQ(amd.cpu.uncore_max_ghz, 2.0);
  EXPECT_EQ(amd.cpu.sockets, 1);
}

class PresetSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetSweep, InternallyConsistent) {
  const auto spec = ms::system_by_name(GetParam());
  // The uncore ladder must construct (valid range, nonzero steps).
  const magus::hw::UncoreFreqLadder ladder(spec.cpu.uncore_min_ghz,
                                           spec.cpu.uncore_max_ghz);
  EXPECT_GE(ladder.steps(), 2u);

  // Peak per-socket power must fit under TDP with margin for RAPL realism:
  // cores at full tilt + uncore at max and full utilisation.
  const ms::kern::NodeParams p = ms::kern::NodeParams::from_spec(spec);
  const ms::kern::UncoreState uncore = ms::kern::init_uncore(p.ladder);
  ms::kern::CoreState cores = ms::kern::init_core(p.core);
  for (int i = 0; i < 2000; ++i) ms::kern::core_tick(cores, p.core, 0.002, 1.0, 1.6);
  const double peak = ms::kern::core_power_w(cores, p.core, 1.0) +
                      ms::kern::uncore_power(uncore, p.uncore, 1.0);
  EXPECT_LT(peak, spec.cpu.tdp_w);
  EXPECT_GT(peak, 0.4 * spec.cpu.tdp_w);

  // Bandwidth capacity spans a meaningful range across the ladder.
  EXPECT_GT(ms::kern::uncore_capacity_at(p.uncore, ladder.max_ghz()),
            1.2 * ms::kern::uncore_capacity_at(p.uncore, ladder.min_ghz()));

  // Monitoring constants are positive (Table 2 machinery).
  EXPECT_GT(spec.cpu.msr_read_latency_s, 0.0);
  EXPECT_GT(spec.cpu.pcm_read_latency_s, 0.0);
  EXPECT_GT(spec.cpu.monitor_base_power_w, 0.0);

  // GPU spec sanity.
  EXPECT_GT(spec.gpu.peak_w, spec.gpu.idle_w);
  EXPECT_GT(spec.gpu.max_clock_ghz, spec.gpu.base_clock_ghz);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetSweep,
                         ::testing::Values("intel_a100", "intel_4a100",
                                           "intel_max1550", "amd_mi250"));

