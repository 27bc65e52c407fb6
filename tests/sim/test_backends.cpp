// The simulator-backed hw interfaces: MSR semantics (0x620 writes steer the
// uncore), counter units, and access metering (the basis of Table 2).

#include <gtest/gtest.h>

#include <stdexcept>

#include "magus/common/error.hpp"
#include "magus/hw/rapl.hpp"
#include "magus/sim/backends.hpp"

namespace ms = magus::sim;
namespace mh = magus::hw;
namespace mc = magus::common;

namespace {
struct Rig {
  ms::NodeModel node{ms::intel_a100(), 1};
  ms::LaneBackends hw{node.store(), 0};
  ms::AccessMeter& meter = node.store().meter(0);
  ms::LaneMsrDevice& msr = hw.msr;
  ms::LaneMemThroughputCounter& mem = hw.mem;
  ms::LaneEnergyCounter& energy = hw.energy;
  ms::LaneCoreCounters& cores = hw.cores;
};
}  // namespace

TEST(LaneMsrDevice, InitialUncoreLimitMatchesLadder) {
  Rig rig;
  const auto limit = mh::UncoreRatioLimit::decode(
      rig.msr.read(0, mh::msr::kUncoreRatioLimit));
  EXPECT_EQ(limit.max_ratio, 22u);
  EXPECT_EQ(limit.min_ratio, 8u);
}

TEST(LaneMsrDevice, WritingMaxRatioSteersUncore) {
  Rig rig;
  mh::UncoreRatioLimit limit{12, 8};
  rig.msr.write(0, mh::msr::kUncoreRatioLimit, limit.encode());
  rig.msr.write(1, mh::msr::kUncoreRatioLimit, limit.encode());
  EXPECT_DOUBLE_EQ(rig.node.uncore(0).policy_limit_ghz, 1.2);
  // Frequency follows after slewing.
  for (int i = 0; i < 200; ++i) rig.node.tick(mc::Seconds(i * 0.002), 0.002, {}, 0.0);
  EXPECT_DOUBLE_EQ(rig.node.uncore(0).freq_ghz, 1.2);
}

TEST(LaneMsrDevice, UnsupportedRegistersFaultLikeHardware) {
  Rig rig;
  EXPECT_THROW((void)rig.msr.read(0, 0x1234), magus::common::DeviceError);
  EXPECT_THROW(rig.msr.write(0, 0x611, 1), magus::common::DeviceError);
  EXPECT_THROW((void)rig.msr.read(5, mh::msr::kUncoreRatioLimit), magus::common::ConfigError);
}

TEST(LaneMsrDevice, EnergyStatusUsesRaplEncoding) {
  Rig rig;
  for (int i = 0; i < 500; ++i) rig.node.tick(mc::Seconds(i * 0.002), 0.002, {}, 0.0);
  const auto units =
      mh::RaplUnits::decode(rig.msr.read(0, mh::msr::kRaplPowerUnit));
  const auto raw =
      static_cast<std::uint32_t>(rig.msr.read(0, mh::msr::kPkgEnergyStatus));
  const double decoded_j = static_cast<double>(raw) * units.joules_per_lsb();
  EXPECT_NEAR(decoded_j, rig.node.pkg_energy_j(0), 0.001);
}

TEST(LaneMsrDevice, UncorePerfStatusReportsCurrentRatio) {
  Rig rig;
  EXPECT_EQ(rig.msr.read(0, mh::msr::kUncorePerfStatus), 22u);
}

TEST(SimCounters, EnergyCounterMatchesNode) {
  Rig rig;
  for (int i = 0; i < 100; ++i) rig.node.tick(mc::Seconds(i * 0.002), 0.002, {}, 0.0);
  EXPECT_DOUBLE_EQ(rig.energy.pkg_energy_j(0), rig.node.pkg_energy_j(0));
  EXPECT_DOUBLE_EQ(rig.energy.dram_energy_j(1), rig.node.dram_energy_j(1));
  EXPECT_EQ(rig.energy.socket_count(), 2);
}

TEST(SimCounters, CoreIndexValidation) {
  Rig rig;
  EXPECT_EQ(rig.cores.core_count(), 80);
  EXPECT_THROW((void)rig.cores.instructions_retired(80), std::out_of_range);
  EXPECT_THROW((void)rig.cores.cycles_unhalted(-1), std::out_of_range);
}

TEST(AccessMeter, CountsEveryRead) {
  Rig rig;
  rig.meter.reset();
  (void)rig.mem.total_mb();
  EXPECT_EQ(rig.meter.pcm_reads, 1ull);
  EXPECT_EQ(rig.meter.msr_reads, 0ull);

  (void)rig.energy.dram_energy_j(0);
  (void)rig.cores.instructions_retired(0);
  (void)rig.cores.cycles_unhalted(0);
  EXPECT_EQ(rig.meter.msr_reads, 3ull);

  rig.msr.write(0, mh::msr::kUncoreRatioLimit, mh::UncoreRatioLimit{12, 8}.encode());
  EXPECT_EQ(rig.meter.msr_writes, 1ull);
}

TEST(AccessMeter, UpsStyleSweepIsExpensive) {
  // 2 MSRs per core x 80 cores: the reason UPS's invocation takes ~0.3 s.
  Rig rig;
  rig.meter.reset();
  for (int c = 0; c < rig.cores.core_count(); ++c) {
    (void)rig.cores.instructions_retired(c);
    (void)rig.cores.cycles_unhalted(c);
  }
  EXPECT_EQ(rig.meter.msr_reads, 160ull);
}
