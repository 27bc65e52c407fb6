// Unit tests of the per-subsystem kern::* step functions (sim/kernel.hpp):
// the uncore frequency state machine and its power/bandwidth curves, the
// stock TDP-coupled firmware governor, the core DVFS governor with its fixed
// counters, and the GPU board model.

#include <gtest/gtest.h>

#include "magus/sim/kernel.hpp"
#include "magus/sim/system_preset.hpp"

namespace ms = magus::sim;
namespace mk = magus::sim::kern;
namespace mc = magus::common;

namespace {

mk::NodeParams a100() { return mk::NodeParams::from_spec(ms::intel_a100()); }

/// One socket's uncore domain on intel_a100, driven through the kernel.
struct Uncore {
  mk::NodeParams p = a100();
  mk::UncoreState st = mk::init_uncore(p.ladder);

  void set_policy_limit(double ghz) { mk::uncore_set_policy_limit(st, p.ladder, ghz); }
  void set_firmware_cap(double ghz) { mk::uncore_set_firmware_cap(st, p.ladder, ghz); }
  void tick(double dt, int n) {
    for (int i = 0; i < n; ++i) mk::uncore_tick(st, dt);
  }
  [[nodiscard]] double capacity_at(double ghz) const {
    return mk::uncore_capacity_at(p.uncore, ghz);
  }
  [[nodiscard]] double power(double util) const {
    return mk::uncore_power(st, p.uncore, util);
  }
};

/// The stock firmware governor on intel_a100 at a given TDP back-off point.
struct Firmware {
  explicit Firmware(double backoff_frac) {
    const ms::CpuSpec cpu = ms::intel_a100().cpu;
    p = {cpu.tdp_w * backoff_frac, cpu.uncore_min_ghz, cpu.uncore_max_ghz};
    st = mk::init_firmware(p);
  }
  void update(int n, double pkg_w) {
    for (int i = 0; i < n; ++i) mk::firmware_update(st, p, 0.002, pkg_w);
  }

  mk::FirmwareParams p;
  mk::FirmwareState st;
};

struct Core {
  mk::CoreParams p = a100().core;
  mk::CoreState st = mk::init_core(p);

  void tick(int n, double util, double ipc) {
    for (int i = 0; i < n; ++i) mk::core_tick(st, p, 0.002, util, ipc);
  }
};

struct Gpu {
  explicit Gpu(const ms::SystemSpec& spec) : p(mk::NodeParams::from_spec(spec).gpu) {}
  void tick(int n, double util) {
    for (int i = 0; i < n; ++i) mk::gpu_tick(st, p, 0.002, util);
  }

  mk::GpuParams p;
  mk::GpuState st = mk::init_gpu(p);
};

}  // namespace

// --- uncore ----------------------------------------------------------------

TEST(KernUncore, StartsAtLadderMax) {
  const Uncore u;
  EXPECT_DOUBLE_EQ(u.st.freq_ghz, 2.2);
  EXPECT_DOUBLE_EQ(u.st.policy_limit_ghz, 2.2);
  EXPECT_DOUBLE_EQ(u.st.firmware_cap_ghz, 2.2);
}

TEST(KernUncore, SlewsTowardPolicyLimit) {
  Uncore u;
  u.set_policy_limit(0.8);
  u.tick(0.002, 1);
  EXPECT_LT(u.st.freq_ghz, 2.2);
  EXPECT_GT(u.st.freq_ghz, 0.8);
  u.tick(0.002, 50);
  EXPECT_DOUBLE_EQ(u.st.freq_ghz, 0.8);
}

TEST(KernUncore, EffectiveFreqIsMinOfPolicyAndFirmware) {
  Uncore u;
  u.set_policy_limit(2.0);
  u.set_firmware_cap(1.2);
  u.tick(0.01, 100);
  EXPECT_DOUBLE_EQ(u.st.freq_ghz, 1.2);
  u.set_firmware_cap(2.2);
  u.tick(0.01, 100);
  EXPECT_DOUBLE_EQ(u.st.freq_ghz, 2.0);
}

TEST(KernUncore, LimitsClampToLadder) {
  Uncore u;
  u.set_policy_limit(9.0);
  EXPECT_DOUBLE_EQ(u.st.policy_limit_ghz, 2.2);
  u.set_policy_limit(0.1);
  EXPECT_DOUBLE_EQ(u.st.policy_limit_ghz, 0.8);
}

TEST(KernUncore, CapacityGrowsWithFrequency) {
  const Uncore u;
  const double cap_max = u.capacity_at(2.2);
  const double cap_min = u.capacity_at(0.8);
  EXPECT_GT(cap_max, cap_min);
  EXPECT_DOUBLE_EQ(cap_max, ms::intel_a100().cpu.peak_mem_bw_mbps);
  // Fig. 2's premise: min uncore delivers roughly half the peak bandwidth.
  EXPECT_NEAR(cap_min / cap_max, 0.52, 0.03);
}

TEST(KernUncore, PowerMonotoneInFrequency) {
  Uncore u;
  u.set_policy_limit(0.8);
  u.tick(0.01, 100);
  const double p_min = u.power(0.5);
  u.set_policy_limit(2.2);
  u.tick(0.01, 100);
  const double p_max = u.power(0.5);
  EXPECT_GT(p_max, p_min);
}

TEST(KernUncore, PowerMonotoneInUtilisation) {
  const Uncore u;
  EXPECT_GT(u.power(1.0), u.power(0.0));
  EXPECT_EQ(u.power(-1.0), u.power(0.0));  // clamped
  EXPECT_EQ(u.power(2.0), u.power(1.0));
}

TEST(KernUncore, Fig2PowerDeltaCalibration) {
  // One socket, UNet-like utilisation: the max-vs-min uncore power delta
  // must be ~40 W (x2 sockets ~= the paper's 82 W package drop).
  const Uncore hi;
  Uncore lo;
  lo.set_policy_limit(0.8);
  lo.tick(0.01, 200);
  const double delta = hi.power(0.5) - lo.power(0.6);
  EXPECT_GT(delta, 30.0);
  EXPECT_LT(delta, 52.0);
}

// Property: capacity is monotone across the whole ladder.
class UncoreLadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(UncoreLadderSweep, MonotoneCurves) {
  const Uncore u;
  const double f = 0.8 + 0.1 * GetParam();
  const double f_next = f + 0.1;
  if (f_next > 2.2) GTEST_SKIP();
  EXPECT_LT(u.capacity_at(f), u.capacity_at(f_next));
}

INSTANTIATE_TEST_SUITE_P(Ladder, UncoreLadderSweep, ::testing::Range(0, 14));

// --- firmware governor -----------------------------------------------------
// The stock firmware behaviour the paper's Fig. 1 exposes: the uncore cap
// moves only when package power approaches TDP.

TEST(KernFirmware, StaysAtMaxBelowTdp) {
  Firmware fw(0.93);
  // GPU-dominant workloads: package power far below the 270 W TDP.
  fw.update(10000, 120.0);
  EXPECT_DOUBLE_EQ(fw.st.cap_ghz, 2.2);
}

TEST(KernFirmware, ThrottlesNearTdp) {
  Firmware fw(0.93);
  fw.update(100, 265.0);  // > 0.93 * 270
  EXPECT_LT(fw.st.cap_ghz, 2.2);
}

TEST(KernFirmware, ThrottleSaturatesAtMin) {
  Firmware fw(0.93);
  fw.update(100000, 400.0);
  EXPECT_DOUBLE_EQ(fw.st.cap_ghz, 0.8);
}

TEST(KernFirmware, RecoversWhenPowerDrops) {
  Firmware fw(0.93);
  fw.update(1000, 300.0);
  EXPECT_LT(fw.st.cap_ghz, 2.2);
  fw.update(100000, 100.0);
  EXPECT_DOUBLE_EQ(fw.st.cap_ghz, 2.2);
}

TEST(KernFirmware, RecoveryIsDwellLimited) {
  // The cap must not bounce back instantly (one step per dwell window).
  Firmware fw(0.93);
  fw.update(1000, 300.0);
  const double throttled = fw.st.cap_ghz;
  fw.update(1, 100.0);
  EXPECT_LE(fw.st.cap_ghz, throttled + 0.1 + 1e-9);
}

TEST(KernFirmware, ThresholdScalesWithBackoffFraction) {
  Firmware tight(0.5);  // throttle at 135 W
  tight.update(100, 150.0);
  EXPECT_LT(tight.st.cap_ghz, 2.2);

  Firmware loose(1.0);
  loose.update(100, 260.0);
  EXPECT_DOUBLE_EQ(loose.st.cap_ghz, 2.2);
}

// --- core governor and fixed counters --------------------------------------

TEST(KernCore, GovernorRaisesFrequencyUnderLoad) {
  Core c;
  const double f0 = c.st.freq_ghz;
  c.tick(500, 0.9, 1.6);
  EXPECT_GT(c.st.freq_ghz, f0);
  EXPECT_LE(c.st.freq_ghz, ms::intel_a100().cpu.core_max_ghz);
}

TEST(KernCore, GovernorDropsWhenIdle) {
  Core c;
  c.tick(500, 0.9, 1.6);
  const double busy = c.st.freq_ghz;
  c.tick(2000, 0.02, 1.6);
  EXPECT_LT(c.st.freq_ghz, busy);
}

TEST(KernCore, CountersMonotone) {
  Core c;
  const double i0 = c.st.instructions;
  const double c0 = c.st.cycles;
  c.tick(100, 0.5, 1.6);
  EXPECT_GT(c.st.instructions, i0);
  EXPECT_GT(c.st.cycles, c0);
}

TEST(KernCore, IpcVisibleInCounters) {
  // Same utilisation, different effective IPC: the core with stalled memory
  // retires fewer instructions per cycle -- what UPS reads.
  Core fast;
  Core slow;
  fast.tick(1000, 0.5, 1.6);
  slow.tick(1000, 0.5, 0.8);
  const double ipc_fast = fast.st.instructions / fast.st.cycles;
  const double ipc_slow = slow.st.instructions / slow.st.cycles;
  EXPECT_GT(ipc_fast, ipc_slow);
  EXPECT_NEAR(ipc_fast, 1.6, 0.1);
  EXPECT_NEAR(ipc_slow, 0.8, 0.1);
}

TEST(KernCore, DisplayFreqStaysInBand) {
  Core c;
  c.tick(200, 0.6, 1.6);
  for (int core = 0; core < 4; ++core) {
    for (double t = 0.0; t < 2.0; t += 0.1) {
      const double f = mk::core_display_freq_ghz(c.st, c.p, core, mc::Seconds(t));
      EXPECT_GE(f, ms::intel_a100().cpu.core_min_ghz);
      EXPECT_LE(f, ms::intel_a100().cpu.core_max_ghz);
    }
  }
}

TEST(KernCore, DisplayFreqDiffersAcrossCores) {
  // Fig. 1a plots four cores; they must not be identical lines.
  Core c;
  c.tick(200, 0.6, 1.6);
  EXPECT_NE(mk::core_display_freq_ghz(c.st, c.p, 0, mc::Seconds(1.0)),
            mk::core_display_freq_ghz(c.st, c.p, 1, mc::Seconds(1.0)));
}

TEST(KernCore, PowerScalesWithUtilAndFreq) {
  Core c;
  const double idle = mk::core_power_w(c.st, c.p, 0.0);
  c.tick(1000, 1.0, 1.6);
  const double busy = mk::core_power_w(c.st, c.p, 1.0);
  EXPECT_GT(busy, idle);
  EXPECT_NEAR(idle, ms::intel_a100().cpu.core_idle_w, 1.0);
}

// --- GPU boards ------------------------------------------------------------

TEST(KernGpu, IdlePowerFloor) {
  Gpu gpu(ms::intel_a100());
  gpu.tick(1000, 0.0);
  EXPECT_NEAR(gpu.st.power_w, 30.0, 1.0);  // paper: A100-40GB idles ~30 W
}

TEST(KernGpu, FourA100IdleFloorIs200W) {
  Gpu gpu(ms::intel_4a100());
  gpu.tick(1000, 0.0);
  // Paper section 6.1: four A100-80GB boards idle at ~200 W total.
  EXPECT_NEAR(gpu.st.power_w, 200.0, 5.0);
}

TEST(KernGpu, ClockBoostsWithLoad) {
  Gpu gpu(ms::intel_a100());
  const double f0 = gpu.st.clock_ghz;
  gpu.tick(1000, 0.95);
  EXPECT_GT(gpu.st.clock_ghz, f0);
  EXPECT_LE(gpu.st.clock_ghz, ms::intel_a100().gpu.max_clock_ghz + 1e-9);
}

TEST(KernGpu, PowerBoundedByPeak) {
  Gpu gpu(ms::intel_a100());
  gpu.tick(5000, 1.0);
  EXPECT_LE(gpu.st.power_w, ms::intel_a100().gpu.peak_w + 1e-6);
  EXPECT_GT(gpu.st.power_w, 0.8 * ms::intel_a100().gpu.peak_w);
}

TEST(KernGpu, EnergyIntegratesPower) {
  Gpu gpu(ms::intel_a100());
  gpu.tick(500, 0.0);
  // ~1 s at ~30 W.
  EXPECT_NEAR(gpu.st.energy_j, 30.0, 2.0);
}

TEST(KernGpu, StalledDeviceBurnsLessThanBusy) {
  // A starved host pipeline lowers effective utilisation; board power must
  // follow (this converts perf loss into idle-energy cost in Fig. 4c).
  Gpu busy(ms::intel_a100());
  Gpu stalled(ms::intel_a100());
  busy.tick(2000, 0.95);
  stalled.tick(2000, 0.95 / 1.8);  // stretch factor 1.8
  EXPECT_LT(stalled.st.power_w, busy.st.power_w);
  EXPECT_GT(stalled.st.power_w, ms::intel_a100().gpu.idle_w);
}

TEST(KernGpu, BoardPowerIsTotalOverCount) {
  // The state carries all boards summed: per-board power times the count.
  Gpu gpu(ms::intel_4a100());
  gpu.tick(100, 0.5);
  EXPECT_EQ(gpu.p.count, 4);
  const double clock_frac = gpu.st.clock_ghz / gpu.p.max_clock_ghz;
  const double per_board =
      gpu.p.idle_w + (gpu.p.peak_w - gpu.p.idle_w) * 0.5 * clock_frac * clock_frac;
  EXPECT_NEAR(per_board * 4.0, gpu.st.power_w, 1e-9);
}

TEST(KernGpu, UtilClamped) {
  Gpu gpu(ms::intel_a100());
  gpu.tick(100, 7.5);
  EXPECT_LE(gpu.st.power_w, ms::intel_a100().gpu.peak_w + 1e-6);
}
