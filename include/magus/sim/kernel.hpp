#pragma once
// The node-tick kernel (namespace magus::sim::kern).
//
// One copy of the per-tick arithmetic, written against plain-old-data state
// structs and a `Lane` accessor concept. LaneStore (sim/node.hpp) is the one
// instantiation: its struct-of-arrays view is what NodeModel/SimEngine tick
// as a single lane and BatchEngine ticks across a fleet shard, so every
// engine runs the same IEEE-754 operation sequence. The golden determinism
// tests and the fleet rollup goldens pin its bit patterns. Keep every
// expression here in the exact order it has -- reassociating a sum or
// hoisting a multiply changes bit patterns and breaks the goldens.
//
// Hoist or memoize a value only when its inputs are bit-identical: the same
// IEEE-754 operation on the same operands gives the same bits, so reusing
// the result is exact. The governor alphas (1 - exp(-dt/tau)) are memoized
// on dt and the GPU boost curve (pow(util, 0.7)) on util, both in the lane's
// own state, so a lane ticking at its fixed tick_s pays each exp once and a
// steady phase pays the pow once; any other dt or util recomputes.
//
// Functions here are contract-free on purpose: inputs are validated where
// they enter (LaneStore::add_lane, the hw backends, manifest validation), so
// the kernel stays branch-lean for the tick loop.

#include <algorithm>
#include <cmath>
#include <limits>

#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/memory_system.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

/// Instantaneous workload requirements for one tick.
struct WorkSlice {
  double demand_mbps = 0.0;     ///< node-wide DRAM traffic demand
  double mem_bound_frac = 0.0;  ///< progress fraction gated on memory
  double cpu_util = 0.0;
  double gpu_util = 0.0;
};

/// Results of one tick, consumed by the engine for progress + tracing.
struct TickOutput {
  double progress_rate = 1.0;  ///< d(progress)/dt, <= 1 when stretched
  double delivered_mbps = 0.0;
  double pkg_power_w = 0.0;   ///< all sockets
  double dram_power_w = 0.0;  ///< all sockets
  double gpu_power_w = 0.0;   ///< all boards
  double uncore_freq_ghz = 0.0;
  double stretch = 1.0;
};

namespace kern {

// --- constants -------------------------------------------------------------

/// Uncore frequency transitions complete within ~10 ms (MSR writes are
/// near-instant; PLL relock and traffic draining dominate).
inline constexpr double kUncoreSlewGhzPerS = 150.0;
inline constexpr double kFirmwareStepGhz = 0.1;
inline constexpr double kFirmwareRaiseDwellS = 0.05;
inline constexpr double kCoreGovernorTau = 0.15;  ///< governor smoothing (s)
inline constexpr double kBaseIpc = 1.6;
inline constexpr double kGpuGovernorTau = 0.08;
/// Relative measurement/transport noise on delivered traffic.
inline constexpr double kTrafficNoiseRel = 0.002;
/// OS + housekeeping DRAM traffic always present (MB/s).
inline constexpr double kBackgroundTrafficMbps = 300.0;
/// Hard cap on sockets * dies_per_socket: the per-domain tick path uses
/// fixed stack scratch (no heap in the hot path). Enforced at the API
/// boundaries (LaneStore::add_lane, manifest validation), not here.
inline constexpr int kMaxDomains = 64;

// --- per-subsystem state (POD, SoA-friendly) -------------------------------

struct UncoreState {
  double policy_limit_ghz = 0.0;  ///< MSR 0x620 MAX_RATIO, ladder-clamped
  double firmware_cap_ghz = 0.0;  ///< TDP back-off cap on top of the limit
  double freq_ghz = 0.0;          ///< effective frequency (slews to the min)
};

struct FirmwareState {
  double cap_ghz = 0.0;
  double hold_s = 0.0;  ///< dwell before raising the cap back up
};

/// A memoized f(x): `value` holds f(`arg`). NaN never compares equal, so the
/// first lookup always computes.
struct Memo {
  double arg = std::numeric_limits<double>::quiet_NaN();
  double value = 0.0;
};

struct CoreState {
  double freq_ghz = 0.0;
  double cycles = 0.0;        ///< per-core cumulative unhalted cycles
  double instructions = 0.0;  ///< per-core cumulative retired instructions
  Memo alpha;                 ///< governor alpha on dt
};

struct GpuState {
  double clock_ghz = 0.0;
  double power_w = 0.0;  ///< all boards summed
  double energy_j = 0.0;
  Memo alpha;  ///< governor alpha on dt
  Memo boost;  ///< boost curve pow(util, 0.7) on the clamped util
};

// --- precomputed per-system parameters -------------------------------------

struct FirmwareParams {
  double threshold_w = 0.0;  ///< tdp_w * backoff_frac
  double floor_ghz = 0.0;    ///< spec uncore min (unquantised)
  double ceiling_ghz = 0.0;  ///< spec uncore max (unquantised)
};

struct UncoreParams {
  double leak_w = 0.0;
  double k1_w_per_ghz = 0.0;
  double k2_w_per_ghz2 = 0.0;
  double util_floor = 0.0;
  double bw_floor_frac = 0.0;
  double peak_mem_bw_mbps = 0.0;
  double ladder_max_ghz = 0.0;  ///< quantised ladder top, not the spec value
};

struct CoreParams {
  double min_ghz = 0.0;
  double max_ghz = 0.0;
  double idle_w = 0.0;
  double dyn_w = 0.0;
};

struct GpuParams {
  double base_clock_ghz = 0.0;
  double max_clock_ghz = 0.0;
  double idle_w = 0.0;
  double peak_w = 0.0;
  int count = 0;
};

/// Everything node_tick needs, precomputed once per system spec.
struct NodeParams {
  int sockets = 0;
  int dies_per_socket = 1;  ///< uncore domains per socket
  double numa_skew = 0.0;   ///< demand fraction pinned to domain 0
  hw::UncoreFreqLadder ladder{0.8, 2.2};
  FirmwareParams fw;
  UncoreParams uncore;  ///< per-socket coefficients (legacy path)
  UncoreParams die;     ///< per-die coefficients (per-domain path)
  CoreParams core;
  GpuParams gpu;
  double dram_idle_w = 0.0;
  double dram_dyn_w = 0.0;

  [[nodiscard]] int domains() const noexcept { return sockets * dies_per_socket; }

  /// True when the node runs the legacy single-domain-per-socket memory
  /// path, whose IEEE-754 sequence is pinned by the seed goldens.
  [[nodiscard]] bool single_domain() const noexcept {
    return dies_per_socket == 1 && numa_skew == 0.0;
  }

  [[nodiscard]] static NodeParams from_spec(const SystemSpec& spec) {
    NodeParams p;
    p.sockets = spec.cpu.sockets;
    p.dies_per_socket = spec.cpu.dies_per_socket;
    p.numa_skew = spec.numa_skew;
    p.ladder = hw::UncoreFreqLadder(spec.cpu.uncore_min_ghz, spec.cpu.uncore_max_ghz);
    p.fw.threshold_w = spec.cpu.tdp_w * spec.tdp_backoff_frac;
    p.fw.floor_ghz = spec.cpu.uncore_min_ghz;
    p.fw.ceiling_ghz = spec.cpu.uncore_max_ghz;
    p.uncore.leak_w = spec.cpu.uncore_leak_w;
    p.uncore.k1_w_per_ghz = spec.cpu.uncore_k1_w_per_ghz;
    p.uncore.k2_w_per_ghz2 = spec.cpu.uncore_k2_w_per_ghz2;
    p.uncore.util_floor = spec.cpu.uncore_util_floor;
    p.uncore.bw_floor_frac = spec.cpu.bw_floor_frac;
    p.uncore.peak_mem_bw_mbps = spec.cpu.peak_mem_bw_mbps;
    p.uncore.ladder_max_ghz = p.ladder.max_ghz();
    // Per-die coefficients: the socket's uncore power and bandwidth split
    // evenly across its dies (x / 1.0 == x, so dies_per_socket == 1 keeps
    // the per-socket values bit-exactly).
    p.die = p.uncore;
    const double dies = static_cast<double>(p.dies_per_socket);
    p.die.leak_w /= dies;
    p.die.k1_w_per_ghz /= dies;
    p.die.k2_w_per_ghz2 /= dies;
    p.die.peak_mem_bw_mbps /= dies;
    p.core = {spec.cpu.core_min_ghz, spec.cpu.core_max_ghz, spec.cpu.core_idle_w,
              spec.cpu.core_dyn_w};
    p.gpu = {spec.gpu.base_clock_ghz, spec.gpu.max_clock_ghz, spec.gpu.idle_w,
             spec.gpu.peak_w, spec.gpu.count};
    p.dram_idle_w = spec.cpu.dram_idle_w;
    p.dram_dyn_w = spec.cpu.dram_dyn_w;
    return p;
  }
};

// --- power-on state ---------------------------------------------------------

[[nodiscard]] inline UncoreState init_uncore(const hw::UncoreFreqLadder& ladder) {
  const double top = ladder.max_ghz();
  return {top, top, top};
}

[[nodiscard]] inline FirmwareState init_firmware(const FirmwareParams& p) {
  return {p.ceiling_ghz, 0.0};
}

[[nodiscard]] inline CoreState init_core(const CoreParams& p) {
  CoreState st;
  st.freq_ghz = p.min_ghz;
  return st;
}

[[nodiscard]] inline GpuState init_gpu(const GpuParams& p) {
  GpuState st;
  st.clock_ghz = p.base_clock_ghz;
  st.power_w = p.idle_w * p.count;
  return st;
}

// magus:hot-path-begin
// --- per-subsystem step functions ------------------------------------------

/// Governor smoothing factor 1 - exp(-dt / tau), memoized on dt.
inline double governor_alpha(Memo& m, double dt, double tau) {
  if (dt != m.arg) {
    m.arg = dt;
    m.value = 1.0 - std::exp(-dt / tau);
  }
  return m.value;
}

/// SM clock boost curve pow(util, 0.7), memoized on util.
inline double gpu_boost(Memo& m, double util) {
  if (util != m.arg) {
    m.arg = util;
    m.value = std::pow(util, 0.7);
  }
  return m.value;
}

/// Stock TDP-coupled firmware behaviour; returns the (unclamped) cap.
inline double firmware_update(FirmwareState& st, const FirmwareParams& p, double dt,
                              double pkg_w) {
  if (pkg_w > p.threshold_w) {
    st.cap_ghz = std::max(p.floor_ghz, st.cap_ghz - kFirmwareStepGhz);
    st.hold_s = kFirmwareRaiseDwellS;
  } else {
    st.hold_s -= dt;
    if (st.hold_s <= 0.0 && st.cap_ghz < p.ceiling_ghz) {
      st.cap_ghz = std::min(p.ceiling_ghz, st.cap_ghz + kFirmwareStepGhz);
      st.hold_s = kFirmwareRaiseDwellS;
    }
  }
  return st.cap_ghz;
}

/// Policy-programmed max ratio limit (what MSR 0x620 writes set).
inline void uncore_set_policy_limit(UncoreState& st, const hw::UncoreFreqLadder& ladder,
                                    double requested) {
  st.policy_limit_ghz = ladder.clamp_ghz(requested);
}

inline void uncore_set_firmware_cap(UncoreState& st, const hw::UncoreFreqLadder& ladder,
                                    double requested) {
  st.firmware_cap_ghz = ladder.clamp_ghz(requested);
}

/// Slew the effective frequency toward min(policy limit, firmware cap).
inline void uncore_tick(UncoreState& st, double dt) {
  const double target = std::min(st.policy_limit_ghz, st.firmware_cap_ghz);
  const double max_step = kUncoreSlewGhzPerS * dt;
  if (st.freq_ghz < target) {
    st.freq_ghz = std::min(target, st.freq_ghz + max_step);
  } else if (st.freq_ghz > target) {
    st.freq_ghz = std::max(target, st.freq_ghz - max_step);
  }
}

/// Deliverable DRAM bandwidth (MB/s, per socket) at frequency `f` GHz.
[[nodiscard]] inline double uncore_capacity_at(const UncoreParams& p, double f) {
  const double frac = p.bw_floor_frac + (1.0 - p.bw_floor_frac) * (f / p.ladder_max_ghz);
  return p.peak_mem_bw_mbps * frac;
}

/// Uncore power (W) at the current frequency and a utilisation in [0,1].
[[nodiscard]] inline double uncore_power(const UncoreState& st, const UncoreParams& p,
                                         double utilization) {
  const double u = std::clamp(utilization, 0.0, 1.0);
  const double f = st.freq_ghz;
  const double dyn = p.k1_w_per_ghz * f + p.k2_w_per_ghz2 * f * f;
  const double activity = p.util_floor + (1.0 - p.util_floor) * u;
  return p.leak_w + dyn * activity;
}

inline void core_tick(CoreState& st, const CoreParams& p, double dt, double util,
                      double ipc_eff) {
  util = std::clamp(util, 0.0, 1.0);
  // Stock DVFS: frequency follows load, saturating toward max under load.
  const double target =
      std::min(p.max_ghz, p.min_ghz + (p.max_ghz - p.min_ghz) * util * 1.4);
  const double alpha = governor_alpha(st.alpha, dt, kCoreGovernorTau);
  st.freq_ghz += (target - st.freq_ghz) * alpha;

  // Fixed counters advance only while cores are unhalted.
  const double active = std::max(util, 0.02);  // housekeeping threads
  const double cycles_delta = st.freq_ghz * 1e9 * active * dt;
  st.cycles += cycles_delta;
  st.instructions += cycles_delta * std::max(0.05, ipc_eff);
}

/// Core (non-uncore) power per socket at the current operating point.
[[nodiscard]] inline double core_power_w(const CoreState& st, const CoreParams& p,
                                         double util) {
  util = std::clamp(util, 0.0, 1.0);
  const double ffrac = st.freq_ghz / p.max_ghz;
  return p.idle_w + p.dyn_w * util * ffrac * ffrac;
}

/// Display frequency of core `core` at sim time `now`: the governor
/// frequency plus a per-core spread. Each core's governor hunts
/// independently; a small phase-shifted oscillation reproduces the scatter
/// in Fig. 1a. Trace-only: nothing in the tick reads it.
[[nodiscard]] inline double core_display_freq_ghz(const CoreState& st, const CoreParams& p,
                                                  int core, common::Seconds now) {
  const double phase = static_cast<double>(core) * 0.37;
  const double wobble = 0.04 * std::sin(6.2831853 * (now.value() / 1.1 + phase));
  const double f = st.freq_ghz * (1.0 + wobble);
  return std::clamp(f, p.min_ghz, p.max_ghz);
}

inline void gpu_tick(GpuState& st, const GpuParams& p, double dt, double util_effective) {
  const double util = std::clamp(util_effective, 0.0, 1.0);
  // SM clock boosts with load (sub-linear: boost bins saturate early).
  const double target =
      p.base_clock_ghz + (p.max_clock_ghz - p.base_clock_ghz) * gpu_boost(st.boost, util);
  const double alpha = governor_alpha(st.alpha, dt, kGpuGovernorTau);
  st.clock_ghz += (target - st.clock_ghz) * alpha;

  const double clock_frac = st.clock_ghz / p.max_clock_ghz;
  const double per_board =
      p.idle_w + (p.peak_w - p.idle_w) * util * clock_frac * clock_frac;
  st.power_w = per_board * p.count;
  st.energy_j += st.power_w * dt;
}

// --- the whole-node tick ---------------------------------------------------

/// Advance one node by `dt` under `slice`. `jitter` is the tick's traffic
/// noise factor, drawn by the caller (common::Rng::jitter(kTrafficNoiseRel),
/// one draw per tick): the draw is a pure function of the lane's seed and
/// tick index, so it is an input here and the kernel owns no random stream.
/// `Lane` adapts the storage layout:
///   lane.uncore(d)   -> UncoreState&        lane.pkg_energy(s)  -> double&
///   lane.firmware(s) -> FirmwareState&      lane.dram_energy(s) -> double&
///   lane.core()      -> CoreState&          lane.last_pkg_w(s)  -> double&
///   lane.gpu()       -> GpuState&           lane.traffic_mb()   -> double&
///   lane.domain_traffic_mb(d)    -> double&   (cumulative MB, per domain)
///   lane.domain_uncore_energy(d) -> double&   (cumulative J, per domain)
///   lane.domain_stretch_time(d)  -> double&   (integral of stretch, per domain)
/// `s` indexes sockets, `d` indexes uncore domains (socket-major:
/// d = s * dies_per_socket + die). With one die per socket they coincide.
///
/// Two bodies share the entry point. p.single_domain() selects the legacy
/// path, whose statement order the seed goldens pin; the per-domain accumulators
/// added to it only read values the legacy sequence already computed.
/// Multi-die or NUMA-skewed nodes take the per-domain path: demand splits
/// across domains (numa_skew pinned to domain 0, remainder uniform), each
/// domain services its share against its own die capacity, and node stretch
/// is the worst domain's.
template <class Lane>
TickOutput node_tick(Lane&& lane, const NodeParams& p, double dt, const WorkSlice& slice,
                     double monitor_extra_w, double jitter) {
  if (p.single_domain()) {
    // 1. Firmware governor per socket (stock TDP-coupled uncore behaviour),
    //    using the previous tick's power (sensor delay is ~1 tick anyway).
    for (int s = 0; s < p.sockets; ++s) {
      const double cap = firmware_update(lane.firmware(s), p.fw, dt, lane.last_pkg_w(s));
      uncore_set_firmware_cap(lane.uncore(s), p.ladder, cap);
      uncore_tick(lane.uncore(s), dt);
    }

    // 2. Memory service against the combined capacity.
    const double demand = slice.demand_mbps + kBackgroundTrafficMbps;
    double capacity = 0.0;
    for (int s = 0; s < p.sockets; ++s) {
      capacity += uncore_capacity_at(p.uncore, lane.uncore(s).freq_ghz);
    }
    const MemoryService mem =
        service_memory(common::Mbps(demand), common::Mbps(capacity), slice.mem_bound_frac);

    // 3. Core + GPU domains. Memory stalls depress effective IPC and the
    //    device's achieved utilisation alike.
    const double ipc_eff = kBaseIpc / mem.stretch;
    core_tick(lane.core(), p.core, dt, slice.cpu_util, ipc_eff);
    gpu_tick(lane.gpu(), p.gpu, dt, slice.gpu_util / mem.stretch);

    // 4. Power + energy. The workload splits evenly across sockets; a running
    //    monitor executes on socket 0.
    const double delivered_noisy =
        std::max(0.0, mem.delivered.value() * jitter);
    lane.traffic_mb() += delivered_noisy * dt;

    double pkg_total = 0.0;
    double dram_total = 0.0;
    const double bw_frac_per_socket =
        p.uncore.peak_mem_bw_mbps > 0.0
            ? std::clamp(mem.delivered.value() / static_cast<double>(p.sockets) /
                             p.uncore.peak_mem_bw_mbps,
                         0.0, 1.0)
            : 0.0;
    const double domain_mb = delivered_noisy * dt / static_cast<double>(p.sockets);
    for (int s = 0; s < p.sockets; ++s) {
      const double core_w = core_power_w(lane.core(), p.core, slice.cpu_util);
      const double uncore_w = uncore_power(lane.uncore(s), p.uncore, mem.utilization);
      const double monitor_w = (s == 0) ? monitor_extra_w : 0.0;
      const double pkg_w = core_w + uncore_w + monitor_w;
      const double dram_w = p.dram_idle_w + p.dram_dyn_w * bw_frac_per_socket;
      lane.pkg_energy(s) += pkg_w * dt;
      lane.dram_energy(s) += dram_w * dt;
      lane.last_pkg_w(s) = pkg_w;
      pkg_total += pkg_w;
      dram_total += dram_w;
      // Per-domain accumulators (domain == socket here). These feed the
      // per-domain rollups only; nothing below reads them back.
      lane.domain_uncore_energy(s) += uncore_w * dt;
      lane.domain_traffic_mb(s) += domain_mb;
      lane.domain_stretch_time(s) += mem.stretch * dt;
    }

    TickOutput out;
    out.progress_rate = 1.0 / mem.stretch;
    out.delivered_mbps = delivered_noisy;
    out.pkg_power_w = pkg_total;
    out.dram_power_w = dram_total;
    out.gpu_power_w = lane.gpu().power_w;
    out.uncore_freq_ghz = lane.uncore(0).freq_ghz;
    out.stretch = mem.stretch;
    return out;
  }

  // --- per-domain path (dies_per_socket > 1 or numa_skew != 0) -------------
  const int dies = p.dies_per_socket;
  const int domains = p.sockets * dies;

  // 1. Firmware per socket; its cap applies to every die in the package.
  for (int s = 0; s < p.sockets; ++s) {
    const double cap = firmware_update(lane.firmware(s), p.fw, dt, lane.last_pkg_w(s));
    for (int k = 0; k < dies; ++k) {
      const int d = s * dies + k;
      uncore_set_firmware_cap(lane.uncore(d), p.ladder, cap);
      uncore_tick(lane.uncore(d), dt);
    }
  }

  // 2. Per-domain memory service: numa_skew of the demand pins to domain 0,
  //    the rest spreads evenly; each domain runs against its die capacity.
  const double demand = slice.demand_mbps + kBackgroundTrafficMbps;
  const double spread = (1.0 - p.numa_skew) / static_cast<double>(domains);
  double delivered_d[kMaxDomains];
  double util_d[kMaxDomains];
  double stretch_d[kMaxDomains];
  double stretch = 1.0;
  for (int d = 0; d < domains; ++d) {
    const double share = spread + ((d == 0) ? p.numa_skew : 0.0);
    const double cap_d = uncore_capacity_at(p.die, lane.uncore(d).freq_ghz);
    const MemoryService m = service_memory(common::Mbps(demand * share),
                                           common::Mbps(cap_d), slice.mem_bound_frac);
    delivered_d[d] = m.delivered.value();
    util_d[d] = m.utilization;
    stretch_d[d] = m.stretch;
    stretch = std::max(stretch, m.stretch);
  }

  // 3. Core + GPU see the worst domain's stretch (the critical path).
  const double ipc_eff = kBaseIpc / stretch;
  core_tick(lane.core(), p.core, dt, slice.cpu_util, ipc_eff);
  gpu_tick(lane.gpu(), p.gpu, dt, slice.gpu_util / stretch);

  // 4. The tick's one jitter factor, applied to every domain's delivered
  //    traffic.
  double delivered_noisy = 0.0;
  for (int d = 0; d < domains; ++d) {
    const double noisy_d = std::max(0.0, delivered_d[d] * jitter);
    lane.domain_traffic_mb(d) += noisy_d * dt;
    lane.domain_stretch_time(d) += stretch_d[d] * dt;
    delivered_noisy += noisy_d;
  }
  lane.traffic_mb() += delivered_noisy * dt;

  // 5. Power + energy: socket uncore power is the sum of its dies.
  double pkg_total = 0.0;
  double dram_total = 0.0;
  for (int s = 0; s < p.sockets; ++s) {
    const double core_w = core_power_w(lane.core(), p.core, slice.cpu_util);
    double uncore_w = 0.0;
    double socket_delivered = 0.0;
    for (int k = 0; k < dies; ++k) {
      const int d = s * dies + k;
      const double die_w = uncore_power(lane.uncore(d), p.die, util_d[d]);
      lane.domain_uncore_energy(d) += die_w * dt;
      uncore_w += die_w;
      socket_delivered += delivered_d[d];
    }
    const double bw_frac =
        p.uncore.peak_mem_bw_mbps > 0.0
            ? std::clamp(socket_delivered / p.uncore.peak_mem_bw_mbps, 0.0, 1.0)
            : 0.0;
    const double monitor_w = (s == 0) ? monitor_extra_w : 0.0;
    const double pkg_w = core_w + uncore_w + monitor_w;
    const double dram_w = p.dram_idle_w + p.dram_dyn_w * bw_frac;
    lane.pkg_energy(s) += pkg_w * dt;
    lane.dram_energy(s) += dram_w * dt;
    lane.last_pkg_w(s) = pkg_w;
    pkg_total += pkg_w;
    dram_total += dram_w;
  }

  TickOutput out;
  out.progress_rate = 1.0 / stretch;
  out.delivered_mbps = delivered_noisy;
  out.pkg_power_w = pkg_total;
  out.dram_power_w = dram_total;
  out.gpu_power_w = lane.gpu().power_w;
  out.uncore_freq_ghz = lane.uncore(0).freq_ghz;
  out.stretch = stretch;
  return out;
}
// magus:hot-path-end

}  // namespace kern
}  // namespace magus::sim
