#pragma once
// The node-tick kernel (namespace magus::sim::kern).
//
// One copy of the per-tick arithmetic, written against plain-old-data state
// structs and a `Lane` accessor concept, and templated on the lane value
// type V (sim/pack.hpp): `double` ticks one lane -- the LaneStore view that
// NodeModel and LaneRun::step tick (SimEngine's lane, BatchEngine's
// leftover lanes) -- and
// `kern::Pack2` ticks two lanes at once in the two slots of one SSE2
// register (BatchEngine's lockstep pairs, sim::LanePair). Slot k of a Pack2
// tick runs exactly the IEEE-754 operation sequence a double tick runs on
// lane k: every branch is an exact select that keeps std::min/max/clamp
// operand order (skipped whole when no slot would take it, so a steady
// lane's state does not wait on the select's inputs), misses of the scalar
// memos (the governor exp, the boost pow, the ladder quantisation) are
// computed slot by slot, a memory-service miss recomputes both slots
// two-wide, and nothing is reassociated. The golden determinism tests
// and the fleet rollup goldens pin its bit patterns, and
// tests/sim/test_kernel_width.cpp checks a width-2 tick against two width-1
// ticks. Keep every expression here in the exact order it has --
// reassociating a sum or hoisting a multiply changes bit patterns and breaks
// the goldens. The build pins -ffp-contract=off so no multiply-add is fused.
//
// Hoist or memoize a value only when its inputs are bit-identical: the same
// IEEE-754 operation on the same operands gives the same bits, so reusing
// the result is exact. Four memos live in the lane's own state:
//   - the governor alphas (1 - exp(-dt/tau)), on dt;
//   - the GPU boost curve (pow(util, 0.7)), on util;
//   - the firmware cap's ladder quantisation, on the cap;
//   - the memory service (BasicServiceMemo): capacity, service, the stretch
//     divisions and the uncore and DRAM power, on the slice's demand,
//     memory-bound fraction and GPU utilisation plus every domain's uncore
//     frequency, compared bit for bit.
// So a lane ticking at its fixed tick_s pays each exp once, a steady phase
// pays the pow once, a steady firmware cap the quantisation once, and a
// steady phase at a steady uncore the memory service once; any other input
// recomputes. Every memoized value is a pure function of its key and the
// NodeParams, written together with its key, so a memo is right wherever it
// sits: LaneStore::load/save leave the service memo behind, and each side
// goes on with its own.
//
// Functions here are contract-free on purpose: inputs are validated where
// they enter (LaneStore::add_lane, the hw backends, manifest validation), so
// the kernel stays branch-lean for the tick loop.

#include <algorithm>
#include <cmath>
#include <limits>

#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/memory_system.hpp"
#include "magus/sim/pack.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

/// Instantaneous workload requirements for one tick.
template <class V>
struct BasicWorkSlice {
  V demand_mbps{};     ///< node-wide DRAM traffic demand
  V mem_bound_frac{};  ///< progress fraction gated on memory
  V cpu_util{};
  V gpu_util{};
};
using WorkSlice = BasicWorkSlice<double>;

/// Results of one tick, consumed by the engine for progress + tracing.
template <class V>
struct BasicTickOutput {
  V progress_rate = kern::splat<V>(1.0);  ///< d(progress)/dt, <= 1 when stretched
  V delivered_mbps{};
  V pkg_power_w{};   ///< all sockets
  V dram_power_w{};  ///< all sockets
  V gpu_power_w{};   ///< all boards
  V uncore_freq_ghz{};
  V stretch = kern::splat<V>(1.0);
};
using TickOutput = BasicTickOutput<double>;

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
/// Hard cap on sockets * dies_per_socket, an input bound on the node shape
/// (far above any modelled part). Enforced at the API boundaries
/// (LaneStore::add_lane, manifest validation), not here.
inline constexpr int kMaxDomains = 64;
/// Key of a fresh memory-service memo. That memo compares bit patterns, and
/// no arithmetic result or parsed number is a signaling NaN, so a fresh memo
/// misses on every input.
inline constexpr double kFreshKey = std::numeric_limits<double>::signaling_NaN();

// --- per-subsystem state (POD, SoA-friendly) -------------------------------

/// A memoized f(x): `value` holds f(`arg`), slot by slot. NaN never compares
/// equal, so the first lookup always computes.
template <class V>
struct BasicMemo {
  V arg = splat<V>(std::numeric_limits<double>::quiet_NaN());
  V value{};
};

template <class V>
struct BasicUncoreState {
  V policy_limit_ghz{};  ///< MSR 0x620 MAX_RATIO, ladder-clamped
  V firmware_cap_ghz{};  ///< TDP back-off cap on top of the limit
  V freq_ghz{};          ///< effective frequency (slews to the min)
  // The domain's part of the memory-service memo (BasicServiceMemo): its key
  // and, for the per-domain body, the domain's service.
  V served_ghz = splat<V>(kFreshKey);  ///< key: freq_ghz at the last miss
  V delivered_mbps{};
  V stretch{};
  V power_w{};  ///< the die's uncore power
};

/// The memory-service memo of node_tick, per lane: what the tick's memory
/// half computes, keyed on the slice fields below plus every domain's
/// BasicUncoreState::served_ghz. A tick whose key matches the last miss's,
/// bit for bit in every slot, reuses all of it; otherwise every slot
/// recomputes.
template <class V>
struct BasicServiceMemo {
  V demand_mbps = splat<V>(kFreshKey);     ///< key
  V mem_bound_frac = splat<V>(kFreshKey);  ///< key
  V gpu_util = splat<V>(kFreshKey);        ///< key
  V delivered_mbps{};                      ///< node-wide (single-domain body)
  V stretch{};                             ///< the node's (worst domain's)
  V ipc_eff{};                             ///< kBaseIpc / stretch
  V gpu_util_eff{};                        ///< gpu_util / stretch
  V progress_rate{};                       ///< 1 / stretch
  V dram_total_w{};                        ///< all sockets
};

/// The memory-service memo's per-socket values.
template <class V>
struct BasicSocketService {
  V uncore_w{};  ///< the socket's uncore power, all dies
  V dram_w{};
};

template <class V>
struct BasicFirmwareState {
  V cap_ghz{};
  V hold_s{};              ///< dwell before raising the cap back up
  BasicMemo<V> on_ladder;  ///< the cap quantised onto the ladder, on the cap
};

template <class V>
struct BasicCoreState {
  V freq_ghz{};
  V cycles{};          ///< per-core cumulative unhalted cycles
  V instructions{};    ///< per-core cumulative retired instructions
  BasicMemo<V> alpha;  ///< governor alpha on dt
};

template <class V>
struct BasicGpuState {
  V clock_ghz{};
  V power_w{};  ///< all boards summed
  V energy_j{};
  BasicMemo<V> alpha;  ///< governor alpha on dt
  BasicMemo<V> boost;  ///< boost curve pow(util, 0.7) on the clamped util
};

using UncoreState = BasicUncoreState<double>;
using ServiceMemo = BasicServiceMemo<double>;
using SocketService = BasicSocketService<double>;
using FirmwareState = BasicFirmwareState<double>;
using Memo = BasicMemo<double>;
using CoreState = BasicCoreState<double>;
using GpuState = BasicGpuState<double>;

// --- precomputed per-system parameters -------------------------------------

struct FirmwareParams {
  double threshold_w = 0.0;  ///< tdp_w * backoff_frac
  double floor_ghz = 0.0;    ///< spec uncore min (unquantised)
  double ceiling_ghz = 0.0;  ///< spec uncore max (unquantised)

  bool operator==(const FirmwareParams&) const = default;
};

struct UncoreParams {
  double leak_w = 0.0;
  double k1_w_per_ghz = 0.0;
  double k2_w_per_ghz2 = 0.0;
  double util_floor = 0.0;
  double bw_floor_frac = 0.0;
  double peak_mem_bw_mbps = 0.0;
  double ladder_max_ghz = 0.0;  ///< quantised ladder top, not the spec value

  bool operator==(const UncoreParams&) const = default;
};

struct CoreParams {
  double min_ghz = 0.0;
  double max_ghz = 0.0;
  double idle_w = 0.0;
  double dyn_w = 0.0;

  bool operator==(const CoreParams&) const = default;
};

struct GpuParams {
  double base_clock_ghz = 0.0;
  double max_clock_ghz = 0.0;
  double idle_w = 0.0;
  double peak_w = 0.0;
  int count = 0;

  bool operator==(const GpuParams&) const = default;
};

/// Everything node_tick needs, precomputed once per system spec. Two lanes
/// tick as one Pack2 only when their NodeParams compare equal.
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

  bool operator==(const NodeParams&) const = default;

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
  return {p.ceiling_ghz, 0.0, {}};
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

/// f(x) through the memo `m`, slot by slot: a slot whose x moved computes
/// f in scalar, the others reuse their value.
template <class V, class F>
inline V memoized(BasicMemo<V>& m, V x, F f) {
  if (any(x != m.arg)) {
    for (int k = 0; k < kSlots<V>; ++k) {
      const double xk = slot(x, k);
      if (xk != slot(m.arg, k)) {
        set_slot(m.arg, k, xk);
        set_slot(m.value, k, f(xk));
      }
    }
  }
  return m.value;
}

/// Governor smoothing factor 1 - exp(-dt / tau), memoized on dt.
template <class V>
inline V governor_alpha(BasicMemo<V>& m, V dt, double tau) {
  return memoized(m, dt, [tau](double x) { return 1.0 - std::exp(-x / tau); });
}

/// SM clock boost curve pow(util, 0.7), memoized on util.
template <class V>
inline V gpu_boost(BasicMemo<V>& m, V util) {
  return memoized(m, util, [](double x) { return std::pow(x, 0.7); });
}

/// Stock TDP-coupled firmware behaviour; returns the (unclamped) cap. Above
/// the threshold the cap steps down and the dwell restarts; below it the
/// dwell runs down, and once spent the cap steps back up (dwell restarts).
/// When no slot steps -- the steady case -- one predictable branch skips the
/// selects, so the cap carries no data dependency on the previous tick's
/// package power.
template <class V>
inline V firmware_update(BasicFirmwareState<V>& st, const FirmwareParams& p, V dt, V pkg_w) {
  const auto hot = pkg_w > p.threshold_w;
  const V held = st.hold_s - dt;
  const auto raise = mand(mnot(hot), mand(held <= 0.0, st.cap_ghz < p.ceiling_ghz));
  if (!any(mor(hot, raise))) {
    st.hold_s = held;
    return st.cap_ghz;
  }
  const V lowered = vmax(splat<V>(p.floor_ghz), st.cap_ghz - kFirmwareStepGhz);
  const V raised = vmin(splat<V>(p.ceiling_ghz), st.cap_ghz + kFirmwareStepGhz);
  st.cap_ghz = sel(hot, lowered, sel(raise, raised, st.cap_ghz));
  st.hold_s = sel(mor(hot, raise), splat<V>(kFirmwareRaiseDwellS), held);
  return st.cap_ghz;
}

/// The firmware cap quantised onto the ladder (UncoreFreqLadder::clamp_ghz),
/// memoized on the cap, which moves only when the firmware steps it.
template <class V>
inline V firmware_cap_on_ladder(BasicFirmwareState<V>& st,
                                const hw::UncoreFreqLadder& ladder) {
  return memoized(st.on_ladder, st.cap_ghz,
                  [&ladder](double x) { return ladder.clamp_ghz(x); });
}

/// Policy-programmed max ratio limit (what MSR 0x620 writes set).
inline void uncore_set_policy_limit(UncoreState& st, const hw::UncoreFreqLadder& ladder,
                                    double requested) {
  st.policy_limit_ghz = ladder.clamp_ghz(requested);
}

/// Firmware TDP cap, ladder-clamped (node_tick memoizes the same clamp:
/// firmware_cap_on_ladder).
inline void uncore_set_firmware_cap(UncoreState& st, const hw::UncoreFreqLadder& ladder,
                                    double requested) {
  st.firmware_cap_ghz = ladder.clamp_ghz(requested);
}

/// Slew the effective frequency toward min(policy limit, firmware cap). A
/// frequency already at its target in every slot stays put without a select
/// (the steady case; see firmware_update).
template <class V>
inline void uncore_tick(BasicUncoreState<V>& st, V dt) {
  const V target = vmin(st.policy_limit_ghz, st.firmware_cap_ghz);
  if (!any(mor(st.freq_ghz < target, st.freq_ghz > target))) return;
  const V max_step = kUncoreSlewGhzPerS * dt;
  const V up = vmin(target, st.freq_ghz + max_step);
  const V down = vmax(target, st.freq_ghz - max_step);
  st.freq_ghz = sel(st.freq_ghz < target, up, sel(st.freq_ghz > target, down, st.freq_ghz));
}

/// Deliverable DRAM bandwidth (MB/s, per socket) at frequency `f` GHz.
template <class V>
[[nodiscard]] inline V uncore_capacity_at(const UncoreParams& p, V f) {
  const V frac = p.bw_floor_frac + (1.0 - p.bw_floor_frac) * (f / p.ladder_max_ghz);
  return p.peak_mem_bw_mbps * frac;
}

/// Uncore power (W) at the current frequency and a utilisation in [0,1].
template <class V>
[[nodiscard]] inline V uncore_power(const BasicUncoreState<V>& st, const UncoreParams& p,
                                    V utilization) {
  const V u = vclamp(utilization, splat<V>(0.0), splat<V>(1.0));
  const V f = st.freq_ghz;
  const V dyn = p.k1_w_per_ghz * f + p.k2_w_per_ghz2 * f * f;
  const V activity = p.util_floor + (1.0 - p.util_floor) * u;
  return p.leak_w + dyn * activity;
}

template <class V>
inline void core_tick(BasicCoreState<V>& st, const CoreParams& p, V dt, V util, V ipc_eff) {
  util = vclamp(util, splat<V>(0.0), splat<V>(1.0));
  // Stock DVFS: frequency follows load, saturating toward max under load.
  const V target =
      vmin(splat<V>(p.max_ghz), p.min_ghz + (p.max_ghz - p.min_ghz) * util * 1.4);
  const V alpha = governor_alpha(st.alpha, dt, kCoreGovernorTau);
  st.freq_ghz += (target - st.freq_ghz) * alpha;

  // Fixed counters advance only while cores are unhalted.
  const V active = vmax(util, splat<V>(0.02));  // housekeeping threads
  const V cycles_delta = st.freq_ghz * 1e9 * active * dt;
  st.cycles += cycles_delta;
  st.instructions += cycles_delta * vmax(splat<V>(0.05), ipc_eff);
}

/// Core (non-uncore) power per socket at the current operating point.
template <class V>
[[nodiscard]] inline V core_power_w(const BasicCoreState<V>& st, const CoreParams& p, V util) {
  util = vclamp(util, splat<V>(0.0), splat<V>(1.0));
  const V ffrac = st.freq_ghz / p.max_ghz;
  return p.idle_w + p.dyn_w * util * ffrac * ffrac;
}

template <class V>
inline void gpu_tick(BasicGpuState<V>& st, const GpuParams& p, V dt, V util_effective) {
  const V util = vclamp(util_effective, splat<V>(0.0), splat<V>(1.0));
  // SM clock boosts with load (sub-linear: boost bins saturate early).
  const V target =
      p.base_clock_ghz + (p.max_clock_ghz - p.base_clock_ghz) * gpu_boost(st.boost, util);
  const V alpha = governor_alpha(st.alpha, dt, kGpuGovernorTau);
  st.clock_ghz += (target - st.clock_ghz) * alpha;

  const V clock_frac = st.clock_ghz / p.max_clock_ghz;
  const V per_board = p.idle_w + (p.peak_w - p.idle_w) * util * clock_frac * clock_frac;
  st.power_w = per_board * static_cast<double>(p.count);
  st.energy_j += st.power_w * dt;
}

// --- the whole-node tick ---------------------------------------------------

/// True when the memory-service memo's key moved in some slot. Bit patterns,
/// not ==: -0.0, which Phase::valid admits, misses against 0.0, so no
/// signed-zero argument is needed.
template <class V, class Lane>
[[nodiscard]] inline bool service_key_moved(Lane& lane, int domains,
                                            const BasicWorkSlice<V>& slice) {
  const BasicServiceMemo<V>& m = lane.service();
  BitsOf<V> moved = bits_xor(slice.demand_mbps, m.demand_mbps) |
                    bits_xor(slice.mem_bound_frac, m.mem_bound_frac) |
                    bits_xor(slice.gpu_util, m.gpu_util);
  for (int d = 0; d < domains; ++d) {
    const BasicUncoreState<V>& u = lane.uncore(d);
    moved |= bits_xor(u.freq_ghz, u.served_ghz);
  }
  return any_bits(moved);
}

/// On a miss: the memo's slice key and lane-level values. The bodies write
/// the domain keys and the per-domain and per-socket values themselves.
template <class V>
inline void memoize_service(BasicServiceMemo<V>& m, const BasicWorkSlice<V>& slice,
                            V delivered, V stretch, V dram_total) {
  m.demand_mbps = slice.demand_mbps;
  m.mem_bound_frac = slice.mem_bound_frac;
  m.gpu_util = slice.gpu_util;
  m.delivered_mbps = delivered;
  m.stretch = stretch;
  m.ipc_eff = kBaseIpc / stretch;
  m.gpu_util_eff = slice.gpu_util / stretch;
  m.progress_rate = 1.0 / stretch;
  m.dram_total_w = dram_total;
}

/// The tick after its memory half, shared by both bodies: the core and GPU
/// governors, then package and DRAM power and energy per socket, all off
/// the service memo. Memory stalls depress effective IPC and the device's
/// achieved utilisation alike; a running monitor executes on socket 0.
template <class V, class Lane>
inline BasicTickOutput<V> finish_tick(Lane& lane, const NodeParams& p, V dt, V cpu_util,
                                      V monitor_extra_w, V delivered_noisy) {
  const V zero = splat<V>(0.0);
  const BasicServiceMemo<V>& m = lane.service();
  core_tick(lane.core(), p.core, dt, cpu_util, m.ipc_eff);
  gpu_tick(lane.gpu(), p.gpu, dt, m.gpu_util_eff);

  // Core power has the same operands on every socket: computed once.
  const V core_w = core_power_w(lane.core(), p.core, cpu_util);
  V pkg_total = zero;
  for (int s = 0; s < p.sockets; ++s) {
    const BasicSocketService<V>& service = lane.socket_service(s);
    const V monitor_w = (s == 0) ? monitor_extra_w : zero;
    const V pkg_w = core_w + service.uncore_w + monitor_w;
    lane.pkg_energy(s) += pkg_w * dt;
    lane.dram_energy(s) += service.dram_w * dt;
    lane.last_pkg_w(s) = pkg_w;
    pkg_total += pkg_w;
  }

  BasicTickOutput<V> out;
  out.progress_rate = m.progress_rate;
  out.delivered_mbps = delivered_noisy;
  out.pkg_power_w = pkg_total;
  out.dram_power_w = m.dram_total_w;
  out.gpu_power_w = lane.gpu().power_w;
  out.uncore_freq_ghz = lane.uncore(0).freq_ghz;
  out.stretch = m.stretch;
  return out;
}

/// Advance one node (V = double) or two (V = Pack2, one per slot) by `dt`
/// under `slice`. `jitter` is the tick's traffic noise factor, drawn by the
/// caller (common::Rng::jitter(kTrafficNoiseRel), one draw per tick): the
/// draw is a pure function of the lane's seed and tick index, so it is an
/// input here and the kernel owns no random stream. `Lane` adapts the
/// storage layout, every accessor returning a reference to V-typed state:
///   lane.uncore(d)   -> BasicUncoreState&    lane.pkg_energy(s)  -> V&
///   lane.firmware(s) -> BasicFirmwareState&  lane.dram_energy(s) -> V&
///   lane.core()      -> BasicCoreState&      lane.last_pkg_w(s)  -> V&
///   lane.gpu()       -> BasicGpuState&       lane.traffic_mb()   -> V&
///   lane.service()   -> BasicServiceMemo&    lane.socket_service(s)
///                                              -> BasicSocketService&
///   lane.domain_traffic_mb(d)    -> V&   (cumulative MB, per domain)
///   lane.domain_uncore_energy(d) -> V&   (cumulative J, per domain)
///   lane.domain_stretch_time(d)  -> V&   (integral of stretch, per domain)
/// `s` indexes sockets, `d` indexes uncore domains (socket-major:
/// d = s * dies_per_socket + die). With one die per socket they coincide.
/// Both slots of a Pack2 share `p`; dt, slice, monitor power and jitter may
/// differ per slot.
///
/// Two bodies share the entry point. p.single_domain() selects the legacy
/// path, whose arithmetic the seed goldens pin; the per-domain accumulators
/// added to it only read values the legacy sequence already computed.
/// Multi-die or NUMA-skewed nodes take the per-domain path: demand splits
/// across domains (numa_skew pinned to domain 0, remainder uniform), each
/// domain services its share against its own die capacity, and node stretch
/// is the worst domain's. Either body computes its memory half -- capacity,
/// service, the stretch divisions, uncore and DRAM power -- only when the
/// service memo's key moved (a Pack2 miss in either slot recomputes both:
/// the unchanged slot gets the same bits); every tick runs the firmware,
/// the jitter multiply, the accumulators, the governors and core power.
template <class V, class Lane>
BasicTickOutput<V> node_tick(Lane&& lane, const NodeParams& p, V dt,
                             const BasicWorkSlice<V>& slice, V monitor_extra_w, V jitter) {
  const V zero = splat<V>(0.0);
  const V one = splat<V>(1.0);
  if (p.single_domain()) {
    // 1. Firmware governor per socket (stock TDP-coupled uncore behaviour),
    //    using the previous tick's power (sensor delay is ~1 tick anyway).
    for (int s = 0; s < p.sockets; ++s) {
      BasicFirmwareState<V>& fw = lane.firmware(s);
      firmware_update(fw, p.fw, dt, lane.last_pkg_w(s));
      lane.uncore(s).firmware_cap_ghz = firmware_cap_on_ladder(fw, p.ladder);
      uncore_tick(lane.uncore(s), dt);
    }

    // 2. Memory service against the combined capacity. The workload splits
    //    evenly across sockets.
    if (service_key_moved(lane, p.sockets, slice)) {
      const V demand = slice.demand_mbps + kBackgroundTrafficMbps;
      V capacity = zero;
      for (int s = 0; s < p.sockets; ++s) {
        capacity += uncore_capacity_at(p.uncore, lane.uncore(s).freq_ghz);
      }
      const BasicMemoryService<V> mem = service_memory(demand, capacity, slice.mem_bound_frac);
      const V bw_frac_per_socket =
          p.uncore.peak_mem_bw_mbps > 0.0
              ? vclamp(mem.delivered / static_cast<double>(p.sockets) /
                           p.uncore.peak_mem_bw_mbps,
                       zero, one)
              : zero;
      const V dram_w = p.dram_idle_w + p.dram_dyn_w * bw_frac_per_socket;
      V dram_total = zero;
      for (int s = 0; s < p.sockets; ++s) {
        BasicUncoreState<V>& u = lane.uncore(s);
        u.served_ghz = u.freq_ghz;
        lane.socket_service(s) = {uncore_power(u, p.uncore, mem.utilization), dram_w};
        dram_total += dram_w;
      }
      memoize_service(lane.service(), slice, mem.delivered, mem.stretch, dram_total);
    }

    // 3. The tick's jitter factor on the delivered traffic, and the
    //    per-domain accumulators (domain == socket here). These feed the
    //    per-domain rollups only; nothing below reads them back.
    const BasicServiceMemo<V>& m = lane.service();
    const V delivered_noisy = vmax(zero, m.delivered_mbps * jitter);
    lane.traffic_mb() += delivered_noisy * dt;
    const V domain_mb = delivered_noisy * dt / static_cast<double>(p.sockets);
    for (int s = 0; s < p.sockets; ++s) {
      lane.domain_uncore_energy(s) += lane.socket_service(s).uncore_w * dt;
      lane.domain_traffic_mb(s) += domain_mb;
      lane.domain_stretch_time(s) += m.stretch * dt;
    }
    return finish_tick(lane, p, dt, slice.cpu_util, monitor_extra_w, delivered_noisy);
  }

  // --- per-domain path (dies_per_socket > 1 or numa_skew != 0) -------------
  const int dies = p.dies_per_socket;
  const int domains = p.sockets * dies;

  // 1. Firmware per socket; its cap applies to every die in the package.
  for (int s = 0; s < p.sockets; ++s) {
    BasicFirmwareState<V>& fw = lane.firmware(s);
    firmware_update(fw, p.fw, dt, lane.last_pkg_w(s));
    const V cap = firmware_cap_on_ladder(fw, p.ladder);
    for (int k = 0; k < dies; ++k) {
      const int d = s * dies + k;
      lane.uncore(d).firmware_cap_ghz = cap;
      uncore_tick(lane.uncore(d), dt);
    }
  }

  // 2. Per-domain memory service: numa_skew of the demand pins to domain 0,
  //    the rest spreads evenly; each domain runs against its die capacity.
  //    Core + GPU see the worst domain's stretch (the critical path); socket
  //    uncore power is the sum of its dies.
  if (service_key_moved(lane, domains, slice)) {
    const V demand = slice.demand_mbps + kBackgroundTrafficMbps;
    const double spread = (1.0 - p.numa_skew) / static_cast<double>(domains);
    V stretch = one;
    for (int d = 0; d < domains; ++d) {
      const double share = spread + ((d == 0) ? p.numa_skew : 0.0);
      BasicUncoreState<V>& u = lane.uncore(d);
      const V cap_d = uncore_capacity_at(p.die, u.freq_ghz);
      const BasicMemoryService<V> m =
          service_memory(demand * share, cap_d, slice.mem_bound_frac);
      u.served_ghz = u.freq_ghz;
      u.delivered_mbps = m.delivered;
      u.stretch = m.stretch;
      u.power_w = uncore_power(u, p.die, m.utilization);
      stretch = vmax(stretch, m.stretch);
    }
    V dram_total = zero;
    for (int s = 0; s < p.sockets; ++s) {
      V uncore_w = zero;
      V socket_delivered = zero;
      for (int k = 0; k < dies; ++k) {
        const BasicUncoreState<V>& u = lane.uncore(s * dies + k);
        uncore_w += u.power_w;
        socket_delivered += u.delivered_mbps;
      }
      const V bw_frac = p.uncore.peak_mem_bw_mbps > 0.0
                            ? vclamp(socket_delivered / p.uncore.peak_mem_bw_mbps, zero, one)
                            : zero;
      const V dram_w = p.dram_idle_w + p.dram_dyn_w * bw_frac;
      lane.socket_service(s) = {uncore_w, dram_w};
      dram_total += dram_w;
    }
    memoize_service(lane.service(), slice, zero, stretch, dram_total);
  }

  // 3. The tick's one jitter factor, applied to every domain's delivered
  //    traffic, and the per-domain accumulators.
  V delivered_noisy = zero;
  for (int d = 0; d < domains; ++d) {
    const BasicUncoreState<V>& u = lane.uncore(d);
    const V noisy_d = vmax(zero, u.delivered_mbps * jitter);
    lane.domain_traffic_mb(d) += noisy_d * dt;
    lane.domain_stretch_time(d) += u.stretch * dt;
    lane.domain_uncore_energy(d) += u.power_w * dt;
    delivered_noisy += noisy_d;
  }
  lane.traffic_mb() += delivered_noisy * dt;
  return finish_tick(lane, p, dt, slice.cpu_util, monitor_extra_w, delivered_noisy);
}
// magus:hot-path-end

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

}  // namespace kern
}  // namespace magus::sim
