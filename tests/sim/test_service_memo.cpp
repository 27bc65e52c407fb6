// The memory-service memo moves no bit.
//
// kern::node_tick computes its memory half (capacity, service, the stretch
// divisions, uncore and DRAM power) only when the memo's key moved: the
// slice's demand, memory-bound fraction and GPU utilisation, and every
// domain's uncore frequency, compared bit for bit. Over seeded random
// systems and input streams, a lane ticked with its memo must leave exactly
// the state -- memo included -- and return exactly the outputs of its twin
// whose memo keys are set to NaN before every tick, so that every tick
// misses. The streams cover widths 1 and 2, 1-4 dies, NUMA skew 0 and 0.3,
// slices that repeat and that change, +-0.0 in each keyed slice field,
// policy-limit writes and firmware cap steps mid-run, a pair whose slots
// hit and miss apart, and pair slots handed to the store and back (the memo
// stays behind on either side). SteadyTickReusesTheMemo checks that a
// steady tick really reuses the memo.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "magus/sim/kernel.hpp"
#include "magus/sim/node.hpp"
#include "magus/sim/system_preset.hpp"
#include "prop.hpp"

namespace ms = magus::sim;
namespace mk = magus::sim::kern;

namespace {

constexpr int kCases = 120;
constexpr int kTicks = 120;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One tick's per-lane inputs.
struct Inputs {
  double dt = 0.002;
  ms::WorkSlice slice;
  double extra_w = 0.0;
};

double signed_zero(magus::test::Gen& g) { return g.int_in(0, 1) == 0 ? -0.0 : 0.0; }

/// A slice drawn around the node's bandwidth, utilisations spilling past
/// [0, 1] so the kernel's clamps are exercised, each keyed field now and
/// then a signed zero.
ms::WorkSlice random_slice(magus::test::Gen& g, const mk::NodeParams& p) {
  const double peak = p.uncore.peak_mem_bw_mbps * static_cast<double>(p.sockets);
  ms::WorkSlice s{g.uniform() * 1.6 * peak, -0.2 + 1.4 * g.uniform(), -0.1 + 1.3 * g.uniform(),
                  -0.1 + 1.3 * g.uniform()};
  if (g.int_in(0, 4) == 0) s.demand_mbps = signed_zero(g);
  if (g.int_in(0, 4) == 0) s.mem_bound_frac = signed_zero(g);
  if (g.int_in(0, 4) == 0) s.gpu_util = signed_zero(g);
  return s;
}

/// The next tick's inputs: mostly the same slice (a steady phase, whose
/// ticks hit once the uncore settles), sometimes a new one, a keyed field
/// set to a signed zero (often the sign flip of the one before), or a new
/// cpu_util (not a key). dt moves now and then; monitor power reaching past
/// the firmware threshold makes the firmware step the cap.
Inputs next_inputs(magus::test::Gen& g, const mk::NodeParams& p, const Inputs& prev) {
  Inputs in = prev;
  switch (g.int_in(0, 11)) {
    case 0: in.slice = random_slice(g, p); break;
    case 1: in.slice.demand_mbps = signed_zero(g); break;
    case 2: in.slice.mem_bound_frac = signed_zero(g); break;
    case 3: in.slice.gpu_util = signed_zero(g); break;
    case 4: in.slice.cpu_util = g.uniform(); break;
    default: break;
  }
  if (g.int_in(0, 7) == 0) in.dt = 0.0005 + 0.004 * g.uniform();
  if (g.int_in(0, 9) == 0) {
    in.extra_w = g.int_in(0, 1) == 0 ? 0.0 : 1.2 * p.fw.threshold_w * g.uniform();
  }
  return in;
}

ms::SystemSpec random_system(magus::test::Gen& g) {
  ms::SystemSpec spec = g.int_in(0, 1) == 0 ? ms::intel_a100() : ms::amd_mi250();
  spec.cpu.dies_per_socket = g.int_in(1, 4);
  spec.numa_skew = g.int_in(0, 1) == 0 ? 0.0 : 0.3;
  return spec;
}

double jitter_draw(magus::test::Gen& g) { return 1.0 + 0.006 * (g.uniform() - 0.5); }

/// A store lane seen through the kernel's Lane accessor names (read-only).
struct StoreLane {
  ms::LaneStore& s;
  std::size_t lane;

  const mk::UncoreState& uncore(int d) const { return s.uncore(lane, d); }
  const mk::FirmwareState& firmware(int k) const { return s.firmware(lane, k); }
  const mk::CoreState& core() const { return s.core(lane); }
  const mk::GpuState& gpu() const { return s.gpu(lane); }
  const mk::ServiceMemo& service() const { return s.service(lane); }
  const mk::SocketService& socket_service(int k) const { return s.socket_service(lane, k); }
  double pkg_energy(int k) const { return s.pkg_energy_j(lane, k); }
  double dram_energy(int k) const { return s.dram_energy_j(lane, k); }
  double last_pkg_w(int k) const { return s.last_pkg_w(lane, k); }
  double traffic_mb() const { return s.traffic_mb(lane); }
  double domain_traffic_mb(int d) const { return s.domain_traffic_mb(lane, d); }
  double domain_uncore_energy(int d) const { return s.domain_uncore_energy_j(lane, d); }
  double domain_stretch_time(int d) const { return s.domain_stretch_time_s(lane, d); }
};

/// One state field's bits in one slot.
struct Field {
  const char* name;
  int index;
  std::uint64_t bits;
};

/// Every piece of tick state of slot `k` of `lane`, memo included.
template <class Lane>
std::vector<Field> snapshot(Lane& lane, const mk::NodeParams& p, int k) {
  std::vector<Field> out;
  const auto add = [&](const char* name, int index, const auto& v) {
    out.push_back({name, index, bits(mk::slot(v, k))});
  };
  const auto add_memo = [&](const char* name, int index, const auto& m) {
    add(name, index, m.arg);
    add(name, index, m.value);
  };
  for (int d = 0; d < p.domains(); ++d) {
    const auto& u = lane.uncore(d);
    add("uncore.policy_limit_ghz", d, u.policy_limit_ghz);
    add("uncore.firmware_cap_ghz", d, u.firmware_cap_ghz);
    add("uncore.freq_ghz", d, u.freq_ghz);
    add("uncore.served_ghz", d, u.served_ghz);
    add("uncore.delivered_mbps", d, u.delivered_mbps);
    add("uncore.stretch", d, u.stretch);
    add("uncore.power_w", d, u.power_w);
    add("domain_traffic_mb", d, lane.domain_traffic_mb(d));
    add("domain_uncore_energy", d, lane.domain_uncore_energy(d));
    add("domain_stretch_time", d, lane.domain_stretch_time(d));
  }
  for (int s = 0; s < p.sockets; ++s) {
    const auto& fw = lane.firmware(s);
    add("firmware.cap_ghz", s, fw.cap_ghz);
    add("firmware.hold_s", s, fw.hold_s);
    add_memo("firmware.on_ladder", s, fw.on_ladder);
    add("socket_service.uncore_w", s, lane.socket_service(s).uncore_w);
    add("socket_service.dram_w", s, lane.socket_service(s).dram_w);
    add("pkg_energy", s, lane.pkg_energy(s));
    add("dram_energy", s, lane.dram_energy(s));
    add("last_pkg_w", s, lane.last_pkg_w(s));
  }
  const auto& core = lane.core();
  add("core.freq_ghz", 0, core.freq_ghz);
  add("core.cycles", 0, core.cycles);
  add("core.instructions", 0, core.instructions);
  add_memo("core.alpha", 0, core.alpha);
  const auto& gpu = lane.gpu();
  add("gpu.clock_ghz", 0, gpu.clock_ghz);
  add("gpu.power_w", 0, gpu.power_w);
  add("gpu.energy_j", 0, gpu.energy_j);
  add_memo("gpu.alpha", 0, gpu.alpha);
  add_memo("gpu.boost", 0, gpu.boost);
  const auto& m = lane.service();
  add("service.demand_mbps", 0, m.demand_mbps);
  add("service.mem_bound_frac", 0, m.mem_bound_frac);
  add("service.gpu_util", 0, m.gpu_util);
  add("service.delivered_mbps", 0, m.delivered_mbps);
  add("service.stretch", 0, m.stretch);
  add("service.ipc_eff", 0, m.ipc_eff);
  add("service.gpu_util_eff", 0, m.gpu_util_eff);
  add("service.progress_rate", 0, m.progress_rate);
  add("service.dram_total_w", 0, m.dram_total_w);
  add("traffic_mb", 0, lane.traffic_mb());
  return out;
}

void expect_same(const std::vector<Field>& memo, const std::vector<Field>& fresh) {
  ASSERT_EQ(memo.size(), fresh.size());
  for (std::size_t i = 0; i < memo.size(); ++i) {
    EXPECT_EQ(memo[i].bits, fresh[i].bits) << memo[i].name << " [" << memo[i].index << "]";
  }
}

template <class V>
void expect_same_output(const ms::BasicTickOutput<V>& memo,
                        const ms::BasicTickOutput<V>& fresh, int k) {
  EXPECT_EQ(bits(mk::slot(memo.progress_rate, k)), bits(mk::slot(fresh.progress_rate, k)));
  EXPECT_EQ(bits(mk::slot(memo.delivered_mbps, k)), bits(mk::slot(fresh.delivered_mbps, k)));
  EXPECT_EQ(bits(mk::slot(memo.pkg_power_w, k)), bits(mk::slot(fresh.pkg_power_w, k)));
  EXPECT_EQ(bits(mk::slot(memo.dram_power_w, k)), bits(mk::slot(fresh.dram_power_w, k)));
  EXPECT_EQ(bits(mk::slot(memo.gpu_power_w, k)), bits(mk::slot(fresh.gpu_power_w, k)));
  EXPECT_EQ(bits(mk::slot(memo.uncore_freq_ghz, k)), bits(mk::slot(fresh.uncore_freq_ghz, k)));
  EXPECT_EQ(bits(mk::slot(memo.stretch, k)), bits(mk::slot(fresh.stretch, k)));
}

/// Sets every memo key of `lane` to NaN, so its next tick misses.
template <class Memo, class Uncore>
void forget(Memo& service, int domains, Uncore uncore) {
  service.demand_mbps = mk::splat<decltype(service.demand_mbps)>(kNaN);
  service.mem_bound_frac = mk::splat<decltype(service.mem_bound_frac)>(kNaN);
  service.gpu_util = mk::splat<decltype(service.gpu_util)>(kNaN);
  for (int d = 0; d < domains; ++d) {
    uncore(d).served_ghz = mk::splat<decltype(service.demand_mbps)>(kNaN);
  }
}

void forget(ms::LaneStore& store, std::size_t lane) {
  forget(store.service(lane), store.params(lane).domains(),
         [&](int d) -> mk::UncoreState& { return store.uncore(lane, d); });
}

void forget(ms::LanePair& pair, const mk::NodeParams& p) {
  forget(pair.service(), p.domains(),
         [&](int d) -> mk::BasicUncoreState<mk::Pack2>& { return pair.uncore(d); });
}

/// A random policy limit write on a random domain of store lanes `lanes`,
/// now and then (the uncore then slews, and the memo misses until it
/// settles).
void maybe_program_limit(magus::test::Gen& g, ms::LaneStore& store,
                         std::initializer_list<std::size_t> lanes) {
  if (g.int_in(0, 24) != 0) return;
  const mk::NodeParams& p = store.params(*lanes.begin());
  const int d = g.int_in(0, p.domains() - 1);
  const double ghz = 0.5 + 2.0 * g.uniform();
  for (const std::size_t lane : lanes) {
    mk::uncore_set_policy_limit(store.uncore(lane, d), p.ladder, ghz);
  }
}

/// The same, on slot `k` of LanePairs `pairs`.
void maybe_program_limit(magus::test::Gen& g, const mk::NodeParams& p, int k,
                         std::initializer_list<ms::LanePair*> pairs) {
  if (g.int_in(0, 24) != 0) return;
  const int d = g.int_in(0, p.domains() - 1);
  const double ghz = p.ladder.clamp_ghz(0.5 + 2.0 * g.uniform());
  for (ms::LanePair* pair : pairs) mk::set_slot(pair->uncore(d).policy_limit_ghz, k, ghz);
}

ms::BasicWorkSlice<mk::Pack2> pack(const Inputs in[2]) {
  return {mk::Pack2{in[0].slice.demand_mbps, in[1].slice.demand_mbps},
          mk::Pack2{in[0].slice.mem_bound_frac, in[1].slice.mem_bound_frac},
          mk::Pack2{in[0].slice.cpu_util, in[1].slice.cpu_util},
          mk::Pack2{in[0].slice.gpu_util, in[1].slice.gpu_util}};
}

}  // namespace

TEST(ServiceMemo, WidthOneTicksAsIfEveryTickMissed) {
  magus::test::Gen g(0x5e41'ce01);
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    // Lane 0 ticks with its memo, lane 1 with its keys forgotten each tick.
    ms::LaneStore store;
    const ms::SystemSpec spec = random_system(g);
    store.add_lane(spec);
    store.add_lane(spec);
    const mk::NodeParams& p = store.params(0);
    Inputs in;
    in.slice = random_slice(g, p);
    for (int t = 0; t < kTicks; ++t) {
      SCOPED_TRACE("tick " + std::to_string(t));
      in = next_inputs(g, p, in);
      maybe_program_limit(g, store, {0, 1});
      const double jitter = jitter_draw(g);
      forget(store, 1);
      const ms::TickOutput memo = store.tick(0, in.dt, in.slice, in.extra_w, jitter);
      const ms::TickOutput fresh = store.tick(1, in.dt, in.slice, in.extra_w, jitter);
      expect_same_output(memo, fresh, 0);
      StoreLane a{store, 0};
      StoreLane b{store, 1};
      expect_same(snapshot(a, p, 0), snapshot(b, p, 0));
      if (HasFailure()) return;
    }
  }
}

TEST(ServiceMemo, WidthTwoTicksAsIfEveryTickMissed) {
  magus::test::Gen g(0x5e41'ce02);
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    // Lanes 0 and 1 tick in the memo pair, lanes 2 and 3 in the forgetful
    // one; a slot handed to the store ticks there at width 1.
    ms::LaneStore store;
    const ms::SystemSpec spec = random_system(g);
    for (int i = 0; i < 4; ++i) store.add_lane(spec);
    const mk::NodeParams& p = store.params(0);
    ms::LanePair memo(p);
    ms::LanePair fresh(p);
    for (int k = 0; k < 2; ++k) {
      store.load(memo, k, static_cast<std::size_t>(k));
      store.load(fresh, k, static_cast<std::size_t>(k + 2));
    }
    Inputs in[2];
    in[0].slice = random_slice(g, p);
    in[1].slice = g.int_in(0, 1) == 0 ? in[0].slice : random_slice(g, p);
    for (int t = 0; t < kTicks; ++t) {
      SCOPED_TRACE("tick " + std::to_string(t));
      // The slots' inputs move apart, so one slot can miss while the other
      // would hit.
      for (Inputs& lane_in : in) lane_in = next_inputs(g, p, lane_in);
      const double jitter[2] = {jitter_draw(g), jitter_draw(g)};

      if (g.int_in(0, 19) == 0) {
        // A sample boundary: both slots go to the store, tick there at width
        // 1 (on the store's own, older memo) with limits programmed, and
        // come back to the pair (to its older memo).
        for (int k = 0; k < 2; ++k) {
          const auto mine = static_cast<std::size_t>(k);
          const auto twin = static_cast<std::size_t>(k + 2);
          store.save(memo, k, mine);
          store.save(fresh, k, twin);
          maybe_program_limit(g, store, {mine, twin});
          forget(store, twin);
          const Inputs& i = in[k];
          const ms::TickOutput a = store.tick(mine, i.dt, i.slice, i.extra_w, jitter[k]);
          const ms::TickOutput b = store.tick(twin, i.dt, i.slice, i.extra_w, jitter[k]);
          expect_same_output(a, b, 0);
          store.load(memo, k, mine);
          store.load(fresh, k, twin);
        }
        continue;
      }

      for (int k = 0; k < 2; ++k) maybe_program_limit(g, p, k, {&memo, &fresh});
      forget(fresh, p);
      const mk::Pack2 dt{in[0].dt, in[1].dt};
      const mk::Pack2 extra_w{in[0].extra_w, in[1].extra_w};
      const mk::Pack2 jit{jitter[0], jitter[1]};
      const ms::BasicTickOutput<mk::Pack2> a = memo.tick(dt, pack(in), extra_w, jit);
      const ms::BasicTickOutput<mk::Pack2> b = fresh.tick(dt, pack(in), extra_w, jit);
      for (int k = 0; k < 2; ++k) {
        SCOPED_TRACE("slot " + std::to_string(k));
        expect_same_output(a, b, k);
        expect_same(snapshot(memo, p, k), snapshot(fresh, p, k));
      }
      if (HasFailure()) return;
    }
  }
}

namespace {

/// Ticks a lane on a steady slice until its memo holds, then overwrites
/// stored values and ticks once more with every unkeyed input moved (dt,
/// jitter, monitor power, cpu_util): the output must carry the overwritten
/// values. A memo keyed on a per-tick value would recompute them instead.
void check_steady_reuse(const ms::SystemSpec& spec) {
  ms::LaneStore store;
  store.add_lane(spec);
  const mk::NodeParams& p = store.params(0);
  const ms::WorkSlice slice{0.5 * p.uncore.peak_mem_bw_mbps, 0.6, 0.4, 0.7};
  for (int t = 0; t < 50; ++t) {
    (void)store.tick(0, 0.002, slice, 0.0, 1.0 + 0.001 * static_cast<double>(t % 3));
  }
  store.service(0).progress_rate = 0.125;
  store.service(0).dram_total_w = 12345.0;
  store.service(0).stretch = 8.0;
  ms::WorkSlice moved = slice;
  moved.cpu_util = 0.45;
  const ms::TickOutput out = store.tick(0, 0.0021, moved, 1.5, 0.9995);
  EXPECT_EQ(out.progress_rate, 0.125);
  EXPECT_EQ(out.dram_power_w, 12345.0);
  EXPECT_EQ(out.stretch, 8.0);

  // The same through the two-wide kernel.
  ms::LaneStore pair_store;
  pair_store.add_lane(spec);
  pair_store.add_lane(spec);
  ms::LanePair pair(p);
  pair_store.load(pair, 0, 0);
  pair_store.load(pair, 1, 1);
  const ms::BasicWorkSlice<mk::Pack2> wide{mk::splat<mk::Pack2>(slice.demand_mbps),
                                           mk::splat<mk::Pack2>(slice.mem_bound_frac),
                                           mk::splat<mk::Pack2>(slice.cpu_util),
                                           mk::splat<mk::Pack2>(slice.gpu_util)};
  for (int t = 0; t < 50; ++t) {
    (void)pair.tick(mk::splat<mk::Pack2>(0.002), wide, mk::Pack2{},
                    mk::Pack2{1.0, 1.0 + 0.001 * static_cast<double>(t % 3)});
  }
  pair.service().progress_rate = mk::Pack2{0.125, 0.25};
  ms::BasicWorkSlice<mk::Pack2> wide_moved = wide;
  wide_moved.cpu_util = mk::Pack2{0.45, 0.35};
  const ms::BasicTickOutput<mk::Pack2> out2 =
      pair.tick(mk::Pack2{0.0021, 0.0019}, wide_moved, mk::Pack2{1.5, 0.5},
                mk::Pack2{0.9995, 1.0005});
  EXPECT_EQ(out2.progress_rate[0], 0.125);
  EXPECT_EQ(out2.progress_rate[1], 0.25);
}

}  // namespace

TEST(ServiceMemo, SteadyTickReusesTheMemo) {
  ms::SystemSpec one_die = ms::intel_a100();
  {
    SCOPED_TRACE("single-domain body");
    check_steady_reuse(one_die);
  }
  ms::SystemSpec two_die = one_die;
  two_die.cpu.dies_per_socket = 2;
  two_die.numa_skew = 0.3;
  {
    SCOPED_TRACE("per-domain body");
    check_steady_reuse(two_die);
  }
}
