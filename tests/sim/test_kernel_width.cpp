// The two-wide tick is the one-wide tick, slot by slot, bit for bit.
//
// kern::node_tick runs at width 1 on a LaneStore lane (double) and at width
// 2 on a LanePair (kern::Pack2). Over seeded random node states, system
// parameters and work slices, one LanePair tick of lanes (a, b) must leave
// exactly the state -- and return exactly the outputs -- that one width-1
// tick of each of their twins leaves. The cases cover both kernel bodies
// (1-4 dies, NUMA skew 0 and 0.3), packages on either side of the firmware
// threshold, a slot whose memory capacity is <= 0, a memo miss on one slot
// only, and slots ticking at different dt and on different jitter draws
// (two lanes on different seeds).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "magus/sim/kernel.hpp"
#include "magus/sim/node.hpp"
#include "magus/sim/system_preset.hpp"
#include "prop.hpp"

namespace ms = magus::sim;
namespace mk = magus::sim::kern;

namespace {

constexpr int kCases = 400;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One tick's per-lane inputs.
struct Inputs {
  double dt = 0.002;
  ms::WorkSlice slice;
  double extra_w = 0.0;
};

/// A slice drawn around the node's bandwidth, utilisations spilling past
/// [0, 1] so the kernel's clamps are exercised.
ms::WorkSlice random_slice(magus::test::Gen& g, const mk::NodeParams& p) {
  const double peak = p.uncore.peak_mem_bw_mbps * static_cast<double>(p.sockets);
  return {g.uniform() * 1.6 * peak, -0.2 + 1.4 * g.uniform(), -0.1 + 1.3 * g.uniform(),
          -0.1 + 1.3 * g.uniform()};
}

/// Inputs for one tick of a lane. Monitor power reaching past the firmware
/// threshold puts the package on either side of it; dt is usually the
/// lane's fixed step, so its governor memos hit, and sometimes not.
Inputs random_inputs(magus::test::Gen& g, const mk::NodeParams& p, const Inputs& prev) {
  Inputs in = prev;
  if (g.int_in(0, 3) == 0) in.dt = 0.0005 + 0.004 * g.uniform();
  if (g.int_in(0, 2) != 0) in.slice = random_slice(g, p);
  in.extra_w = g.int_in(0, 2) == 0 ? 0.0 : 1.2 * p.fw.threshold_w * g.uniform();
  return in;
}

ms::SystemSpec random_system(magus::test::Gen& g) {
  ms::SystemSpec spec = g.int_in(0, 1) == 0 ? ms::intel_a100() : ms::amd_mi250();
  spec.cpu.dies_per_socket = g.int_in(1, 4);
  spec.numa_skew = g.int_in(0, 1) == 0 ? 0.0 : 0.3;
  return spec;
}

void expect_same_output(const ms::BasicTickOutput<mk::Pack2>& pair, int k,
                        const ms::TickOutput& one) {
  EXPECT_EQ(bits(pair.progress_rate[k]), bits(one.progress_rate));
  EXPECT_EQ(bits(pair.delivered_mbps[k]), bits(one.delivered_mbps));
  EXPECT_EQ(bits(pair.pkg_power_w[k]), bits(one.pkg_power_w));
  EXPECT_EQ(bits(pair.dram_power_w[k]), bits(one.dram_power_w));
  EXPECT_EQ(bits(pair.gpu_power_w[k]), bits(one.gpu_power_w));
  EXPECT_EQ(bits(pair.uncore_freq_ghz[k]), bits(one.uncore_freq_ghz));
  EXPECT_EQ(bits(pair.stretch[k]), bits(one.stretch));
}

void expect_same_memo(const mk::Memo& a, const mk::Memo& b) {
  EXPECT_EQ(bits(a.arg), bits(b.arg));
  EXPECT_EQ(bits(a.value), bits(b.value));
}

/// Every piece of tick state the store exposes, lane `a` against lane `b`.
void expect_same_lane(const ms::LaneStore& s, std::size_t a, std::size_t b) {
  const mk::NodeParams& p = s.params(a);
  for (int d = 0; d < p.domains(); ++d) {
    SCOPED_TRACE("domain " + std::to_string(d));
    EXPECT_EQ(bits(s.uncore(a, d).policy_limit_ghz), bits(s.uncore(b, d).policy_limit_ghz));
    EXPECT_EQ(bits(s.uncore(a, d).firmware_cap_ghz), bits(s.uncore(b, d).firmware_cap_ghz));
    EXPECT_EQ(bits(s.uncore(a, d).freq_ghz), bits(s.uncore(b, d).freq_ghz));
    EXPECT_EQ(bits(s.domain_traffic_mb(a, d)), bits(s.domain_traffic_mb(b, d)));
    EXPECT_EQ(bits(s.domain_uncore_energy_j(a, d)), bits(s.domain_uncore_energy_j(b, d)));
    EXPECT_EQ(bits(s.domain_stretch_time_s(a, d)), bits(s.domain_stretch_time_s(b, d)));
  }
  for (int sk = 0; sk < p.sockets; ++sk) {
    SCOPED_TRACE("socket " + std::to_string(sk));
    EXPECT_EQ(bits(s.pkg_energy_j(a, sk)), bits(s.pkg_energy_j(b, sk)));
    EXPECT_EQ(bits(s.dram_energy_j(a, sk)), bits(s.dram_energy_j(b, sk)));
    EXPECT_EQ(bits(s.last_pkg_w(a, sk)), bits(s.last_pkg_w(b, sk)));
    const mk::FirmwareState& fa = s.firmware(a, sk);
    const mk::FirmwareState& fb = s.firmware(b, sk);
    EXPECT_EQ(bits(fa.cap_ghz), bits(fb.cap_ghz));
    EXPECT_EQ(bits(fa.hold_s), bits(fb.hold_s));
    expect_same_memo(fa.on_ladder, fb.on_ladder);
  }
  const mk::CoreState& ca = s.core(a);
  const mk::CoreState& cb = s.core(b);
  EXPECT_EQ(bits(ca.freq_ghz), bits(cb.freq_ghz));
  EXPECT_EQ(bits(ca.cycles), bits(cb.cycles));
  EXPECT_EQ(bits(ca.instructions), bits(cb.instructions));
  expect_same_memo(ca.alpha, cb.alpha);
  const mk::GpuState& ga = s.gpu(a);
  const mk::GpuState& gb = s.gpu(b);
  EXPECT_EQ(bits(ga.clock_ghz), bits(gb.clock_ghz));
  EXPECT_EQ(bits(ga.power_w), bits(gb.power_w));
  EXPECT_EQ(bits(ga.energy_j), bits(gb.energy_j));
  expect_same_memo(ga.alpha, gb.alpha);
  expect_same_memo(ga.boost, gb.boost);
  EXPECT_EQ(bits(s.traffic_mb(a)), bits(s.traffic_mb(b)));
}

}  // namespace

TEST(KernelWidth, PairTickEqualsTwoSingleTicks) {
  magus::test::Gen g(0x5eed'2026);
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const ms::SystemSpec spec = random_system(g);
    // Lanes 0 and 1 tick as a pair; lanes 2 and 3 are their width-1 twins.
    ms::LaneStore store;
    for (int i = 0; i < 4; ++i) store.add_lane(spec);
    const mk::NodeParams& p = store.params(0);

    // Random history: both twins of a lane see the same warm-up ticks, the
    // same programmed limits and, now and then, an uncore knocked below
    // zero (capacity <= 0 on that slot's next tick).
    Inputs in[2];
    for (int k = 0; k < 2; ++k) {
      in[k].slice = random_slice(g, p);
      const int warm = g.int_in(0, 40);
      for (int t = 0; t < warm; ++t) {
        in[k] = random_inputs(g, p, in[k]);
        const double jitter = 1.0 + 0.006 * (g.uniform() - 0.5);
        (void)store.tick(static_cast<std::size_t>(k), in[k].dt, in[k].slice, in[k].extra_w,
                         jitter);
        (void)store.tick(static_cast<std::size_t>(k + 2), in[k].dt, in[k].slice, in[k].extra_w,
                         jitter);
      }
      for (int d = 0; d < p.domains(); ++d) {
        const int roll = g.int_in(0, 5);
        double limit = store.uncore(static_cast<std::size_t>(k), d).policy_limit_ghz;
        double freq = store.uncore(static_cast<std::size_t>(k), d).freq_ghz;
        if (roll == 0) limit = p.ladder.clamp_ghz(0.5 + 2.0 * g.uniform());
        if (roll == 1) freq = -50.0 * g.uniform() - 1.0;
        for (const int lane : {k, k + 2}) {
          store.uncore(static_cast<std::size_t>(lane), d).policy_limit_ghz = limit;
          store.uncore(static_cast<std::size_t>(lane), d).freq_ghz = freq;
        }
      }
    }

    ms::LanePair pair(p);
    store.load(pair, 0, 0);
    store.load(pair, 1, 1);
    const int ticks = g.int_in(1, 6);
    for (int t = 0; t < ticks; ++t) {
      SCOPED_TRACE("tick " + std::to_string(t));
      for (Inputs& lane_in : in) lane_in = random_inputs(g, p, lane_in);
      // A memo miss on one slot only: its dt (or slice) moved, the other's not.
      if (g.int_in(0, 3) == 0) in[1] = {in[0].dt, in[1].slice, in[1].extra_w};
      // Each slot's own draw, as for two lanes on different seeds.
      const double jitter[2] = {1.0 + 0.006 * (g.uniform() - 0.5),
                                1.0 + 0.006 * (g.uniform() - 0.5)};
      const ms::BasicWorkSlice<mk::Pack2> slice{
          {in[0].slice.demand_mbps, in[1].slice.demand_mbps},
          {in[0].slice.mem_bound_frac, in[1].slice.mem_bound_frac},
          {in[0].slice.cpu_util, in[1].slice.cpu_util},
          {in[0].slice.gpu_util, in[1].slice.gpu_util}};
      const ms::BasicTickOutput<mk::Pack2> wide =
          pair.tick(mk::Pack2{in[0].dt, in[1].dt}, slice,
                    mk::Pack2{in[0].extra_w, in[1].extra_w},
                    mk::Pack2{jitter[0], jitter[1]});
      for (int k = 0; k < 2; ++k) {
        SCOPED_TRACE("slot " + std::to_string(k));
        const ms::TickOutput one = store.tick(static_cast<std::size_t>(k + 2), in[k].dt,
                                              in[k].slice, in[k].extra_w, jitter[k]);
        expect_same_output(wide, k, one);
      }
    }
    store.save(pair, 0, 0);
    store.save(pair, 1, 1);
    expect_same_lane(store, 0, 2);
    expect_same_lane(store, 1, 3);
    if (HasFailure()) return;
  }
}
