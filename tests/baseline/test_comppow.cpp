// CompPow comparator: component-level split of a node power cap, solving a
// quadratic uncore power model for the granted share.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "magus/baseline/comppow.hpp"
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
        ctl(engine.mem_counter(), engine.energy_counter(), engine.msr(), ladder, &cap,
            per_domain ? &engine.domains() : nullptr) {}

  ms::SimResult run() {
    ms::PolicyHook hook;
    hook.name = ctl.name();
    hook.period_s = ctl.period_s();
    hook.on_start = [this](magus::common::Seconds t) { ctl.on_start(t); };
    hook.on_sample = [this](magus::common::Seconds t) { ctl.on_sample(t); };
    return engine.run(hook);
  }

  ms::SimEngine engine;
  magus::hw::UncoreFreqLadder ladder;
  mb::CompPowController ctl;
};

/// Plays back a scripted sequence of cumulative MB readings.
class ScriptedCounter final : public magus::hw::IMemThroughputCounter {
 public:
  explicit ScriptedCounter(std::vector<double> script) : script_(std::move(script)) {}
  double total_mb() override {
    return next_ < script_.size() ? script_[next_++] : script_.back();
  }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
};

class ZeroEnergy final : public magus::hw::IEnergyCounter {
 public:
  [[nodiscard]] int socket_count() const override { return 2; }
  double pkg_energy_j(int) override { return 0.0; }
  double dram_energy_j(int) override { return 0.0; }
};

class MemoryMsr final : public magus::hw::IMsrDevice {
 public:
  [[nodiscard]] int socket_count() const override { return 2; }
  std::uint64_t read(int socket, std::uint32_t reg) override { return raw_[{socket, reg}]; }
  void write(int socket, std::uint32_t reg, std::uint64_t value) override {
    raw_[{socket, reg}] = value;
  }

 private:
  std::map<std::pair<int, std::uint32_t>, std::uint64_t> raw_;
};

mc::PowerCapSchedule fixed_cap(double watts) {
  mc::PowerCapSchedule cap;
  cap.fixed_cap_w = watts;
  return cap;
}

}  // namespace

TEST(CompPow, FitSolvesTheQuadraticModel) {
  Rig rig(mw::PhaseProgram(
      "quiet", {mw::patterns::steady("q", 1.0, kQuietMbps, 0.15, 0.1, 0.6)}));
  // Defaults: P(f) = 5 + 2f + 13f^2. Unlimited budget -> ladder max; a
  // budget below P(min) -> ladder min; the fit is monotone in between.
  EXPECT_DOUBLE_EQ(rig.ctl.fit_ghz(1e9), 2.2);
  EXPECT_DOUBLE_EQ(rig.ctl.fit_ghz(0.0), 0.8);
  EXPECT_DOUBLE_EQ(rig.ctl.fit_ghz(10.0), 0.8);  // P(0.8) = 14.9 W does not fit
  const double mid = rig.ctl.fit_ghz(50.0);
  EXPECT_GT(mid, 0.8);
  EXPECT_LT(mid, 2.2);
  EXPECT_LE(5.0 + 2.0 * mid + 13.0 * mid * mid, 50.0);
  EXPECT_GE(rig.ctl.fit_ghz(80.0), mid);
}

TEST(CompPow, InertWithoutCap) {
  Rig rig(mw::PhaseProgram("busy",
                           {mw::patterns::steady("b", 4.0, kBusyMbps, 0.9, 0.6, 0.8)}));
  const auto r = rig.run();
  EXPECT_DOUBLE_EQ(rig.ctl.current_target().value(), 2.2);
  EXPECT_EQ(r.accesses.msr_writes, 0ull);
}

TEST(CompPow, TightCapPinsTheUncoreToTheFloor) {
  // 100 W node cap, idle traffic: the uncore earns the minimum share
  // (10 W -> 5 W per socket), below even P(min).
  Rig rig(mw::PhaseProgram(
              "quiet", {mw::patterns::steady("q", 4.0, kQuietMbps, 0.15, 0.1, 0.6)}),
          fixed_cap(100.0));
  rig.run();
  EXPECT_DOUBLE_EQ(rig.ctl.current_target().value(), 0.8);
}

TEST(CompPow, BusyTrafficEarnsALargerShare) {
  mw::PhaseProgram busy_p("busy",
                          {mw::patterns::steady("b", 4.0, kBusyMbps, 0.9, 0.6, 0.8)});
  mw::PhaseProgram quiet_p(
      "quiet", {mw::patterns::steady("q", 4.0, kQuietMbps, 0.15, 0.1, 0.6)});
  Rig busy(std::move(busy_p), fixed_cap(1'000.0));
  Rig quiet(std::move(quiet_p), fixed_cap(1'000.0));
  busy.run();
  quiet.run();
  // Utilisation slides the uncore's share of the cap between share_min and
  // share_max, and the larger budget buys a higher fitted frequency.
  EXPECT_GT(busy.ctl.last_uncore_budget_w(), quiet.ctl.last_uncore_budget_w());
  EXPECT_GT(busy.ctl.current_target().value(), quiet.ctl.current_target().value());
}

TEST(CompPow, PerDomainBudgetsFollowTheTrafficSplit) {
  // NUMA skew concentrates traffic on each socket's first die; its budget
  // share (and so its fitted frequency) must be >= the quiet sibling's.
  Rig rig(mw::PhaseProgram("busy",
                           {mw::patterns::steady("b", 6.0, kBusyMbps, 0.9, 0.6, 0.8)}),
          fixed_cap(500.0), /*per_domain=*/true);
  rig.run();
  ASSERT_EQ(rig.ctl.domain_count(), 4);
  EXPECT_GE(rig.ctl.domain_target(0).value(), rig.ctl.domain_target(1).value());
  EXPECT_GT(rig.ctl.last_uncore_budget_w(), 0.0);
}

TEST(CompPow, BackwardsOrNanCounterDeliversNothing) {
  // A counter that moves backwards or reads NaN delivered no traffic: the
  // uncore earns exactly the minimum share of the cap, never less (a
  // negative utilisation) and never the maximum (NaN read as saturation).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScriptedCounter counter({0.0, 1'000.0, 500.0, nan});
  ZeroEnergy energy;
  MemoryMsr msr;
  const magus::hw::UncoreFreqLadder ladder(0.8, 2.2);
  const mc::PowerCapSchedule cap = fixed_cap(400.0);
  mb::CompPowController ctl(counter, energy, msr, ladder, &cap);
  const double floor_w = 0.10 * 400.0;  // the uncore's minimum share of the cap

  ctl.on_start(magus::common::Seconds(0.0));
  ctl.on_sample(magus::common::Seconds(0.2));  // 5000 MB/s
  EXPECT_GT(ctl.last_uncore_budget_w(), floor_w);

  ctl.on_sample(magus::common::Seconds(0.4));  // counter moved backwards
  EXPECT_DOUBLE_EQ(ctl.last_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ctl.last_uncore_budget_w(), floor_w);

  ctl.on_sample(magus::common::Seconds(0.6));  // NaN reading
  EXPECT_DOUBLE_EQ(ctl.last_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ctl.last_uncore_budget_w(), floor_w);
}
