// BatchEngine lanes that share an EngineConfig::seed tick in lockstep on one
// noise draw per tick, consecutive lanes on equal node parameters paired
// through the two-wide kernel. Whatever each lane does -- outlive its
// partner, stop before it, throw at on_start or at a sample boundary (a
// std::exception or anything else), hit its safety cap, tick at its own
// tick_s, or sit in a group of mixed systems and die layouts -- its result
// must equal the same lane run alone, field for field. A failed lane keeps
// its exception's type, and a lane with engine telemetry counts its run
// like SimEngine::run; both are checked through exp::run_repeated, whose
// repetitions are arm batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"
#include "magus/exp/repeat.hpp"
#include "magus/sim/batch_engine.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/patterns.hpp"
#include "sim_result_fields.hpp"

namespace ms = magus::sim;
namespace mw = magus::wl;
namespace mc = magus::common;
namespace me = magus::exp;
namespace mt = magus::telemetry;

namespace {

/// How a lane's policy behaves.
enum class Hook {
  kDefault,         ///< no callbacks
  kThrottle,        ///< every 0.2 s, drops the uncore cap (slows the lane)
  kThrowAtStart,    ///< on_start throws
  kThrowMidRun,     ///< on_sample throws once past t = 1 s
  kThrowIntMidRun,  ///< on_sample throws an int once past t = 1 s
};

struct LaneSpec {
  std::uint64_t seed = 7;
  double seconds = 2.0;  ///< nominal program length
  Hook hook = Hook::kDefault;
  const char* system = "intel_a100";
  int dies = 1;
  double numa_skew = 0.0;
  double tick_s = 0.002;
  double max_sim_s = 0.0;  ///< 0: the engine's default cap
};

mw::PhaseProgram program_of(double seconds) {
  return mw::PhaseProgram(
      "test", {mw::patterns::steady("p", seconds, 60'000.0, 0.6, 0.3, 0.5)});
}

ms::EngineConfig config_of(const LaneSpec& spec) {
  ms::EngineConfig cfg;
  cfg.seed = spec.seed;
  cfg.record_traces = false;
  cfg.tick_s = spec.tick_s;
  cfg.max_sim_s = spec.max_sim_s;
  return cfg;
}

ms::SystemSpec system_of(const LaneSpec& spec) {
  ms::SystemSpec system = ms::system_by_name(spec.system);
  system.cpu.dies_per_socket = spec.dies;
  system.numa_skew = spec.numa_skew;
  return system;
}

ms::PolicyHook hook_of(Hook kind, ms::LaneBackends& hw) {
  ms::PolicyHook hook;
  switch (kind) {
    case Hook::kDefault:
      break;
    case Hook::kThrottle:
      hook.name = "throttle";
      hook.on_sample = [&hw](mc::Seconds) {
        const double f = hw.domains.current_ghz(0).value();
        hw.domains.write_max_ghz(0, mc::Ghz(std::max(0.8, f - 0.1)));
      };
      break;
    case Hook::kThrowAtStart:
      hook.name = "throw_at_start";
      hook.on_start = [](mc::Seconds) { throw std::runtime_error("on_start failed"); };
      break;
    case Hook::kThrowMidRun:
      hook.name = "throw_mid_run";
      hook.on_sample = [](mc::Seconds now) {
        if (now.value() > 1.0) throw std::runtime_error("on_sample failed");
      };
      break;
    case Hook::kThrowIntMidRun:
      hook.name = "throw_int_mid_run";
      hook.on_sample = [](mc::Seconds now) {
        if (now.value() > 1.0) throw 42;
      };
      break;
  }
  return hook;
}

std::size_t add(ms::BatchEngine& engine, const LaneSpec& spec) {
  const std::size_t lane =
      engine.add_lane(system_of(spec), program_of(spec.seconds), config_of(spec));
  engine.set_hook(lane, hook_of(spec.hook, engine.backends(lane)));
  return lane;
}

/// Runs `specs` as one batch and each spec alone, and compares lane by lane.
void expect_each_lane_matches_alone(const std::vector<LaneSpec>& specs) {
  ms::BatchEngine batch;
  for (const LaneSpec& spec : specs) add(batch, spec);
  batch.run_all();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    ms::BatchEngine alone;
    add(alone, specs[i]);
    alone.run_all();
    ASSERT_EQ(batch.lane_failed(i), alone.lane_failed(0));
    if (alone.lane_failed(0)) {
      EXPECT_EQ(batch.lane_error(i), alone.lane_error(0));
      continue;
    }
    EXPECT_EQ(magus::test::result_fields(batch.result(i)),
              magus::test::result_fields(alone.result(0)));
  }
}

}  // namespace

TEST(BatchEngineSharedSeed, SecondLaneOutlivesFirst) {
  // The pair's second lane runs 3x the first's ticks: once the first
  // finishes, the second goes on alone at width 1 on the same draws.
  expect_each_lane_matches_alone({{7, 1.5, Hook::kThrottle}, {7, 4.5, Hook::kDefault}});
}

TEST(BatchEngineSharedSeed, FirstLaneOutlivesSecond) {
  // Over 6000 ticks of the first lane, most of them alone.
  expect_each_lane_matches_alone({{7, 12.0, Hook::kThrottle}, {7, 1.0, Hook::kDefault}});
}

TEST(BatchEngineSharedSeed, FirstLaneThrowsAtStart) {
  expect_each_lane_matches_alone({{7, 2.0, Hook::kThrowAtStart}, {7, 2.0, Hook::kThrottle}});
}

TEST(BatchEngineSharedSeed, SecondLaneThrowsAtStart) {
  expect_each_lane_matches_alone({{7, 2.0, Hook::kThrottle}, {7, 2.0, Hook::kThrowAtStart}});
}

TEST(BatchEngineSharedSeed, FirstLaneThrowsAtMidRunSample) {
  expect_each_lane_matches_alone({{7, 3.0, Hook::kThrowMidRun}, {7, 3.0, Hook::kDefault}});
}

TEST(BatchEngineSharedSeed, SecondLaneThrowsAtMidRunSample) {
  expect_each_lane_matches_alone({{7, 3.0, Hook::kThrottle}, {7, 3.0, Hook::kThrowMidRun}});
}

TEST(BatchEngineSharedSeed, ThreeNonAdjacentLanesShareOneSeed) {
  // Lanes 0, 2 and 4 share seed 7 with other seeds in between; lane 3 is
  // seed 9's only lane.
  expect_each_lane_matches_alone({{7, 2.0, Hook::kThrottle},
                                  {8, 2.0, Hook::kDefault},
                                  {7, 3.0, Hook::kDefault},
                                  {9, 1.0, Hook::kThrottle},
                                  {7, 2.0, Hook::kThrowMidRun},
                                  {8, 2.5, Hook::kThrottle}});
}

TEST(BatchEngineSharedSeed, ThreeLaneGroup) {
  // A pair plus a leftover lane at width 1, as in one Fig. 4 repetition.
  expect_each_lane_matches_alone(
      {{7, 2.0, Hook::kDefault}, {7, 2.5, Hook::kThrottle}, {7, 1.5, Hook::kThrottle}});
}

TEST(BatchEngineSharedSeed, FiveLaneGroup) {
  // Two pairs and a leftover; the second pair loses a lane mid-run.
  expect_each_lane_matches_alone({{7, 2.0, Hook::kThrottle},
                                  {7, 3.0, Hook::kDefault},
                                  {7, 2.5, Hook::kThrowMidRun},
                                  {7, 4.0, Hook::kThrottle},
                                  {7, 1.0, Hook::kDefault}});
}

TEST(BatchEngineSharedSeed, MixedSystemsAndDieLayouts) {
  // Only consecutive lanes on equal node parameters pair: here lanes 2-3
  // and 4-5; the rest tick at width 1, all on seed 7's draws.
  LaneSpec a100_1die{7, 2.0, Hook::kThrottle};
  LaneSpec mi250_1die{7, 2.0, Hook::kDefault, "amd_mi250"};
  LaneSpec a100_2die{7, 2.5, Hook::kThrottle, "intel_a100", 2};
  LaneSpec mi250_2die_skew{7, 1.5, Hook::kThrottle, "amd_mi250", 2, 0.3};
  LaneSpec a100_2die_default = a100_2die;
  a100_2die_default.hook = Hook::kDefault;
  LaneSpec mi250_2die_skew_default = mi250_2die_skew;
  mi250_2die_skew_default.hook = Hook::kDefault;
  expect_each_lane_matches_alone({a100_1die, mi250_1die, a100_2die, a100_2die_default,
                                  mi250_2die_skew, mi250_2die_skew_default, a100_1die});
}

TEST(BatchEngineSharedSeed, LaneHitsItsSafetyCap) {
  LaneSpec capped{7, 4.0, Hook::kThrottle};
  capped.max_sim_s = 1.3;
  expect_each_lane_matches_alone({capped, {7, 4.0, Hook::kDefault}});
}

TEST(BatchEngineSharedSeed, LanesTickAtDifferentSteps) {
  // One pair, slots at different dt: each slot's governor memo holds its own.
  LaneSpec fine{7, 2.0, Hook::kThrottle};
  fine.tick_s = 0.001;
  expect_each_lane_matches_alone({fine, {7, 2.0, Hook::kDefault}});
}

namespace {

/// A policy failure with a type of its own.
struct SampleFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace

TEST(BatchEngineFailure, LaneExceptionKeepsItsType) {
  ms::BatchEngine batch;
  const std::size_t failing = add(batch, {7, 3.0, Hook::kDefault});
  ms::PolicyHook hook;
  hook.name = "typed_throw";
  hook.on_sample = [](mc::Seconds now) {
    if (now.value() > 1.0) throw SampleFault("sample fault");
  };
  batch.set_hook(failing, hook);
  const std::size_t sibling = add(batch, {7, 3.0, Hook::kDefault});
  batch.run_all();

  ASSERT_TRUE(batch.lane_failed(failing));
  EXPECT_EQ(batch.lane_error(failing), "sample fault");
  EXPECT_THROW(std::rethrow_exception(batch.lane_exception(failing)), SampleFault);
  EXPECT_FALSE(batch.lane_failed(sibling));
  EXPECT_EQ(batch.lane_exception(sibling), nullptr);
}

TEST(BatchEngineFailure, NonStandardExceptionFailsOnlyItsLane) {
  // A hook that throws an int fails its lane with a fixed message and the
  // int intact; its pair partner and the lanes after it still run.
  const std::vector<LaneSpec> specs{{7, 3.0, Hook::kThrowIntMidRun},
                                    {7, 3.0, Hook::kThrottle},
                                    {8, 2.0, Hook::kDefault}};
  expect_each_lane_matches_alone(specs);

  ms::BatchEngine batch;
  for (const LaneSpec& spec : specs) add(batch, spec);
  batch.run_all();
  ASSERT_TRUE(batch.lane_failed(0));
  EXPECT_EQ(batch.lane_error(0), ms::BatchEngine::kNonStandardError);
  EXPECT_THROW(std::rethrow_exception(batch.lane_exception(0)), int);
  EXPECT_FALSE(batch.lane_failed(1));
  EXPECT_FALSE(batch.lane_failed(2));
  EXPECT_TRUE(batch.result(2).completed);
}

TEST(BatchEngineFailure, RunRepeatedRethrowsTheArmsExceptionType) {
  // UPS does not ride the degradation ladder: an injected MSR -EIO on its
  // uncore-limit register surfaces as common::DeviceError. At this rate and
  // seed the first failed access is read op 29 of that register, in the
  // on_sample call at t = 6.684 s of both repetitions: a sample boundary.
  me::RunOptions faulty;
  faulty.fault.rate = 0.05;
  faulty.fault.seed = 7;
  me::RepeatSpec spec;
  spec.repetitions = 2;
  spec.seed = 5;
  const ms::SystemSpec system = ms::intel_a100();
  const mw::PhaseProgram program = mw::make_workload("bfs");
  EXPECT_THROW((void)me::run_repeated(system, program, {{"default", {}}, {"ups", faulty}}, spec),
               mc::DeviceError);
}

TEST(BatchEngineTelemetry, RunRepeatedCountsEveryRun) {
  mt::MetricsRegistry reg;
  me::RunOptions opts;
  opts.metrics = &reg;
  const std::vector<me::Arm> arms{{"default", opts}, {"magus", opts}, {"ups", opts}};
  me::RepeatSpec spec;
  spec.repetitions = 3;
  spec.seed = 11;
  const auto runs =
      me::run_repetitions(ms::intel_a100(), mw::make_workload("bfs"), arms, spec);

  unsigned long long ticks = 0;
  unsigned long long invocations = 0;
  for (const auto& arm_runs : runs) {
    for (const ms::SimResult& r : arm_runs) {
      ticks += r.ticks;
      invocations += r.invocations;
    }
  }
  EXPECT_EQ(reg.counter("magus_sim_runs_total")->value(), arms.size() * 3u);
  EXPECT_EQ(reg.counter("magus_sim_steps_total")->value(), ticks);
  EXPECT_EQ(reg.counter("magus_sim_policy_invocations_total")->value(), invocations);
  EXPECT_EQ(reg.counter("magus_exp_reps_completed_total")->value(), arms.size() * 3u);
  EXPECT_GT(reg.gauge("magus_sim_time_seconds")->value(), 0.0);
}
