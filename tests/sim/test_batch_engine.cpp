// BatchEngine lanes that share an EngineConfig::seed tick in lockstep on one
// noise draw per tick, consecutive lanes on equal node parameters paired
// through the two-wide kernel; two seed groups that each leave one lane out
// sweep as one cohort, those two lanes paired across seeds. Whatever each
// lane does -- outlive its partner, stop before it, throw at on_start or at
// a sample boundary (a std::exception or anything else), hit its safety
// cap, tick at its own tick_s, sit in a group of mixed systems and die
// layouts, or pair with a lane on another seed -- its result must equal the
// same lane run alone, field for field. The pairing counters show which
// lanes paired. A failed lane keeps its exception's type, and a lane with
// engine telemetry counts its run like SimEngine::run; both are checked
// through exp::run_repeated, whose repetitions are arm batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"
#include "magus/common/rng.hpp"
#include "magus/exp/batch.hpp"
#include "magus/exp/repeat.hpp"
#include "magus/sim/batch_engine.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"
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
      // Steps its own target down 0.1 GHz a sample from 2.2 GHz to 0.8 GHz.
      hook.on_sample = [&hw, target = 2.2](mc::Seconds) mutable {
        target = std::max(0.8, target - 0.1);
        hw.domains.write_max_ghz(0, mc::Ghz(target));
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

/// Runs `specs` as `batch` and each spec alone, and compares lane by lane.
void expect_each_lane_matches_alone(ms::BatchEngine& batch,
                                    const std::vector<LaneSpec>& specs) {
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

void expect_each_lane_matches_alone(const std::vector<LaneSpec>& specs) {
  ms::BatchEngine batch;
  expect_each_lane_matches_alone(batch, specs);
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

// Seed groups that each leave one lane out of their pairs sweep as one
// cohort, the two lanes out paired across seeds, slot k on its own seed's
// draw. Every lane must still equal the lane run alone.

TEST(BatchEngineCrossSeed, LeftoversOfTwoThreeLaneGroupsPair) {
  // Pairs (0, 1), (3, 4) and, across seeds 7 and 8, (2, 5): no lane ticks at
  // width 1 before the first one finishes.
  ms::BatchEngine batch;
  expect_each_lane_matches_alone(batch, {{7, 2.0, Hook::kDefault},
                                         {7, 2.5, Hook::kThrottle},
                                         {7, 1.5, Hook::kThrottle},
                                         {8, 3.0, Hook::kThrottle},
                                         {8, 2.0, Hook::kDefault},
                                         {8, 2.5, Hook::kDefault}});
  unsigned long long first_end = batch.result(0).ticks;
  for (std::size_t i = 1; i < batch.lane_count(); ++i) {
    first_end = std::min(first_end, batch.result(i).ticks);
  }
  EXPECT_GE(batch.pair_lane_ticks(), 6 * first_end);
  EXPECT_EQ(batch.pair_lane_ticks() + batch.single_lane_ticks(), batch.total_ticks());
}

TEST(BatchEngineCrossSeed, LeftoversOnUnequalParamsStaySingle) {
  // Seed 7 leaves an intel_a100 lane out, seed 8 an amd_mi250 one: no
  // cohort forms, and both tick at width 1 for their whole runs (each
  // group's pair is two identical lanes, which end on the same tick).
  ms::BatchEngine batch;
  const LaneSpec mi250{8, 2.0, Hook::kThrottle, "amd_mi250"};
  expect_each_lane_matches_alone(batch, {{7, 2.0, Hook::kDefault},
                                         {7, 2.0, Hook::kDefault},
                                         {7, 1.5, Hook::kThrottle},
                                         mi250,
                                         mi250,
                                         mi250});
  EXPECT_EQ(batch.single_lane_ticks(), batch.result(2).ticks + batch.result(5).ticks);
}

TEST(BatchEngineCrossSeed, SlotThrowsAtStart) {
  // Seed 8's first lane throws at on_start, so its second is the lane out
  // and pairs with seed 7's.
  expect_each_lane_matches_alone({{7, 2.0, Hook::kDefault},
                                  {7, 2.5, Hook::kThrottle},
                                  {7, 1.5, Hook::kThrottle},
                                  {8, 2.0, Hook::kThrowAtStart},
                                  {8, 3.0, Hook::kThrottle}});
}

TEST(BatchEngineCrossSeed, SlotThrowsAtMidRunSample) {
  // Lone lanes on seeds 7 and 8 pair; either slot fails at a sample and
  // the other goes on at width 1 on its own seed's draws.
  expect_each_lane_matches_alone({{7, 3.0, Hook::kThrowMidRun}, {8, 3.0, Hook::kThrottle}});
  expect_each_lane_matches_alone({{7, 3.0, Hook::kThrottle}, {8, 3.0, Hook::kThrowIntMidRun}});
}

TEST(BatchEngineCrossSeed, SlotFinishesFirst) {
  // The first seed's lane finishes first (its stream stops drawing), then
  // the second seed's.
  expect_each_lane_matches_alone({{7, 1.0, Hook::kThrottle}, {8, 4.0, Hook::kDefault}});
  expect_each_lane_matches_alone({{7, 4.0, Hook::kDefault}, {8, 1.0, Hook::kThrottle}});
}

TEST(BatchEngineCrossSeed, ThreeOddGroupsLeaveOneSingle) {
  // Seeds 7 and 8 form a cohort; seed 9's lane out has no partner left and
  // ticks at width 1 for its whole run.
  ms::BatchEngine batch;
  expect_each_lane_matches_alone(batch, {{7, 2.0, Hook::kThrottle},
                                         {8, 2.0, Hook::kDefault},
                                         {9, 2.0, Hook::kThrottle},
                                         {9, 2.5, Hook::kDefault},
                                         {9, 1.5, Hook::kThrottle}});
  EXPECT_GE(batch.single_lane_ticks(), batch.result(4).ticks);
  EXPECT_GE(batch.pair_lane_ticks(),
            2 * std::min(batch.result(0).ticks, batch.result(1).ticks));
}

TEST(BatchEngineCrossSeed, LaneOutJoinsTheEarliestMatchingGroup) {
  // In seed order the lanes out are a100, mi250, a100: seeds 7 and 9 pair
  // past seed 8, whose mi250 lane ticks alone.
  ms::BatchEngine batch;
  expect_each_lane_matches_alone(batch, {{7, 2.0, Hook::kThrottle},
                                         {8, 2.0, Hook::kDefault, "amd_mi250"},
                                         {9, 2.0, Hook::kDefault}});
  EXPECT_GE(batch.single_lane_ticks(), batch.result(1).ticks);
  EXPECT_GE(batch.pair_lane_ticks(),
            2 * std::min(batch.result(0).ticks, batch.result(2).ticks));
}

TEST(BatchEnginePairing, EvenSeedGroupsNeverMerge) {
  // Each seed holds an intel_a100 and an amd_mi250 lane, which cannot pair
  // with each other; the two a100 lanes (and the two mi250 lanes) could
  // pair across seeds, but groups with no single lane out never share a
  // sweep: every tick is width 1.
  ms::BatchEngine batch;
  const LaneSpec mi250_7{7, 2.0, Hook::kDefault, "amd_mi250"};
  LaneSpec mi250_8 = mi250_7;
  mi250_8.seed = 8;
  expect_each_lane_matches_alone(
      batch, {{7, 2.0, Hook::kThrottle}, mi250_7, {8, 2.0, Hook::kThrottle}, mi250_8});
  EXPECT_EQ(batch.pair_lane_ticks(), 0u);
  EXPECT_EQ(batch.single_lane_ticks(), batch.total_ticks());
}

TEST(BatchEnginePairing, TwoRepetitionBatchTicksOnlyPairsUntilALaneEnds) {
  // Two Fig. 4 repetitions as run_repetitions lays them out in one batch:
  // (d0, m0), (d1, m1) and, across the two seeds, (u0, u1).
  const ms::SystemSpec system = ms::intel_a100();
  const mw::PhaseProgram program = mw::make_workload("bfs");
  const mc::Rng master(21);
  std::vector<me::RunOptions> opts(6);
  me::BatchRun batch;
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    mc::Rng rep_rng = master.fork(rep);
    const mw::PhaseProgram jittered = mw::apply_jitter(program, rep_rng);
    for (const char* policy : {"default", "magus", "ups"}) {
      me::RunOptions& o = opts[batch.job_count()];
      o.engine.seed = 21 * 1000003ull + rep;
      o.engine.record_traces = false;
      (void)batch.add(system, jittered, policy, o);
    }
  }
  batch.run_all();
  unsigned long long first_end = batch.output(0).result.ticks;
  for (std::size_t job = 0; job < batch.job_count(); ++job) {
    ASSERT_FALSE(batch.failed(job));
    first_end = std::min(first_end, batch.output(job).result.ticks);
  }
  EXPECT_GE(batch.pair_lane_ticks(), 6 * first_end);
  EXPECT_EQ(batch.pair_lane_ticks() + batch.single_lane_ticks(), batch.total_ticks());
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
