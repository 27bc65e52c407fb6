// The repetition protocol's arm batch against its oracle. run_repetitions
// runs every arm of two consecutive repetitions as lanes of one BatchRun,
// each repetition's arms on its own seed and sharing its noise draw; each
// run must equal run_policy on the same jittered program, seed, policy and
// options, field for field, at any job count and repetition count. The
// single-policy run_repeated (the one-arm case) must agree with the
// matching arm of a multi-arm call, and a policy failure in either
// repetition of a batch keeps its type.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/rng.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/exp/repeat.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"
#include "sim_result_fields.hpp"

namespace me = magus::exp;
namespace mc = magus::common;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

me::RepeatSpec spec_of(int repetitions, std::uint64_t seed) {
  me::RepeatSpec spec;
  spec.repetitions = repetitions;
  spec.seed = seed;
  return spec;
}

/// Every run of `arms` at `jobs` workers equals run_policy on that
/// repetition's inputs, and each arm's aggregate equals the one-arm call.
void expect_arms_match_oracle(const ms::SystemSpec& system, const mw::PhaseProgram& program,
                              const std::vector<me::Arm>& arms, const me::RepeatSpec& spec,
                              std::size_t jobs) {
  JobsGuard guard(jobs);
  const auto runs = me::run_repetitions(system, program, arms, spec);
  ASSERT_EQ(runs.size(), arms.size());

  const mc::Rng master(spec.seed);
  const auto reps = static_cast<std::size_t>(spec.repetitions);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    mc::Rng rep_rng = master.fork(rep);
    const mw::PhaseProgram jittered = mw::apply_jitter(program, rep_rng, spec.jitter);
    for (std::size_t a = 0; a < arms.size(); ++a) {
      SCOPED_TRACE("rep " + std::to_string(rep) + ", arm " + std::to_string(a) + " (" +
                   arms[a].policy + ")");
      ASSERT_EQ(runs[a].size(), reps);
      me::RunOptions opts = arms[a].options;
      opts.engine.seed = spec.seed * 1000003ull + rep;
      opts.engine.record_traces = false;
      const ms::SimResult oracle = me::run_policy(system, jittered, arms[a].policy, opts).result;
      EXPECT_EQ(magus::test::result_fields(runs[a][rep]),
                magus::test::result_fields(oracle));
    }
  }

  const auto together = me::run_repeated(system, program, arms, spec);
  ASSERT_EQ(together.size(), arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    SCOPED_TRACE("aggregate of arm " + std::to_string(a));
    const me::AggregateResult alone =
        me::run_repeated(system, program, arms[a].policy, spec, arms[a].options);
    EXPECT_EQ(together[a].runtime, alone.runtime);
    EXPECT_EQ(together[a].pkg_energy, alone.pkg_energy);
    EXPECT_EQ(together[a].dram_energy, alone.dram_energy);
    EXPECT_EQ(together[a].gpu_energy, alone.gpu_energy);
    EXPECT_EQ(together[a].avg_cpu_power, alone.avg_cpu_power);
    EXPECT_EQ(together[a].avg_gpu_power, alone.avg_gpu_power);
    EXPECT_EQ(together[a].avg_invocation, alone.avg_invocation);
    EXPECT_EQ(together[a].reps_used, alone.reps_used);
    EXPECT_EQ(together[a].reps_total, alone.reps_total);
  }
}

std::vector<me::Arm> fig4_arms(const me::RunOptions& opts = {}) {
  return {{"default", opts}, {"magus", opts}, {"ups", opts}};
}

}  // namespace

TEST(RepeatArmOracle, SingleDieMatchesRunPolicyAtOneAndFourJobs) {
  // Repetitions run two to a batch: 1 and 7 leave an odd last repetition
  // alone, 2 is one full batch, 3 a batch plus a lone one.
  for (const int reps : {1, 2, 3, 7}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::to_string(reps) + " reps, jobs " + std::to_string(jobs));
      expect_arms_match_oracle(ms::intel_a100(), mw::make_workload("bfs"), fig4_arms(),
                               spec_of(reps, 301), jobs);
    }
  }
}

TEST(RepeatArmOracle, FailureInTheSecondRepetitionOfABatchKeepsItsType) {
  // At this fault weather, seed and jitter, UPS's first MSR -EIO on its
  // uncore-limit register lands inside repetition 1 only: repetition 0 ends
  // before it. Repetition 1 shares repetition 0's batch, and its failure
  // still surfaces as common::DeviceError.
  me::RunOptions faulty;
  faulty.fault.rate = 0.003;
  faulty.fault.seed = 10;
  const std::vector<me::Arm> arms{{"default", {}}, {"magus", {}}, {"ups", faulty}};
  me::RepeatSpec spec = spec_of(1, 1);
  spec.jitter.duration_rel = 0.3;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    JobsGuard guard(jobs);
    const mw::PhaseProgram program = mw::make_workload("bfs");
    spec.repetitions = 1;
    EXPECT_NO_THROW((void)me::run_repeated(ms::intel_a100(), program, arms, spec));
    spec.repetitions = 2;
    EXPECT_THROW((void)me::run_repeated(ms::intel_a100(), program, arms, spec),
                 mc::DeviceError);
  }
}

TEST(RepeatArmOracle, TwoDieNumaSkewMatchesRunPolicy) {
  ms::SystemSpec system = ms::intel_a100();
  system.cpu.dies_per_socket = 2;
  system.numa_skew = 0.3;
  expect_arms_match_oracle(system, mw::make_workload("bfs"), fig4_arms(), spec_of(3, 302), 4);
}

TEST(RepeatArmOracle, FaultWeatherMatchesRunPolicy) {
  me::RunOptions opts;
  opts.fault.rate = 0.05;
  opts.fault.seed = 7;
  expect_arms_match_oracle(ms::intel_a100(), mw::make_workload("bfs"),
                           {{"default", opts}, {"magus", opts}, {"ecoshift", opts}},
                           spec_of(3, 303), 4);
}

TEST(RepeatArmOracle, ArmsKeepTheirOwnOptions) {
  // Two magus arms on one batch with different thresholds: each policy must
  // read its own arm's MagusConfig, not a sibling's.
  me::RunOptions eager;
  eager.magus.inc_threshold = mc::Mbps(50.0);
  eager.magus.dec_threshold = mc::Mbps(100.0);
  eager.magus.high_freq_threshold = 0.1;
  me::RunOptions lazy;
  lazy.magus.inc_threshold = mc::Mbps(5000.0);
  lazy.magus.dec_threshold = mc::Mbps(20000.0);
  lazy.magus.high_freq_threshold = 0.9;
  const std::vector<me::Arm> arms{{"default", {}}, {"magus", eager}, {"magus", lazy}};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    expect_arms_match_oracle(ms::intel_a100(), mw::make_workload("bfs"), arms,
                             spec_of(3, 304), jobs);
  }

  // The two thresholds must actually steer the runs apart, or the test
  // above could not tell the arms' options apart.
  const auto runs = me::run_repetitions(ms::intel_a100(), mw::make_workload("bfs"), arms,
                                        spec_of(1, 304));
  EXPECT_NE(runs[1][0].pkg_energy_j, runs[2][0].pkg_energy_j);
}

TEST(RepeatArmOracle, RejectsRepetitionsOutsideTheCap) {
  for (const int reps : {0, me::kMaxRepetitions + 1}) {
    EXPECT_THROW((void)me::run_repetitions(ms::intel_a100(), mw::make_workload("bfs"),
                                           fig4_arms(), spec_of(reps, 1)),
                 mc::ConfigError);
  }
}
