#pragma once
// The repetition protocol (paper section 6): every experiment runs >= 5
// times with per-repetition workload jitter and a distinct noise seed;
// outliers are removed with an IQR fence and the remainder averaged.
//
// A comparison runs several policy arms over the same repetitions.
// Repetition r of every arm sees the same jittered program and the same
// engine seed, so its arms are lanes of one seed group that tick in lockstep
// on one noise draw per tick, paired two at a time (sim/batch_engine.hpp).
// Two consecutive repetitions share one exp::BatchRun: with an odd number of
// arms, the arm each repetition leaves out pairs with the other's across
// seeds, so the three Fig. 4 arms of repetitions r and r + 1 tick as three
// pairs. An odd last repetition runs alone. Per run the result is
// bit-identical to exp::run_policy on the same inputs. The ceil(reps / 2)
// batches fan out on the shared pool; the single-policy run_repeated is the
// one-arm case.

#include <cstdint>
#include <string>
#include <vector>

#include "magus/exp/experiment.hpp"
#include "magus/exp/metrics.hpp"
#include "magus/wl/jitter.hpp"

namespace magus::exp {

/// Upper bound on RepeatSpec::repetitions; results are pre-sized per
/// repetition, so an unbounded count would be an unbounded allocation.
inline constexpr int kMaxRepetitions = 10'000;

struct RepeatSpec {
  int repetitions = 7;  ///< in [1, kMaxRepetitions]
  std::uint64_t seed = 2025;
  wl::JitterConfig jitter;
};

/// One arm of a comparison: a policy by name and the options it runs under.
/// The engine seed and trace flag in `options` are overridden per
/// repetition.
struct Arm {
  std::string policy;
  RunOptions options;
};

/// Every arm's individual repetition results, `runs[arm][rep]`. Throws
/// common::ConfigError for a repetition count outside [1, kMaxRepetitions]
/// or an unknown policy; a policy that throws inside a run propagates with
/// its own exception type (within one repetition, the first failed arm's in
/// arm order).
[[nodiscard]] std::vector<std::vector<sim::SimResult>> run_repetitions(
    const sim::SystemSpec& system, const wl::PhaseProgram& workload,
    const std::vector<Arm>& arms, const RepeatSpec& spec);

/// Run `workload` under every arm with the repetition protocol: one
/// aggregate per arm, in arm order.
[[nodiscard]] std::vector<AggregateResult> run_repeated(const sim::SystemSpec& system,
                                                        const wl::PhaseProgram& workload,
                                                        const std::vector<Arm>& arms,
                                                        const RepeatSpec& spec);

/// Run `workload` under the named policy with the repetition protocol.
[[nodiscard]] AggregateResult run_repeated(const sim::SystemSpec& system,
                                           const wl::PhaseProgram& workload,
                                           const std::string& policy,
                                           const RepeatSpec& spec,
                                           const RunOptions& opts = {});

}  // namespace magus::exp
