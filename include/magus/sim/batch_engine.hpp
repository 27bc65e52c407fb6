#pragma once
// BatchEngine: the fleet tick path.
//
// Advances many independent lanes (one lane = one simulated node run) held
// in one LaneStore -- the struct-of-arrays node storage NodeModel also uses,
// one flat vector per quantity -- with each lane's run (sim::LaneRun: phase
// program, clock, policy hook, result) parked in a deque off the store. The
// store is the shard's arena: it is allocated once while lanes are added and
// never grown by the tick loop, which performs no heap allocation and no
// virtual dispatch (policy callbacks run only at sample boundaries, every
// ~150 ticks).
//
// Lockstep cohorts: a lane's per-tick jitter is a pure function of its
// EngineConfig::seed and the tick index, and the fleet runs every node twice
// on one seed (the policy lane and its default twin); the repetition
// protocol (exp::run_repeated) runs each repetition's policy arms on the
// repetition's seed, two repetitions to an engine. run_all groups lanes by
// seed, wherever they sit in lane order, and sweeps one cohort at a time in
// lockstep by tick index, each group's lanes started just before. A cohort
// is one seed group, or two groups that each leave exactly one running lane
// out of their pairs, on equal kern::NodeParams (a group joins the earliest
// unmatched one in seed order). Each tick the sweep makes one jitter draw
// per seed of the cohort that still has a running lane, and every lane of
// that seed ticks on it, so each seed's stream advances exactly as a lane
// run alone would advance it. Inside a group, consecutive lanes with equal
// NodeParams pair up and tick together through the two-wide kernel
// (sim::LanePair, slot k = lane k, on its own seed's draw); the two lanes
// left out of a two-group cohort pair across seeds; any other leftover lane
// ticks at width 1 on the store, through LaneRun::step, the step SimEngine
// runs its one lane through. A pair's state goes back to the store
// whenever a hook or backend can see it (at each of a slot's sample
// boundaries and when it finishes), and a slot that finishes or fails leaves
// its partner to go on at width 1. Slot k of the two-wide tick is
// bit-identical to the width-1 tick, so pairing moves no bit. Cohorts are
// capped at two groups so that one sweep's working set stays a few lanes:
// sweeping a whole shard as one loop was measured slower.
//
// Per lane, the run is SimEngine::run's without trace recording -- the same
// LaneRun control over the same kernel and backends -- so a lane's result is
// bit-identical to SimEngine::run on the same (system, program, config,
// hook) whether it ticks alone or in a pair. The fleet rollup goldens in
// tests/fleet/golden/ pin the batched output byte for byte.
//
// Scope: lanes never record traces (EngineConfig::record_traces must be
// false). A lane with attach_telemetry counts into the engine series the way
// SimEngine::run does (EngineTelemetry, and the live sim-time gauge at each
// sample boundary). Policy-level telemetry (PolicyContext::metrics/events)
// works unchanged, except that the callbacks of one cohort's lanes
// interleave in tick order.

#include <cstddef>
#include <deque>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "magus/common/thread_annotations.hpp"
#include "magus/sim/backends.hpp"
#include "magus/sim/engine.hpp"
#include "magus/sim/node.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/wl/phase.hpp"

namespace magus::sim {

class BatchEngine {
 public:
  BatchEngine() = default;
  // Backends point into the store; pin the address.
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Add one lane. Validates like the SimEngine constructor; additionally
  /// rejects cfg.record_traces (traces are a per-node concern). Returns the
  /// lane index used by every other accessor.
  std::size_t add_lane(const SystemSpec& system, wl::PhaseProgram program,
                       const EngineConfig& cfg);

  /// Bind the policy hook for a lane (default: the no-op "default" hook).
  void set_hook(std::size_t lane, PolicyHook hook);

  /// Count the lane's run into the engine series on `reg` once it finishes
  /// (EngineTelemetry::run_finished). The registry must outlive run_all.
  void attach_telemetry(std::size_t lane, telemetry::MetricsRegistry& reg);

  /// Backends a policy binds to. Valid for the engine's lifetime.
  [[nodiscard]] LaneBackends& backends(std::size_t lane) { return lanes_[lane].hw; }

  /// Run every lane to completion (or its safety cap). Call at most once.
  /// A lane whose policy callback throws -- anything, std::exception or
  /// not -- is recorded failed and isolated; sibling lanes, including those
  /// sharing its seed or its pair, are unaffected.
  void run_all();

  /// lane_error of a lane whose policy threw something other than a
  /// std::exception.
  static constexpr const char* kNonStandardError = LaneRun::kNonStandardError;

  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }
  [[nodiscard]] bool lane_failed(std::size_t lane) const { return lanes_[lane].run.failed; }
  [[nodiscard]] const std::string& lane_error(std::size_t lane) const {
    return lanes_[lane].run.error;
  }
  /// The exception a failed lane's policy threw, type intact, for callers
  /// that rethrow it (null unless lane_failed). lane_error is its what(),
  /// or kNonStandardError when it is not a std::exception.
  [[nodiscard]] std::exception_ptr lane_exception(std::size_t lane) const {
    return lanes_[lane].run.exception;
  }
  /// Result for a successfully finished lane (unspecified if lane_failed).
  [[nodiscard]] const SimResult& result(std::size_t lane) const {
    return lanes_[lane].run.result;
  }
  /// Simulation steps executed across all finished lanes.
  [[nodiscard]] unsigned long long total_ticks() const noexcept { return total_ticks_; }
  /// Lane ticks made through the two-wide kernel (two per pair tick) and at
  /// width 1. They count failed lanes' ticks too, so with no failed lane
  /// they sum to total_ticks().
  [[nodiscard]] unsigned long long pair_lane_ticks() const noexcept {
    return pair_lane_ticks_;
  }
  [[nodiscard]] unsigned long long single_lane_ticks() const noexcept {
    return single_lane_ticks_;
  }

 private:
  /// A lane's run plus where it sits: its store index, its backends, and
  /// the draw of its cohort it ticks on. Lives in a deque so addresses stay
  /// stable while lanes are added (policy lambdas point into the backends).
  struct Lane {
    Lane(LaneStore& store, std::size_t lane_index, const CpuSpec& cpu,
         wl::PhaseProgram program, const EngineConfig& cfg)
        : index(lane_index), run(cpu, std::move(program), cfg), hw(store, lane_index) {}

    std::size_t index;  ///< the lane's index in the store
    int draw = 0;       ///< which per-seed draw of its cohort it ticks on (0 or 1)
    LaneRun run;
    LaneBackends hw;
  };

  /// Two lanes ticking as one pack.
  struct Pair {
    LanePair state;
    Lane* lane[2] = {nullptr, nullptr};
    kern::Pack2 dt{};                   ///< each slot's tick_s
    BasicWorkSlice<kern::Pack2> slice;  ///< each slot's current phase
  };

  /// The running lanes of the one or two seed groups one sweep ticks.
  struct Cohort {
    std::span<Lane* const> group[2];  ///< group[1] is empty for one group
  };

  /// Walk one seed group's running lanes as a sweep pairs them: consecutive
  /// lanes on equal NodeParams pair up, on_pair(a, b); on_single(a) for each
  /// lane left out.
  template <class OnPair, class OnSingle>
  void pair_up(std::span<Lane* const> group, OnPair on_pair, OnSingle on_single) const;

  // The members below run only inside run_all's HotPathSection:
  // MAGUS_LOCK_FREE makes taking any AnnotatedMutex in their bodies a compile
  // error under Clang -- the compiler-checked half of the marker-comment
  // hot-path lint contract. (Policy callbacks invoked at sample boundaries
  // are std::function and opaque to the analysis; they manage their own hot
  // sections.)

  /// Tick a cohort's lanes in lockstep to their ends.
  void sweep(const Cohort& cohort) MAGUS_LOCK_FREE;
  /// Load two lanes into a new pair of the sweep. (Not MAGUS_LOCK_FREE:
  /// sweep calls it from a pair_up callback, and Clang's analysis does not
  /// carry the hot-path role into a lambda.)
  void add_pair(Lane& a, Lane& b);
  /// Tick a pair once, slot k on draw[lane k's draw]. False when a slot's run
  /// ended; a partner still running is then saved to the store and queued
  /// on `singles_`.
  bool step_pair(Pair& pair, const double draw[2]) MAGUS_LOCK_FREE;
  /// step_pair's rare half: slot sample boundaries, finished slots, phase
  /// changes.
  bool pair_events(Pair& pair, const bool moved[2]) MAGUS_LOCK_FREE;

  LaneStore store_;
  std::deque<Lane> lanes_;
  /// The current cohort's work lists, sized in run_all so the sweep never
  /// allocates: its pairs and the lanes ticking at width 1.
  std::vector<Pair> pairs_;
  std::vector<Lane*> singles_;
  /// Running lanes per seed group of the current cohort; a group draws
  /// while its count is positive.
  std::size_t live_[2] = {0, 0};
  unsigned long long total_ticks_ = 0;
  unsigned long long pair_lane_ticks_ = 0;
  unsigned long long single_lane_ticks_ = 0;
  bool ran_ = false;
};

}  // namespace magus::sim
