#pragma once
// BatchEngine: the fleet tick path.
//
// Advances many independent lanes (one lane = one simulated node run) held
// in one LaneStore -- the struct-of-arrays node storage NodeModel also uses,
// one flat vector per quantity -- with the cold per-lane bookkeeping (phase
// programs, policy hooks, results) parked in a deque off the tick path. The
// store is the shard's arena: it is allocated once while lanes are added and
// never grown by the tick loop, which performs no heap allocation and no
// virtual dispatch (policy callbacks run only at sample boundaries, every
// ~150 ticks).
//
// One noise draw per seed: a lane's per-tick jitter is a pure function of
// its EngineConfig::seed and the tick index, and the fleet runs every node
// twice on one seed (the policy lane and its default twin). run_all groups
// lanes by seed, wherever they sit in lane order, and runs the groups one
// after another, each lane to completion. A group's first lane records its
// draws on a tape the engine owns and reuses; each later lane replays the
// tape and, past its end, continues from a copy of the first lane's final
// stream -- the draws it would have made itself, so sharing moves no bit.
// The repetition protocol (exp::run_repeated) shares the same way: one
// repetition's policy arms are lanes of one engine on the repetition's seed.
//
// The per-lane loop is SimEngine::run's without trace recording, over the
// same kernel, backends and sample-boundary charge, so a lane's result is
// bit-identical to SimEngine::run on the same (system, program, config,
// hook). The fleet rollup goldens in tests/fleet/golden/ pin the batched
// output byte for byte.
//
// Scope: lanes never record traces (EngineConfig::record_traces must be
// false). A lane with attach_telemetry counts its finished run into the
// engine series the way SimEngine::run does (EngineTelemetry), without the
// live per-sample sim-time gauge. Policy-level telemetry
// (PolicyContext::metrics/events) works unchanged.

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
#include "magus/sim/program_executor.hpp"
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
  /// A lane whose policy callback throws is recorded failed and isolated;
  /// sibling lanes, including those sharing its seed, are unaffected.
  void run_all();

  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }
  [[nodiscard]] bool lane_failed(std::size_t lane) const { return lanes_[lane].failed; }
  [[nodiscard]] const std::string& lane_error(std::size_t lane) const {
    return lanes_[lane].error;
  }
  /// The exception a failed lane's policy threw, type intact, for callers
  /// that rethrow it (null unless lane_failed).
  [[nodiscard]] std::exception_ptr lane_exception(std::size_t lane) const {
    return lanes_[lane].exception;
  }
  /// Result for a successfully finished lane (unspecified if lane_failed).
  [[nodiscard]] const SimResult& result(std::size_t lane) const {
    return lanes_[lane].result;
  }
  /// Simulation steps executed across all finished lanes.
  [[nodiscard]] unsigned long long total_ticks() const noexcept { return total_ticks_; }

 private:
  /// Cold per-lane bookkeeping, off the tick path. Lives in a deque so
  /// addresses stay stable while lanes are added (policy lambdas point into
  /// the backends).
  struct Lane {
    Lane(LaneStore& store, std::size_t index, const CpuSpec& cpu_spec, wl::PhaseProgram prog,
         const EngineConfig& config)
        : cpu(cpu_spec),
          program(std::move(prog)),
          cfg(config),
          hw(store, index),
          executor(program) {}

    CpuSpec cpu;  ///< invocation-cost coefficients
    wl::PhaseProgram program;
    EngineConfig cfg;
    LaneBackends hw;
    PolicyHook hook;
    ProgramExecutor executor;  ///< walks `program` (deque: its address is stable)
    EngineTelemetry telemetry;
    bool failed = false;
    std::string error;
    std::exception_ptr exception;
    SimResult result;
  };

  /// Run lane `index` from on_start to its end with jitter from `noise`
  /// (OwnNoise, or the tape recorder/replayer in batch_engine.cpp).
  /// MAGUS_LOCK_FREE: runs only inside run_all's HotPathSection, so taking
  /// any AnnotatedMutex in its body is a compile error under Clang — the
  /// compiler-checked half of the marker-comment hot-path lint contract.
  /// (Policy callbacks invoked at sample boundaries are std::function and
  /// opaque to the analysis; they manage their own hot sections.)
  template <class Noise>
  void run_lane(std::size_t index, Noise& noise) MAGUS_LOCK_FREE;
  /// Run the lanes `group` lists, which share one seed, in order.
  void run_group(std::span<const std::size_t> group) MAGUS_LOCK_FREE;

  LaneStore store_;
  std::deque<Lane> lanes_;
  /// The jitter a seed group's first lane drew, one entry per tick. Grown
  /// only between run_to_boundary calls; reused by every group.
  std::vector<double> tape_;
  unsigned long long total_ticks_ = 0;
  bool ran_ = false;
};

}  // namespace magus::sim
