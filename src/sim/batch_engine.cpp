#include "magus/sim/batch_engine.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::sim {

namespace {

/// First tape size; the tape doubles from here when a recording fills it.
constexpr std::size_t kTapeMin = 4096;

/// Noise source of a seed group's first lane: draws from the lane's own
/// stream and appends each draw to the tape. Full once the tape is.
struct TapeRecorder {
  std::vector<double>& tape;
  std::size_t size = 0;  ///< draws recorded

  // magus:hot-path-begin
  double operator()(common::Rng& own) {
    const double j = own.jitter(kern::kTrafficNoiseRel);
    tape[size++] = j;
    return j;
  }
  [[nodiscard]] bool full() const noexcept { return size == tape.size(); }
  // magus:hot-path-end
};

/// Noise source of a seed group's later lanes: replays the recorded draws,
/// then draws from the lane's own stream, which run_group has set to a copy
/// of the recorder's final stream.
struct TapeReplayer {
  const double* tape;
  std::size_t size;  ///< draws recorded
  std::size_t next = 0;

  // magus:hot-path-begin
  double operator()(common::Rng& own) {
    return next < size ? tape[next++] : own.jitter(kern::kTrafficNoiseRel);
  }
  // magus:hot-path-end
  static constexpr bool full() noexcept { return false; }
};

}  // namespace

std::size_t BatchEngine::add_lane(const SystemSpec& system, wl::PhaseProgram program,
                                  const EngineConfig& cfg) {
  if (ran_) throw common::ConfigError("BatchEngine: add_lane after run_all");
  program.validate();
  validate_engine_config(cfg, "BatchEngine");
  if (cfg.record_traces) {
    throw common::ConfigError(
        "BatchEngine: trace recording is a per-node concern (use SimEngine)");
  }

  const std::size_t index = store_.add_lane(system, cfg.seed);
  lanes_.emplace_back(store_, index, system.cpu, std::move(program), cfg);
  return index;
}

void BatchEngine::set_hook(std::size_t lane, PolicyHook hook) {
  lanes_[lane].hook = std::move(hook);
}

void BatchEngine::attach_telemetry(std::size_t lane, telemetry::MetricsRegistry& reg) {
  lanes_[lane].telemetry = EngineTelemetry(reg);
}

template <class Noise>
void BatchEngine::run_lane(std::size_t index, Noise& noise) {
  Lane& lane = lanes_[index];
  lane.result.policy_name = lane.hook.name;
  RunClock clock(lane.cfg, lane.program, lane.hook);
  // The same loop as SimEngine::run, minus traces; a throwing policy fails
  // this lane only.
  try {
    if (lane.hook.on_start) lane.hook.on_start(common::Seconds(0.0));
    const auto no_trace = [](double, const WorkSlice&, const TickOutput&) {};
    for (;;) {
      const Stop stop =
          run_to_boundary(store_, index, lane.executor, lane.cfg.tick_s, clock, noise, no_trace);
      if (stop == Stop::kFinished) break;
      if (stop == Stop::kNoiseFull) {
        // Only a recorder fills; grow its tape between ticks, never in them.
        tape_.resize(std::max(kTapeMin, 2 * tape_.size()));
        continue;
      }
      sample_boundary(lane.hook, lane.cpu, store_.meter(index), clock, lane.result);
    }
  } catch (const std::exception& e) {
    lane.failed = true;
    lane.error = e.what();
    lane.exception = std::current_exception();
    return;
  }
  collect_result(store_, index, clock, lane.executor.done(), lane.result);
  lane.telemetry.run_finished(lane.result);
  total_ticks_ += clock.ticks;
}

void BatchEngine::run_group(std::span<const std::size_t> group) {
  if (group.size() == 1) {
    OwnNoise own;
    run_lane(group[0], own);
    return;
  }
  TapeRecorder recorder{tape_};
  run_lane(group[0], recorder);
  // The recorder's stream is now `recorder.size` draws in -- wherever it
  // stopped, including a throw at on_start or at a sample boundary.
  const common::Rng tail = store_.noise_rng(group[0]);
  for (const std::size_t lane : group.subspan(1)) {
    store_.noise_rng(lane) = tail;
    TapeReplayer replayer{tape_.data(), recorder.size};
    run_lane(lane, replayer);
  }
}

void BatchEngine::run_all() {
  if (ran_) throw common::ConfigError("BatchEngine: run_all called twice");
  ran_ = true;

  // Lanes grouped by seed (stable: lane order within a group); lanes are
  // independent, so the order groups run in cannot affect results.
  std::vector<std::size_t> order(lanes_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lanes_[a].cfg.seed < lanes_[b].cfg.seed;
  });

  // The whole tick sweep is a lock-free hot section: run_lane is
  // MAGUS_LOCK_FREE, and this scope is what grants it the hot-path role.
  const common::HotPathSection hot_section;
  for (std::size_t begin = 0; begin < order.size();) {
    std::size_t end = begin + 1;
    while (end < order.size() && lanes_[order[end]].cfg.seed == lanes_[order[begin]].cfg.seed) {
      ++end;
    }
    run_group(std::span(order).subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace magus::sim
