#include "magus/sim/batch_engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::sim {

std::size_t BatchEngine::add_lane(const SystemSpec& system, wl::PhaseProgram program,
                                  const EngineConfig& cfg) {
  if (ran_) throw common::ConfigError("BatchEngine: add_lane after run_all");
  program.validate();
  if (cfg.tick_s <= 0.0 || cfg.record_dt_s <= 0.0) {
    throw common::ConfigError("BatchEngine: non-positive tick or record step");
  }
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

void BatchEngine::start_lane(std::size_t index) {
  Lane& lane = lanes_[index];
  lane.result.policy_name = lane.hook.name;
  lane.clock = RunClock(lane.cfg, lane.program, lane.hook);
  if (lane.hook.on_start) {
    try {
      lane.hook.on_start(common::Seconds(0.0));
    } catch (const std::exception& e) {
      lane.failed = true;
      lane.error = e.what();
    }
  }
}

bool BatchEngine::step_lane(std::size_t index) {
  Lane& lane = lanes_[index];

  // Tick to the lane's next policy boundary on a local copy of its clock, so
  // the ~150+ ticks between boundaries keep the loop state in registers. The
  // monitor charge only changes at boundaries, so working on a copy is exact.
  RunClock clock = lane.clock;
  const auto no_trace = [](double, const WorkSlice&, const TickOutput&) {};
  const bool finished =
      run_to_boundary(store_, index, lane.executor, lane.cfg.tick_s, clock, no_trace);
  lane.clock = clock;
  if (finished) {
    collect_result(store_, index, clock, lane.executor.done(), lane.result);
    total_ticks_ += clock.ticks;
    return true;
  }

  // Sample boundary: invoke the policy and charge its measured cost, exactly
  // as SimEngine::run does. A throwing policy fails this lane only.
  try {
    sample_boundary(lane.hook, lane.cpu, store_.meter(index), lane.clock, lane.result);
  } catch (const std::exception& e) {
    lane.failed = true;
    lane.error = e.what();
    return true;
  }
  return false;
}

void BatchEngine::run_all() {
  if (ran_) throw common::ConfigError("BatchEngine: run_all called twice");
  ran_ = true;

  for (std::size_t i = 0; i < lanes_.size(); ++i) start_lane(i);

  // Blocked: each pass advances every lane of a cache-sized block to its
  // next sample boundary (step_lane), and the block drains before the next
  // one starts. The block's hot rows stay resident instead of re-streaming
  // the whole shard's state; lanes are independent, so neither the grouping
  // nor the compaction order below can affect results.
  constexpr std::size_t kLaneBlock = 32;
  std::vector<std::size_t> active;
  active.reserve(kLaneBlock);
  // The whole blocked tick sweep is a lock-free hot section: step_lane is
  // MAGUS_LOCK_FREE, and this scope is what grants it the hot-path role.
  const common::HotPathSection hot_section;
  for (std::size_t block = 0; block < lanes_.size(); block += kLaneBlock) {
    const std::size_t end = std::min(lanes_.size(), block + kLaneBlock);
    active.clear();
    for (std::size_t i = block; i < end; ++i) {
      if (!lanes_[i].failed) active.push_back(i);
    }
    while (!active.empty()) {
      for (std::size_t k = 0; k < active.size();) {
        if (step_lane(active[k])) {
          active[k] = active.back();
          active.pop_back();
        } else {
          ++k;
        }
      }
    }
  }
}

}  // namespace magus::sim
