#include "magus/sim/batch_engine.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::sim {

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

void BatchEngine::fail(Lane& lane, const char* what) {
  lane.failed = true;
  lane.error = what;
  lane.exception = std::current_exception();
}

bool BatchEngine::sample(Lane& lane) {
  try {
    sample_boundary(lane.hook, lane.cpu, store_.meter(lane.index), lane.clock, lane.result);
    return true;
  } catch (const std::exception& e) {
    fail(lane, e.what());
  } catch (...) {
    fail(lane, kNonStandardError);
  }
  return false;
}

void BatchEngine::finish(Lane& lane) {
  collect_result(store_, lane.index, lane.clock, lane.executor.done(), lane.result);
}

namespace {

/// Slot `k` of a packed slice.
void set_slice_slot(BasicWorkSlice<kern::Pack2>& packed, int k, const WorkSlice& slice) {
  kern::set_slot(packed.demand_mbps, k, slice.demand_mbps);
  kern::set_slot(packed.mem_bound_frac, k, slice.mem_bound_frac);
  kern::set_slot(packed.cpu_util, k, slice.cpu_util);
  kern::set_slot(packed.gpu_util, k, slice.gpu_util);
}

}  // namespace

bool BatchEngine::step_single(Lane& lane, double jitter) {
  // magus:hot-path-begin
  const TickOutput out = store_.tick(lane.index, lane.cfg.tick_s, lane.executor.slice(),
                                     lane.clock.extra_w(), jitter);
  advance(lane, out.progress_rate);
  if (sample_due(lane) && !sample(lane)) return false;
  if (!over(lane)) return true;
  finish(lane);
  return false;
  // magus:hot-path-end
}

bool BatchEngine::step_pair(Pair& pair, double jitter) {
  // magus:hot-path-begin
  Lane& a = *pair.lane[0];
  Lane& b = *pair.lane[1];
  const kern::Pack2 extra_w{a.clock.extra_w(), b.clock.extra_w()};
  const BasicTickOutput<kern::Pack2> out =
      pair.state.tick(pair.dt, pair.slice, extra_w, jitter);
  const bool moved[2] = {advance(a, out.progress_rate[0]), advance(b, out.progress_rate[1])};
  // A slot's program can only finish on a phase move, so without one the
  // safety cap and the sample boundary are all there is to check.
  const auto quiet = [](const Lane& lane, bool phase_moved) {
    return !phase_moved && !sample_due(lane) && lane.clock.t < lane.clock.max_sim;
  };
  if (quiet(a, moved[0]) && quiet(b, moved[1])) return true;
  return pair_events(pair, moved);
  // magus:hot-path-end
}

bool BatchEngine::pair_events(Pair& pair, const bool moved[2]) {
  bool running[2] = {true, true};
  for (int k = 0; k < 2; ++k) {
    Lane& lane = *pair.lane[k];
    if (sample_due(lane)) {
      // The hook reads the lane through its backends and may program its
      // uncore limit: hand it the store, then take the store back.
      store_.save(pair.state, k, lane.index);
      if (!sample(lane)) {
        running[k] = false;
        continue;
      }
      store_.load(pair.state, k, lane.index);
    }
    if (over(lane)) {
      store_.save(pair.state, k, lane.index);
      finish(lane);
      running[k] = false;
    } else if (moved[k]) {
      set_slice_slot(pair.slice, k, lane.executor.slice());
    }
  }
  if (running[0] && running[1]) return true;
  // One slot's run ended: its partner, if still running, goes on alone.
  for (int k = 0; k < 2; ++k) {
    if (!running[k]) continue;
    store_.save(pair.state, k, pair.lane[k]->index);
    singles_.push_back(pair.lane[k]);
  }
  return false;
}

void BatchEngine::run_group(std::span<const std::size_t> group) {
  // Start every lane; on_start may program the uncore, so pairs load after.
  std::vector<Lane*> running;
  running.reserve(group.size());
  for (const std::size_t index : group) {
    Lane& lane = lanes_[index];
    lane.result.policy_name = lane.hook.name;
    lane.clock = RunClock(lane.cfg, lane.program, lane.hook);
    try {
      if (lane.hook.on_start) lane.hook.on_start(common::Seconds(0.0));
    } catch (const std::exception& e) {
      fail(lane, e.what());
      continue;
    } catch (...) {
      fail(lane, kNonStandardError);
      continue;
    }
    if (over(lane)) {
      finish(lane);
      continue;
    }
    running.push_back(&lane);
  }
  if (!running.empty()) run_lockstep(running);

  // Count finished runs in lane order, as a lane-at-a-time engine would.
  for (const std::size_t index : group) {
    const Lane& lane = lanes_[index];
    if (lane.failed) continue;
    lane.telemetry.run_finished(lane.result);
    total_ticks_ += lane.clock.ticks;
  }
}

void BatchEngine::run_lockstep(std::span<Lane* const> running) {
  // Consecutive lanes on equal NodeParams pair up; the rest (a lone lane
  // among them) tick at width 1.
  pairs_.clear();
  singles_.clear();
  for (std::size_t i = 0; i < running.size(); ++i) {
    Lane& a = *running[i];
    if (i + 1 < running.size() &&
        store_.params(a.index) == store_.params(running[i + 1]->index)) {
      Lane& b = *running[++i];
      Pair& pair = pairs_.emplace_back(
          Pair{LanePair(store_.params(a.index)), {&a, &b}, {a.cfg.tick_s, b.cfg.tick_s}, {}});
      store_.load(pair.state, 0, a.index);
      store_.load(pair.state, 1, b.index);
      set_slice_slot(pair.slice, 0, a.executor.slice());
      set_slice_slot(pair.slice, 1, b.executor.slice());
    } else {
      singles_.push_back(&a);
    }
  }

  // The sweep: one jitter draw per tick index serves every lane still
  // running. Singles tick before pairs, so a lane a pair hands over this
  // tick joins the singles from the next tick on. Lanes are independent, so
  // swap-removing finished ones reorders nothing that matters.
  common::Rng noise(running.front()->cfg.seed);
  // magus:hot-path-begin
  while (!pairs_.empty() || !singles_.empty()) {
    const double jitter = noise.jitter(kern::kTrafficNoiseRel);
    for (std::size_t i = 0; i < singles_.size();) {
      if (step_single(*singles_[i], jitter)) {
        ++i;
      } else {
        singles_[i] = singles_.back();
        singles_.pop_back();
      }
    }
    for (std::size_t i = 0; i < pairs_.size();) {
      if (step_pair(pairs_[i], jitter)) {
        ++i;
      } else {
        std::swap(pairs_[i], pairs_.back());
        pairs_.pop_back();
      }
    }
  }
  // magus:hot-path-end
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
  std::vector<std::span<const std::size_t>> groups;
  std::size_t widest = 0;
  for (std::size_t begin = 0; begin < order.size();) {
    std::size_t end = begin + 1;
    while (end < order.size() && lanes_[order[end]].cfg.seed == lanes_[order[begin]].cfg.seed) {
      ++end;
    }
    groups.push_back(std::span(order).subspan(begin, end - begin));
    widest = std::max(widest, end - begin);
    begin = end;
  }
  pairs_.reserve(widest / 2);
  singles_.reserve(widest);

  // The whole tick sweep is a lock-free hot section: run_group is
  // MAGUS_LOCK_FREE, and this scope is what grants it the hot-path role.
  const common::HotPathSection hot_section;
  for (const std::span<const std::size_t> group : groups) run_group(group);
}

}  // namespace magus::sim
