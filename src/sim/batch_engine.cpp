#include "magus/sim/batch_engine.hpp"

#include <algorithm>
#include <numeric>
#include <span>
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

  const std::size_t index = store_.add_lane(system);
  lanes_.emplace_back(store_, index, system.cpu, std::move(program), cfg);
  return index;
}

void BatchEngine::set_hook(std::size_t lane, PolicyHook hook) {
  lanes_[lane].run.hook = std::move(hook);
}

void BatchEngine::attach_telemetry(std::size_t lane, telemetry::MetricsRegistry& reg) {
  lanes_[lane].run.telemetry = EngineTelemetry(reg);
}

namespace {

/// LaneRun::step's observer for a lane that records nothing.
constexpr auto kNoObserver = [](double, const WorkSlice&, const TickOutput&) {};

/// Slot `k` of a packed slice.
void set_slice_slot(BasicWorkSlice<kern::Pack2>& packed, int k, const WorkSlice& slice) {
  kern::set_slot(packed.demand_mbps, k, slice.demand_mbps);
  kern::set_slot(packed.mem_bound_frac, k, slice.mem_bound_frac);
  kern::set_slot(packed.cpu_util, k, slice.cpu_util);
  kern::set_slot(packed.gpu_util, k, slice.gpu_util);
}

}  // namespace

template <class OnPair, class OnSingle>
void BatchEngine::pair_up(std::span<Lane* const> group, OnPair on_pair,
                          OnSingle on_single) const {
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (i + 1 < group.size() &&
        store_.params(group[i]->index) == store_.params(group[i + 1]->index)) {
      on_pair(*group[i], *group[i + 1]);
      ++i;
    } else {
      on_single(*group[i]);
    }
  }
}

void BatchEngine::add_pair(Lane& a, Lane& b) {
  const kern::Pack2 dt{a.run.cfg.tick_s, b.run.cfg.tick_s};
  Pair& pair = pairs_.emplace_back(Pair{LanePair(store_.params(a.index)), {&a, &b}, dt, {}});
  store_.load(pair.state, 0, a.index);
  store_.load(pair.state, 1, b.index);
  set_slice_slot(pair.slice, 0, a.run.executor.slice());
  set_slice_slot(pair.slice, 1, b.run.executor.slice());
}

bool BatchEngine::step_pair(Pair& pair, const double draw[2]) {
  // magus:hot-path-begin
  LaneRun& a = pair.lane[0]->run;
  LaneRun& b = pair.lane[1]->run;
  const kern::Pack2 extra_w{a.extra_w(), b.extra_w()};
  const kern::Pack2 jitter{draw[pair.lane[0]->draw], draw[pair.lane[1]->draw]};
  const BasicTickOutput<kern::Pack2> out =
      pair.state.tick(pair.dt, pair.slice, extra_w, jitter);
  const bool moved[2] = {a.advance(out.progress_rate[0]), b.advance(out.progress_rate[1])};
  // A slot's program can only finish on a phase move, so without one the
  // safety cap and the sample boundary are all there is to check.
  const auto quiet = [](const LaneRun& run, bool phase_moved) {
    return !phase_moved && !run.sample_due() && run.t < run.max_sim;
  };
  if (quiet(a, moved[0]) && quiet(b, moved[1])) return true;
  return pair_events(pair, moved);
  // magus:hot-path-end
}

bool BatchEngine::pair_events(Pair& pair, const bool moved[2]) {
  bool running[2] = {true, true};
  for (int k = 0; k < 2; ++k) {
    Lane& lane = *pair.lane[k];
    if (lane.run.sample_due()) {
      // The hook reads the lane through its backends and may program its
      // uncore limit: hand it the store, then take the store back.
      store_.save(pair.state, k, lane.index);
      if (!lane.run.sample(store_, lane.index)) {
        running[k] = false;
        --live_[lane.draw];
        continue;
      }
      store_.load(pair.state, k, lane.index);
    }
    if (lane.run.over()) {
      store_.save(pair.state, k, lane.index);
      lane.run.finish(store_, lane.index);
      running[k] = false;
      --live_[lane.draw];
    } else if (moved[k]) {
      set_slice_slot(pair.slice, k, lane.run.executor.slice());
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

void BatchEngine::sweep(const Cohort& cohort) {
  pairs_.clear();
  singles_.clear();
  const int groups = cohort.group[1].empty() ? 1 : 2;
  for (int g = 0; g < groups; ++g) {
    live_[g] = cohort.group[g].size();
    for (Lane* lane : cohort.group[g]) lane->draw = g;
    pair_up(
        cohort.group[g], [this](Lane& a, Lane& b) { add_pair(a, b); },
        [this](Lane& a) { singles_.push_back(&a); });
  }
  // Each of two groups left exactly one lane out: those pair across seeds.
  if (groups == 2) {
    add_pair(*singles_[0], *singles_[1]);
    singles_.clear();
  }

  // The sweep: each tick, one jitter draw per seed that still has a lane
  // running serves every lane of that seed. Singles tick before pairs, so a
  // lane a pair hands over this tick joins the singles from the next tick
  // on. Lanes are independent, so swap-removing finished ones reorders
  // nothing that matters.
  common::Rng noise[2] = {common::Rng(cohort.group[0].front()->run.cfg.seed),
                          common::Rng(cohort.group[groups - 1].front()->run.cfg.seed)};
  double draw[2] = {0.0, 0.0};
  unsigned long long pair_ticks = 0;
  unsigned long long single_ticks = 0;
  // magus:hot-path-begin
  while (!pairs_.empty() || !singles_.empty()) {
    for (int g = 0; g < groups; ++g) {
      if (live_[g] > 0) draw[g] = noise[g].jitter(kern::kTrafficNoiseRel);
    }
    pair_ticks += pairs_.size();
    single_ticks += singles_.size();
    for (std::size_t i = 0; i < singles_.size();) {
      Lane& lane = *singles_[i];
      if (lane.run.step(store_, lane.index, draw[lane.draw], kNoObserver)) {
        ++i;
      } else {
        --live_[lane.draw];
        singles_[i] = singles_.back();
        singles_.pop_back();
      }
    }
    for (std::size_t i = 0; i < pairs_.size();) {
      if (step_pair(pairs_[i], draw)) {
        ++i;
      } else {
        std::swap(pairs_[i], pairs_.back());
        pairs_.pop_back();
      }
    }
  }
  // magus:hot-path-end
  pair_lane_ticks_ += 2 * pair_ticks;
  single_lane_ticks_ += single_ticks;
}

void BatchEngine::run_all() {
  if (ran_) throw common::ConfigError("BatchEngine: run_all called twice");
  ran_ = true;

  // Lanes grouped by seed (stable: lane order within a group); lanes are
  // independent, so the order groups run in cannot affect results.
  std::vector<std::size_t> order(lanes_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lanes_[a].run.cfg.seed < lanes_[b].run.cfg.seed;
  });

  std::vector<std::span<const std::size_t>> groups;
  std::size_t widest = 0;
  for (std::size_t begin = 0; begin < order.size();) {
    std::size_t end = begin + 1;
    while (end < order.size() &&
           lanes_[order[end]].run.cfg.seed == lanes_[order[begin]].run.cfg.seed) {
      ++end;
    }
    groups.push_back(std::span(order).subspan(begin, end - begin));
    widest = std::max(widest, end - begin);
    begin = end;
  }

  // Sized here so the loop below never allocates. A cohort holds at most
  // two groups; `running` holds every started lane, so spans into it stay
  // valid.
  struct Waiting {
    std::span<Lane* const> lanes;
    Lane* out;  ///< the one lane its pairs leave out
  };
  std::vector<Lane*> running;
  running.reserve(lanes_.size());
  std::vector<Waiting> waiting;
  waiting.reserve(groups.size());
  pairs_.reserve(widest);
  singles_.reserve(2 * widest);

  // Each group starts right before it sweeps, while its lanes are still in
  // cache (on_start may program the uncore, so no pair loads before it). A
  // group whose pairs leave exactly one lane out waits, started, until a
  // later group's lane out has equal NodeParams; the two then sweep as one
  // cohort (greedily in seed order: `waiting` holds at most one group per
  // NodeParams). The loop is a lock-free hot section: sweep is
  // MAGUS_LOCK_FREE, and this scope is what grants it the hot-path role.
  {
    const common::HotPathSection hot_section;
    for (const std::span<const std::size_t> group : groups) {
      const std::size_t begin = running.size();
      for (const std::size_t index : group) {
        if (lanes_[index].run.start(store_, index)) running.push_back(&lanes_[index]);
      }
      const std::span<Lane* const> lanes = std::span<Lane* const>(running).subspan(begin);
      if (lanes.empty()) continue;
      Lane* out = nullptr;
      std::size_t left_out = 0;
      pair_up(
          lanes, [](Lane&, Lane&) {},
          [&](Lane& lane) {
            ++left_out;
            out = &lane;
          });
      if (left_out != 1) {
        sweep({{lanes, {}}});
        continue;
      }
      const auto match = std::find_if(waiting.begin(), waiting.end(), [&](const Waiting& w) {
        return store_.params(w.out->index) == store_.params(out->index);
      });
      if (match == waiting.end()) {
        waiting.push_back({lanes, out});
        continue;
      }
      sweep({{match->lanes, lanes}});
      waiting.erase(match);
    }
    for (const Waiting& group : waiting) sweep({{group.lanes, {}}});
  }

  // Count finished runs in lane order, as a lane-at-a-time engine would.
  for (const Lane& lane : lanes_) {
    if (lane.run.failed) continue;
    lane.run.telemetry.run_finished(lane.run.result);
    total_ticks_ += lane.run.ticks;
  }
}

}  // namespace magus::sim
