#pragma once
// The engine oracle shared by the fleet oracle suites: SimEngine::run (one
// lane, via exp::run_policy) and BatchEngine (a shard of lanes, via
// exp::BatchRun) share one tick loop but are wired separately, so every job
// of a manifest must come out of both bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <string>
#include <tuple>
#include <vector>

#include "magus/core/power_cap.hpp"
#include "magus/exp/batch.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/wl/catalog.hpp"

namespace magus::test {

/// Every field of a run result, for one bit-exact comparison.
inline auto result_fields(const sim::SimResult& r) {
  return std::tuple(r.policy_name, r.completed, r.duration_s, r.pkg_energy_j, r.dram_energy_j,
                    r.gpu_energy_j, r.avg_pkg_power_w, r.avg_dram_power_w, r.avg_gpu_power_w,
                    r.invocations, r.total_invocation_s, r.ticks, r.accesses.msr_reads,
                    r.accesses.msr_writes, r.accesses.pcm_reads, r.domain_uncore_energy_j,
                    r.domain_stretch_time_s, r.domain_traffic_mb);
}

/// Runs every node of `manifest` (unjittered, seeded and fault-scheduled the
/// way the fleet does it, under `caps`) through exp::run_policy and through
/// one exp::BatchRun, and compares the two outputs job by job. A node's
/// manifest cap tightens `caps` the way the fleet allocator's ceiling does.
/// A job whose policy throws must fail the same way on both.
inline void expect_engines_agree(const fleet::FleetManifest& manifest,
                                 const core::PowerCapSchedule& caps) {
  const std::vector<fleet::NodeSpec> nodes = manifest.expand();
  std::vector<sim::SystemSpec> systems;
  std::vector<wl::PhaseProgram> programs;
  std::deque<exp::RunOptions> opts;  // BatchRun keeps pointers into these
  exp::BatchRun batch;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    systems.push_back(sim::system_by_name(nodes[i].system()));
    systems.back().cpu.dies_per_socket = nodes[i].dies();
    systems.back().numa_skew = nodes[i].numa_skew();
    programs.push_back(wl::make_workload(nodes[i].app()));
    exp::RunOptions& o = opts.emplace_back();
    o.engine.seed = manifest.seed() * 1000003ull + i;
    o.engine.record_traces = false;
    o.static_ghz = nodes[i].static_uncore();
    o.fault = manifest.fault();
    o.fault_node = i;
    o.power_cap = caps;
    const double node_cap = nodes[i].power_cap_w();
    if (node_cap > 0.0) {
      o.power_cap.fixed_cap_w = node_cap;
      for (double& w : o.power_cap.epoch_cap_w) w = std::min(w, node_cap);
    }
    batch.add(systems[i], programs[i], nodes[i].policy(), o);
  }
  batch.run_all();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(manifest.seed()) + " node " + nodes[i].name() +
                 " (" + nodes[i].policy() + ")");
    exp::RunOutput single;
    try {
      single = exp::run_policy(systems[i], programs[i], nodes[i].policy(), opts[i]);
    } catch (const std::exception& e) {
      ASSERT_TRUE(batch.failed(i)) << "threw only on SimEngine: " << e.what();
      EXPECT_EQ(batch.error(i), e.what());
      continue;
    }
    ASSERT_FALSE(batch.failed(i)) << "failed only on BatchEngine: " << batch.error(i);
    EXPECT_EQ(result_fields(single.result), result_fields(batch.output(i).result));
    EXPECT_EQ(single.faults.injected(), batch.output(i).faults.injected());
    EXPECT_EQ(single.policy_degraded, batch.output(i).policy_degraded);
  }
}

}  // namespace magus::test
