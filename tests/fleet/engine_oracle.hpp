#pragma once
// The engine oracle shared by the fleet oracle suites: it compares a lane run
// alone with the same lane in a lockstep cohort. SimEngine::run (via
// exp::run_policy) steps the lane's sim::LaneRun at width 1 on its own noise
// stream; BatchEngine (a shard of lanes, via exp::BatchRun) ticks the same
// control in pairs on a cohort's shared draws, handing a pair's state to the
// store and back at each boundary. Every job of a manifest must come out of
// both bit for bit. Jobs are laid out the way FleetRunner::run_shard lays out
// a shard -- each non-default job followed by its fault-free default twin on
// the same seed -- so the batch side ticks each job and its twin as one
// lockstep pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "magus/core/power_cap.hpp"
#include "magus/exp/batch.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/wl/catalog.hpp"
#include "sim_result_fields.hpp"

namespace magus::test {

/// Runs every node of `manifest` (unjittered, seeded and fault-scheduled the
/// way the fleet does it, under `caps`) through exp::run_policy and through
/// one exp::BatchRun, and compares the two outputs job by job. A node's
/// manifest cap tightens `caps` the way the fleet allocator's ceiling does.
/// Every non-default node also gets its fault-free default twin, as in the
/// fleet. A job whose policy throws must fail the same way on both.
inline void expect_engines_agree(const fleet::FleetManifest& manifest,
                                 const core::PowerCapSchedule& caps) {
  struct Job {
    std::string name;
    std::string policy;
    sim::SystemSpec system;
    wl::PhaseProgram program;
    exp::RunOptions opts;  // BatchRun keeps pointers into these
  };
  const std::vector<fleet::NodeSpec> nodes = manifest.expand();
  std::deque<Job> jobs;
  exp::BatchRun batch;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Job& job = jobs.emplace_back();
    job.name = nodes[i].name();
    job.policy = nodes[i].policy();
    job.system = sim::system_by_name(nodes[i].system());
    job.system.cpu.dies_per_socket = nodes[i].dies();
    job.system.numa_skew = nodes[i].numa_skew();
    job.program = wl::make_workload(nodes[i].app());
    exp::RunOptions& o = job.opts;
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
    batch.add(job.system, job.program, job.policy, job.opts);
    if (job.policy != "default") {
      Job& twin = jobs.emplace_back(job);
      twin.name += " twin";
      twin.policy = "default";
      twin.opts.fault = {};
      batch.add(twin.system, twin.program, twin.policy, twin.opts);
    }
  }
  batch.run_all();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    SCOPED_TRACE("seed " + std::to_string(manifest.seed()) + " node " + job.name + " (" +
                 job.policy + ")");
    exp::RunOutput single;
    try {
      single = exp::run_policy(job.system, job.program, job.policy, job.opts);
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
