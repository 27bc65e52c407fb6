#pragma once
// Every field of a sim::SimResult as one tuple, so a test compares two runs
// bit for bit with a single EXPECT_EQ.

#include <tuple>

#include "magus/sim/engine.hpp"

namespace magus::test {

inline auto result_fields(const sim::SimResult& r) {
  return std::tuple(r.policy_name, r.completed, r.duration_s, r.pkg_energy_j, r.dram_energy_j,
                    r.gpu_energy_j, r.avg_pkg_power_w, r.avg_dram_power_w, r.avg_gpu_power_w,
                    r.invocations, r.total_invocation_s, r.ticks, r.accesses.msr_reads,
                    r.accesses.msr_writes, r.accesses.pcm_reads, r.domain_uncore_energy_j,
                    r.domain_stretch_time_s, r.domain_traffic_mb);
}

}  // namespace magus::test
