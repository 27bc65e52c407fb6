#pragma once
// FNV-1a digests of each workload's output at the two recorded seeds: the
// FleetResult::to_jsonl() rollup for the fleets, the Fig. 4 AppEvaluation
// rows for paper-fig4. Regenerate with `perfbench --print-digests` only when
// a change alters simulated results on purpose.

#include <cstdint>
#include <string>

namespace perfbench {

struct RecordedDigest {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};

inline constexpr RecordedDigest kRecordedDigests[] = {
    {"fleet-service", 2025ull, 0x0ce4e25b3ccb4b15ull},
    {"fleet-service", 4242ull, 0x7fd4421b0aad92dcull},
    {"fleet-budget", 2025ull, 0x23c3bef0781f51ccull},
    {"fleet-budget", 4242ull, 0xd706bb81dbd537dbull},
    {"paper-fig4", 2025ull, 0x380df4e64cdd9dafull},
    {"paper-fig4", 4242ull, 0x527b93d1ceef1771ull},
};

/// The recorded digest, or 0 when (workload, seed) has none.
inline std::uint64_t recorded_digest(const std::string& workload, std::uint64_t seed) {
  for (const RecordedDigest& r : kRecordedDigests) {
    if (workload == r.workload && seed == r.seed) return r.digest;
  }
  return 0;
}

}  // namespace perfbench
