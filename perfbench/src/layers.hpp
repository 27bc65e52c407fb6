#pragma once
// The traced run: spans around each public-layer call of the workload's own
// operations, then replays of each layer through its public functions on the
// workload's inputs. Reports every per-layer metric (see METRICS.md).

#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Operations attempted and failed, over the gate, timed, and check ops.
struct OpTally {
  long attempted = 0;
  long failed = 0;

  /// Counts one operation; `error` empty means it succeeded.
  void add(const std::string& what, const std::string& error);
};

/// Runs the traced measurement for about `seconds` plus fixed replays and
/// fills `sheet` with every per-layer metric. Spans go to `trace_out` when
/// it is non-empty.
void measure_layers(Workload& workload, double seconds, OpTally& tally, MetricSheet& sheet,
                    const std::string& trace_out);

}  // namespace perfbench
