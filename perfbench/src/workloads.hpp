#pragma once
// The three benchmark workloads, their seeded input generators, and the
// output checks that decide whether an operation succeeded.
//
//   fleet-service  synth_fleet manifest handed over as JSONL, batch engine,
//                  MetricsRegistry + EventLog attached, rollup serialized in
//                  the timed region (the magus-daemon fleet-job path).
//   fleet-budget   every node cap-aware, 2 dies per socket with NUMA skew,
//                  a clipping fleet power budget with short epochs; manifest
//                  object built in process, telemetry off, rollup serialized
//                  after timing (allocator and per-domain kernel path).
//   paper-fig4     the Fig. 4 protocol: exp::evaluate_app (default, magus,
//                  ups x 7 repetitions) over the Fig. 4a/4b/4c app lists on
//                  the per-node SimEngine, fanned out over the pool.
//
// Each workload is a closed loop over a few input sets (fleet jobs, or Fig. 4
// protocols), set j built from seed + j * 1000003: the set picks every
// node's jitter and noise streams (the manifest seed / the repetition seed).
// The simulated metrics pool all sets, so a p95 over one job's tail does not
// swing with the seed. The fleets' node mix is one synth_fleet draw from a
// fixed mix seed: with 1000 nodes, redrawing the mix per seed moved the p95
// slowdown between 1.0 % and 2.3 % and energy saved by +-7 %, far beyond
// any bound a regression gate can use.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "magus/fleet/manifest.hpp"
#include "trace.hpp"

namespace perfbench {

/// Worker count of the default pool on every workload (at most nproc; two
/// leaves headroom so co-tenants do not decide the shard tail).
inline constexpr std::size_t kJobs = 2;
/// Seeds whose input set 0 has a recorded output digest (recorded_digests.hpp).
inline constexpr std::uint64_t kDefaultSeed = 2025;
inline constexpr std::uint64_t kHeldOutSeed = 4242;

struct OpOutput {
  std::string error;  ///< non-empty when the op threw or failed a check
  std::uint64_t digest = 0;
  double nodes = 0.0;    ///< node evaluations in the timed region
  double setup_s = 0.0;  ///< generated inputs -> ready to tick
  double timed_s = 0.0;  ///< the region nodes_per_s divides by
  std::uint64_t ticks = 0;  ///< simulated ticks in the timed region (fleets only)
  /// Simulated slowdown vs the default: per node (fleets), per app (paper-fig4).
  std::vector<double> slowdowns_pct;
  /// energy_saved_pct = 100 * saved / reference: joules saved over the
  /// default twins' joules (fleets); summed per-app saving fractions over
  /// the app count (paper-fig4).
  double saved = 0.0;
  double reference = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of input sets the closed loop cycles through.
  [[nodiscard]] virtual std::size_t input_sets() const = 0;

  /// One operation on input set `set` with the default pool at `jobs`
  /// workers: set up from the generated inputs, run the timed region, check
  /// the output. Never throws; failures land in OpOutput::error.
  virtual OpOutput op(Tracer* tracer, std::uint64_t op_id, std::size_t set,
                      std::size_t jobs) = 0;

  /// The fleet the layer replays run on: input set 0's manifest for the
  /// fleets, a one-node-per-app fleet over the Fig. 4 lists otherwise.
  [[nodiscard]] virtual const magus::fleet::FleetManifest& fleet_manifest() const = 0;

  /// True when fleet_manifest() is what op() runs.
  [[nodiscard]] virtual bool runs_fleet() const = 0;
};

/// The first digest seen per input set; later ops on the set must match it.
class DigestBook {
 public:
  explicit DigestBook(std::size_t sets) : digests_(sets), seen_(sets, false) {}

  /// `o`'s error, else "" when its digest matches the set's first (or is
  /// the first), else a mismatch message.
  std::string check(std::size_t set, const OpOutput& o) {
    if (!o.error.empty()) return o.error;
    if (!seen_[set]) {
      seen_[set] = true;
      digests_[set] = o.digest;
      return "";
    }
    return o.digest == digests_[set] ? "" : "output differs from an earlier op on the same inputs";
  }

 private:
  std::vector<std::uint64_t> digests_;
  std::vector<bool> seen_;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from `seed`; throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
