// MAGUS benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//   perfbench --print-digests
//
// Prints one JSON object as the last line of stdout: the end-to-end metrics
// from an untraced run (--trace 0) or the per-layer metrics from a traced
// run (--trace 1). Every run first replays input set 0 of the two seeds
// with recorded output digests; an operation that throws, whose digest
// mismatches the record, or whose output differs from an earlier op on the
// same inputs counts as failed. Exits non-zero, printing no result, on a
// usage error.

#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "magus/common/thread_pool.hpp"
#include "recorded_digests.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool print_digests = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      a.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload && !a.print_digests) throw std::invalid_argument("--workload is required");
  return a;
}

/// Checks an op on input set 0 against the recorded digest when `seed` has one.
std::string against_record(const std::string& workload, std::uint64_t seed,
                           const OpOutput& o) {
  if (!o.error.empty()) return o.error;
  const std::uint64_t want = recorded_digest(workload, seed);
  if (want != 0 && o.digest != want) {
    return "digest " + hex64(o.digest) + " != recorded " + hex64(want);
  }
  return "";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void measure_end_to_end(Workload& workload, const Args& a, OpTally& tally,
                        MetricSheet& sheet) {
  const std::size_t sets = workload.input_sets();
  DigestBook book(sets);
  std::vector<double> rates;
  std::vector<double> setups;
  // Simulated outcomes pooled over the first pass through the input sets.
  std::vector<double> slowdowns;
  double saved = 0.0;
  double reference = 0.0;
  const auto start = Clock::now();
  for (std::size_t op = 0; op < sets || seconds_since(start) < a.seconds; ++op) {
    const std::size_t set = op % sets;
    const double speed_before = host_speed(kJobs + 1);
    const OpOutput o = workload.op(nullptr, op, set, kJobs);
    const double host_scale = 0.5 * (speed_before + host_speed(kJobs + 1)) / kNominalChunksPerS;
    std::string error = book.check(set, o);
    if (error.empty() && set == 0) error = against_record(a.workload, a.seed, o);
    tally.add("op " + std::to_string(op), error);
    if (!error.empty()) continue;
    rates.push_back(o.nodes / (o.timed_s * host_scale));
    setups.push_back(o.setup_s * host_scale);
    if (op < sets) {
      slowdowns.insert(slowdowns.end(), o.slowdowns_pct.begin(), o.slowdowns_pct.end());
      saved += o.saved;
      reference += o.reference;
    }
  }
  if (rates.empty() || slowdowns.empty()) throw std::runtime_error("no operation succeeded");
  sheet.set("nodes_per_s", median(rates), "1/s");
  sheet.set("setup_s", median(setups), "s");
  sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.set("energy_saved_pct", 100.0 * saved / reference, "pct");
  sheet.set("slowdown_p95_pct", quantile(slowdowns, 0.95), "pct");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.print_digests) {
      for (const std::string& name : workload_names()) {
        for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
          const OpOutput o = make_workload(name, seed)->op(nullptr, 0, 0, kJobs);
          std::cout << "{\"" << name << "\", " << seed << "ull, 0x" << hex64(o.digest)
                    << "ull},  // " << (o.error.empty() ? "ok" : o.error) << "\n";
        }
      }
      return 0;
    }
    std::unique_ptr<Workload> workload = make_workload(a.workload, a.seed);
    magus::common::set_default_jobs(kJobs);

    // The recorded-digest gate; it also lets caches fill and lazy set-up
    // (policy registry, presets) finish before anything is timed.
    OpTally tally;
    for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      const OpOutput o = make_workload(a.workload, seed)->op(nullptr, 0, 0, kJobs);
      std::string error = against_record(a.workload, seed, o);
      if (error.empty() && recorded_digest(a.workload, seed) == 0) error = "no recorded digest";
      tally.add("gate seed " + std::to_string(seed), error);
    }

    MetricSheet sheet;
    if (a.trace) {
      measure_layers(*workload, a.seconds, tally, sheet, a.trace_out);
    } else {
      measure_end_to_end(*workload, a, tally, sheet);
      sheet.set("success_frac",
                static_cast<double>(tally.attempted - tally.failed) /
                    static_cast<double>(tally.attempted),
                "frac");
    }
    std::cout << sheet.to_json(tally.failed == 0, tally.attempted, tally.failed) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
