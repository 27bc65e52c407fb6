#pragma once
// Algorithm 3: Memory-throughput-based Dynamic uncore Frequency Scaling.
//
// Pure decision logic, decoupled from hardware access: feed it throughput
// samples, it returns uncore max-frequency targets. Faithful to the paper's
// pseudocode, including the quirks:
//   * kWarmupCycles (10) of warm-up: samples are collected, uncore stays at
//     max, uncore_tune_ls starts as kTuneWindow (10) zeros;
//   * high-frequency detection runs BEFORE this round's prediction and uses
//     the tune-event history only;
//   * during high-frequency status the prediction still runs and its
//     would-be tuning events are still logged (they inform future
//     detection), but the executed decision is "max";
//   * a tune event is logged when the prediction would CHANGE the uncore
//     frequency ("whether a potential uncore frequency scaling event should
//     occur", section 3.2) -- repeated increase predictions while already at
//     max are not scaling events;
//   * when high-frequency status clears, the detection phase "approves and
//     executes the temporary decision made in the prediction phase"
//     (section 3.3): the pending prediction-phase target is applied.

#include <optional>
#include <vector>

#include "magus/common/fixed_window.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/config.hpp"
#include "magus/core/high_freq.hpp"
#include "magus/core/predictor.hpp"

namespace magus::core {

/// What the controller decided in one round (for logs, tests, figures).
struct DecisionRecord {
  common::Seconds t{0.0};
  common::Mbps throughput{0.0};
  common::Mbps derivative{0.0};
  Trend prediction = Trend::kStable;
  bool high_freq = false;
  bool warmup = false;
  /// Frequency target issued this round; empty when unchanged.
  std::optional<common::Ghz> target;
};

class MdfsController {
 public:
  MdfsController(const MagusConfig& cfg, common::Ghz uncore_min, common::Ghz uncore_max);

  /// Feed one throughput sample observed at time `t`.
  /// Returns the uncore max-frequency to program, or nullopt to leave it.
  std::optional<common::Ghz> on_throughput(common::Seconds t, common::Mbps throughput);

  [[nodiscard]] bool high_freq_status() const noexcept { return high_freq_status_; }
  [[nodiscard]] bool warmed_up() const noexcept { return samples_seen_ >= kWarmupCycles; }
  [[nodiscard]] const std::vector<DecisionRecord>& log() const noexcept { return log_; }

  /// Last issued target (max at start).
  [[nodiscard]] common::Ghz current_target() const noexcept { return current_target_; }

  /// The prediction phase's temporary decision -- the frequency MAGUS would
  /// run at if no high-frequency override were active.
  [[nodiscard]] common::Ghz temporary_target() const noexcept { return temporary_target_; }

 private:
  MagusConfig cfg_;
  common::Ghz min_;
  common::Ghz max_;
  common::FixedWindow<double> mem_window_;
  common::FixedWindow<int> tune_events_;
  bool high_freq_status_ = false;
  int samples_seen_ = 0;
  common::Ghz current_target_;
  common::Ghz temporary_target_;
  std::vector<DecisionRecord> log_;
};

}  // namespace magus::core
