#include "magus/core/mdfs.hpp"

#include "magus/common/contracts.hpp"

namespace magus::core {

MdfsController::MdfsController(const MagusConfig& cfg, common::Ghz uncore_min,
                               common::Ghz uncore_max)
    : cfg_(cfg),
      min_(uncore_min),
      max_(uncore_max),
      mem_window_(static_cast<std::size_t>(cfg.direv_length)),
      tune_events_(static_cast<std::size_t>(kTuneWindow), 0),
      current_target_(uncore_max),
      temporary_target_(uncore_max) {
  cfg_.validate();
  MAGUS_EXPECT(min_ > common::Ghz(0.0));
  if (min_ >= max_) {
    throw common::ConfigError("MdfsController: min must be below max");
  }
}

std::optional<common::Ghz> MdfsController::on_throughput(common::Seconds t,
                                                         common::Mbps throughput) {
  MAGUS_EXPECT(throughput >= common::Mbps(0.0));
  mem_window_.push(throughput.value());
  ++samples_seen_;

  DecisionRecord rec;
  rec.t = t;
  rec.throughput = throughput;
  rec.derivative = throughput_derivative(mem_window_, cfg_.direv_length);

  // Warm-up: collect history only; the uncore was set to max at start.
  if (samples_seen_ <= kWarmupCycles) {
    rec.warmup = true;
    log_.push_back(rec);
    return std::nullopt;
  }

  std::optional<common::Ghz> executed;

  // Algorithm 3 lines 9-15: detection first, over the existing tune history.
  const bool was_high_freq = high_freq_status_;
  if (cfg_.high_freq_detection_enabled &&
      detect_high_frequency(tune_events_, cfg_.high_freq_threshold)) {
    high_freq_status_ = true;
    executed = max_;  // pinned at max every round while status holds
  } else {
    high_freq_status_ = false;
    if (was_high_freq) {
      // Leaving high-frequency status: the detection phase approves and
      // executes the prediction phase's pending temporary decision (3.3).
      executed = temporary_target_;
    }
  }
  rec.high_freq = high_freq_status_;

  // Lines 16-30: prediction. A tune event is logged when the prediction
  // would *change* the uncore frequency; the temporary decision advances
  // even while the high-frequency override suppresses execution.
  rec.prediction =
      predict_trend(mem_window_, cfg_.direv_length, cfg_.inc_threshold, cfg_.dec_threshold);
  switch (rec.prediction) {
    case Trend::kIncrease:
      tune_events_.push(temporary_target_ != max_ ? 1 : 0);
      temporary_target_ = max_;
      if (!high_freq_status_) executed = max_;
      break;
    case Trend::kDecrease:
      tune_events_.push(temporary_target_ != min_ ? 1 : 0);
      temporary_target_ = min_;
      if (!high_freq_status_) executed = min_;
      break;
    case Trend::kStable:
      tune_events_.push(0);
      break;
  }

  if (executed) current_target_ = *executed;
  rec.target = executed;
  log_.push_back(rec);
  // The executed target can never escape the ladder the controller was
  // constructed with -- the invariant MSR 0x620 writes depend on.
  MAGUS_ENSURE(current_target_ >= min_ && current_target_ <= max_);
  return executed;
}

}  // namespace magus::core
