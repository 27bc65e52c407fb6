// Ablation: what does Algorithm 2 (high-frequency detection) buy?
//
// Run MAGUS with the detector enabled vs disabled (prediction-only) on the
// fluctuation-heavy workloads. Without the detector the runtime chases every
// oscillation: each chased transition eats a reaction lag at the uncore
// floor, so performance loss grows while power savings barely improve --
// the paper's stated rationale for section 3.2.

#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace magus;
  bench::banner("Ablation -- Algorithm 2 (high-frequency detection) on/off",
                "design-choice ablation; extends paper section 6.2");

  common::TextTable table({"app", "detector", "perf loss (%)", "cpu pwr saving (%)",
                           "energy saving (%)"});
  common::CsvWriter csv(bench::out_dir() + "/ablation_high_freq.csv");
  csv.write_row({"app", "detector", "perf_loss_pct", "cpu_power_saving_pct",
                 "energy_saving_pct"});

  exp::RepeatSpec reps;
  reps.repetitions = 5;

  for (const std::string app : {"srad", "gromacs", "fdtd2d", "unet"}) {
    const auto program = wl::make_workload(app);
    std::vector<exp::Arm> arms{{"default", {}}};
    for (const bool detector : {true, false}) {
      exp::RunOptions opts;
      opts.magus.high_freq_detection_enabled = detector;
      arms.push_back({"magus", opts});
    }
    const auto agg = exp::run_repeated(sim::intel_a100(), program, arms, reps);
    for (std::size_t i = 1; i < arms.size(); ++i) {
      const bool detector = arms[i].options.magus.high_freq_detection_enabled;
      const auto cmp = exp::compare(agg[i], agg[0]);
      table.add_row({app, detector ? "on" : "off",
                     common::TextTable::num(cmp.perf_loss_pct),
                     common::TextTable::num(cmp.cpu_power_saving_pct),
                     common::TextTable::num(cmp.energy_saving_pct)});
      csv.write_row({app, detector ? "on" : "off",
                     common::TextTable::num(cmp.perf_loss_pct, 4),
                     common::TextTable::num(cmp.cpu_power_saving_pct, 4),
                     common::TextTable::num(cmp.energy_saving_pct, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: on SRAD-like oscillation the detector trades a\n"
               "little power for a visibly smaller performance loss; on steady\n"
               "burst trains (unet) both variants coincide.\n"
            << "CSV: " << bench::out_dir() << "/ablation_high_freq.csv\n";
  return 0;
}
