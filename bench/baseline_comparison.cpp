// Three-way runtime comparison (extends Fig. 4a): MAGUS vs UPS vs a
// DUF-style bandwidth-utilisation controller on representative workloads.
// DUF shares MAGUS's single-counter cost but lacks trend prediction and
// high-frequency detection: it saves less on bursty workloads (late, gradual
// descent) and chases oscillation on SRAD-like ones.

#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace magus;
  bench::banner("Baseline comparison -- MAGUS vs UPS vs DUF, Intel+A100",
                "extension of Fig. 4a with the related-work DUF approach");

  exp::RepeatSpec reps;
  reps.repetitions = 5;

  common::TextTable table({"app", "policy", "perf loss (%)", "cpu pwr saving (%)",
                           "energy saving (%)"});
  common::CsvWriter csv(bench::out_dir() + "/baseline_comparison.csv");
  csv.write_row({"app", "policy", "perf_loss_pct", "cpu_power_saving_pct",
                 "energy_saving_pct"});

  for (const std::string app : {"unet", "bfs", "srad", "laghos", "kmeans", "gromacs"}) {
    const auto program = wl::make_workload(app);
    const std::vector<std::string> policies{"magus", "ups", "duf"};
    std::vector<exp::Arm> arms{{"default", {}}};
    for (const std::string& policy : policies) arms.push_back({policy, {}});
    const auto agg = exp::run_repeated(sim::intel_a100(), program, arms, reps);
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const std::string& policy = policies[i];
      const auto cmp = exp::compare(agg[i + 1], agg[0]);
      table.add_row({app, policy, common::TextTable::num(cmp.perf_loss_pct),
                     common::TextTable::num(cmp.cpu_power_saving_pct),
                     common::TextTable::num(cmp.energy_saving_pct)});
      csv.write_row({app, policy, common::TextTable::num(cmp.perf_loss_pct, 4),
                     common::TextTable::num(cmp.cpu_power_saving_pct, 4),
                     common::TextTable::num(cmp.energy_saving_pct, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: MAGUS >= DUF >= UPS on energy for burst-train apps\n"
               "(DUF's descent is gradual and unpredictive, so it arrives late at\n"
               "both edges); on oscillation-dominated SRAD, DUF's high-water jump\n"
               "behaves like an implicit lock and roughly matches MAGUS.\n"
            << "CSV: " << bench::out_dir() << "/baseline_comparison.csv\n";
  return 0;
}
