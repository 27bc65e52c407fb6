// Ablation: the derivative window length L (Algorithm 1).
//
// The paper leaves direv_length unspecified; DESIGN.md argues L must be
// short for Algorithm 2 to distinguish isolated bursts from genuine
// fluctuation. This bench measures it: as L grows, burst edges linger in
// the window, every workload trips the high-frequency lock, and savings
// collapse toward zero.

#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace magus;
  bench::banner("Ablation -- derivative window length L (Algorithm 1)",
                "justifies the L=2 interpretation documented in DESIGN.md");

  common::TextTable table({"L", "app", "perf loss (%)", "cpu pwr saving (%)",
                           "energy saving (%)"});
  common::CsvWriter csv(bench::out_dir() + "/ablation_direv_length.csv");
  csv.write_row({"L", "app", "perf_loss_pct", "cpu_power_saving_pct",
                 "energy_saving_pct"});

  exp::RepeatSpec reps;
  reps.repetitions = 3;

  // One call per app: the default arm, then one MAGUS arm per window length.
  const std::vector<int> lengths{2, 3, 5, 10};
  const std::vector<std::string> apps{"unet", "kmeans", "lammps"};
  std::vector<std::vector<exp::AggregateResult>> by_app;
  for (const std::string& app : apps) {
    std::vector<exp::Arm> arms{{"default", {}}};
    for (const int L : lengths) {
      exp::RunOptions opts;
      opts.magus.direv_length = L;
      arms.push_back({"magus", opts});
    }
    by_app.push_back(exp::run_repeated(sim::intel_a100(), wl::make_workload(app), arms, reps));
  }

  for (std::size_t l = 0; l < lengths.size(); ++l) {
    const int L = lengths[l];
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const std::string& app = apps[a];
      const auto cmp = exp::compare(by_app[a][l + 1], by_app[a][0]);
      table.add_row({std::to_string(L), app, common::TextTable::num(cmp.perf_loss_pct),
                     common::TextTable::num(cmp.cpu_power_saving_pct),
                     common::TextTable::num(cmp.energy_saving_pct)});
      csv.write_row({std::to_string(L), app,
                     common::TextTable::num(cmp.perf_loss_pct, 4),
                     common::TextTable::num(cmp.cpu_power_saving_pct, 4),
                     common::TextTable::num(cmp.energy_saving_pct, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: savings are highest at L=2 and degrade as the\n"
               "window lengthens (edge clusters trip the high-frequency lock and\n"
               "pin the uncore at max).\n"
            << "CSV: " << bench::out_dir() << "/ablation_direv_length.csv\n";
  return 0;
}
