// Two smaller ablations in one binary:
//
// 1. Monitoring period (paper 6.4): shorter periods react faster but burn
//    more monitor power; longer ones miss bursts. The paper picked 0.2 s.
// 2. Portability (paper 6.6): the identical MAGUS logic on an AMD
//    EPYC+MI250X-style node whose "uncore" is the Infinity Fabric domain
//    with a different ladder (1.2-2.0 GHz) -- nothing in core/ changes.

#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace magus;
  bench::banner("Ablation -- monitoring period + cross-vendor portability",
                "paper sections 6.4 (interval choice) and 6.6 (AMD discussion)");

  exp::RepeatSpec reps;
  reps.repetitions = 3;

  // --- Part 1: monitoring period sweep on UNet ---------------------------
  std::cout << "\n[1] monitoring period sweep (unet, intel_a100)\n";
  common::TextTable period_table({"period (s)", "perf loss (%)", "cpu pwr saving (%)",
                                  "energy saving (%)", "invocations"});
  common::CsvWriter csv(bench::out_dir() + "/ablation_period.csv");
  csv.write_row({"period_s", "perf_loss_pct", "cpu_power_saving_pct",
                 "energy_saving_pct"});
  const auto unet = wl::make_workload("unet");
  const std::vector<double> periods{0.05, 0.1, 0.2, 0.5, 1.0};
  std::vector<exp::Arm> arms{{"default", {}}};
  for (const double period : periods) {
    exp::RunOptions opts;
    opts.magus.period = magus::common::Seconds(period);
    arms.push_back({"magus", opts});
  }
  const auto agg = exp::run_repeated(sim::intel_a100(), unet, arms, reps);
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const double period = periods[i];
    const auto cmp = exp::compare(agg[i + 1], agg[0]);
    const auto one = exp::run_policy(sim::intel_a100(), unet, "magus",
                                     arms[i + 1].options);
    period_table.add_row({common::TextTable::num(period),
                          common::TextTable::num(cmp.perf_loss_pct),
                          common::TextTable::num(cmp.cpu_power_saving_pct),
                          common::TextTable::num(cmp.energy_saving_pct),
                          std::to_string(one.result.invocations)});
    csv.write_row_numeric({period, cmp.perf_loss_pct, cmp.cpu_power_saving_pct,
                           cmp.energy_saving_pct});
  }
  period_table.print(std::cout);
  std::cout << "Expected shape: a shallow optimum around the paper's 0.2 s -- long\n"
               "periods miss burst edges, very short ones add monitor energy.\n";

  // --- Part 2: AMD portability -------------------------------------------
  std::cout << "\n[2] portability: same runtime on amd_mi250 (FCLK 1.2-2.0 GHz)\n";
  common::TextTable amd_table({"app", "magus loss (%)", "magus pwr saving (%)",
                               "magus energy saving (%)"});
  for (const std::string app : {"unet", "lammps", "bfs", "srad"}) {
    exp::EvalSpec spec;
    spec.repeat.repetitions = 3;
    const auto ev = exp::evaluate_app(sim::amd_mi250(), app, spec);
    amd_table.add_row({app, common::TextTable::num(ev.magus_vs_base.perf_loss_pct),
                       common::TextTable::num(ev.magus_vs_base.cpu_power_saving_pct),
                       common::TextTable::num(ev.magus_vs_base.energy_saving_pct)});
  }
  amd_table.print(std::cout);
  std::cout << "MAGUS's decision logic is untouched; only the SystemSpec (ladder,\n"
               "power curve, counter latencies) changed -- the paper's 6.6 claim.\n";
  return 0;
}
