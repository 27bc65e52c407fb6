// Multi-GPU training scenario (the paper's Fig. 4c motivation): run the
// same distributed-training workload on a 1-GPU and a 4-GPU node and watch
// the energy economics change -- the idle power of four A100-80GB boards
// (~200 W) dilutes the relative value of CPU-side savings, even though the
// absolute CPU power saved grows.
//
// Demonstrates: system presets, wl::scale_for_gpus, the repetition protocol,
// and exp::compare.

#include <iostream>

#include "magus/common/table.hpp"
#include "magus/exp/repeat.hpp"
#include "magus/wl/catalog.hpp"

int main() {
  using namespace magus;

  exp::RepeatSpec reps;
  reps.repetitions = 5;

  common::TextTable table({"node", "app", "policy", "runtime (s)", "CPU power (W)",
                           "GPU power (W)", "total energy (kJ)", "energy saving (%)"});

  for (const std::string app : {"resnet50", "gromacs"}) {
    for (int gpus : {1, 4}) {
      const sim::SystemSpec system = gpus == 1 ? sim::intel_a100() : sim::intel_4a100();
      const wl::PhaseProgram workload =
          wl::scale_for_gpus(wl::make_workload(app), gpus);

      const auto agg =
          exp::run_repeated(system, workload, {{"default", {}}, {"magus", {}}}, reps);
      const exp::AggregateResult& base = agg[0];
      const exp::AggregateResult& magus = agg[1];
      const auto cmp = exp::compare(magus, base);

      auto row = [&](const char* policy, const exp::AggregateResult& r,
                     double saving) {
        table.add_row({system.name, app, policy, common::TextTable::num(r.runtime.value(), 1),
                       common::TextTable::num(r.avg_cpu_power.value(), 1),
                       common::TextTable::num(r.avg_gpu_power.value(), 1),
                       common::TextTable::num(r.total_energy().value() / 1000.0),
                       common::TextTable::num(saving)});
      };
      row("default", base, 0.0);
      row("magus", magus, cmp.energy_saving_pct);
    }
  }
  table.print(std::cout);

  std::cout << "\nTakeaway (paper section 6.1): scaling from one to four GPUs keeps\n"
               "MAGUS's CPU power savings but shrinks the *relative* energy saving,\n"
               "because the multi-GPU idle floor is a fixed cost in the denominator.\n";
  return 0;
}
