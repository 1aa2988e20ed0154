// Reproduces Figure 10: training time versus the number of machines
// (4/10/20/40, half servers and half workers) for DeepWalk (minutes) and
// GBDT (seconds) on the paper-scale workloads, via the calibrated
// discrete-event cluster simulation (the figure models clusters of up to
// 40 ten-thread machines, which one host cannot provide; see DESIGN.md §2
// for the substitution).

#include <cstdio>

#include "bench/bench_util.h"
#include "ps/sim.h"

int main() {
  const int machine_counts[] = {4, 10, 20, 40};

  std::printf("Figure 10: time cost over the numbers of machines\n");
  std::printf("%-10s %22s %22s\n", "machines", "DW time (minutes)", "GBDT time (seconds)");

  titant::ps::DwWorkload dw;
  titant::ps::GbdtWorkload gbdt;
  for (int m : machine_counts) {
    const auto dw_result = titant::benchutil::CheckOk(titant::ps::SimulateDeepWalk(dw, m));
    const auto gbdt_result = titant::benchutil::CheckOk(titant::ps::SimulateGbdt(gbdt, m));
    std::printf("%-10d %22.1f %22.1f\n", m, dw_result.seconds / 60.0, gbdt_result.seconds);
  }

  std::printf(
      "\nnote: DW keeps improving with machines (asynchronous, volume-bound);\n"
      "GBDT flattens from 20 to 40 machines (synchronized level rounds:\n"
      "dispatch overhead + stragglers do not shrink with more machines).\n");
  return 0;
}
