#ifndef TITANT_PS_SIM_H_
#define TITANT_PS_SIM_H_

#include <cstdint>

#include "common/statusor.h"

namespace titant::ps {

/// Hardware model of one production machine, calibrated to the commodity
/// cluster class the paper reports (20 machines x 10 threads train DW on
/// ~8M records in ~1.5h, §5.1). Fig. 10 scales a cluster of 4 to 40 such
/// machines, which one multi-core host cannot stand in for, so the
/// discrete-event simulation below executes the same PS schedules against
/// this cost model (see DESIGN.md §2).
struct MachineSpec {
  int threads = 10;                    // §5.1: "20 machines with 10 threads".
  double flops_per_thread = 2.0e9;     // Effective sustained flop rate.
  double nic_bytes_per_second = 1.25e8;  // ~1 Gbps full duplex per machine.
  double rpc_latency_seconds = 0.002;  // Per request/response pair.
  /// Per-round task dispatch overhead (Fuxi-style scheduling + fan-out)
  /// charged to synchronized rounds.
  double round_overhead_seconds = 0.3;
  /// Lognormal sigma of per-machine per-round speed jitter ("uneven
  /// machine traffic", §5.2) — the source of straggler cost at barriers.
  double straggler_sigma = 0.35;
};

/// The DW training job of Fig. 10 at the paper's scale.
struct DwWorkload {
  uint64_t num_nodes = 4'000'000;       // ~8M transaction records.
  int walks_per_node = 100;
  int walk_length = 50;
  int window = 5;
  int negatives = 5;
  int dim = 32;
  int epochs = 1;
  /// Walks per pull-train-push round on each worker.
  int batch_walks = 4096;
  /// Cost of one (center, context) skip-gram update, per thread, in
  /// microseconds — includes the PS gather/scatter overhead. Calibrated to
  /// the paper's own measurement (§5.1: ~8M records, 20 machines x 10
  /// threads, ~1.5 hours), which implies ~6us per pair.
  double pair_cost_us = 6.0;
};

/// The GBDT training job of Fig. 10.
struct GbdtWorkload {
  uint64_t num_rows = 300'000'000;  // Two weeks of labeled records.
  int num_features = 52;
  int num_trees = 400;
  int max_depth = 3;
  int max_bins = 64;
  double feature_subsample = 0.4;
  double row_subsample = 0.4;
  /// Histogram scan cost per (row, feature) in flops.
  double scan_flops = 9.6;
};

/// Result of one simulated run.
struct SimResult {
  double seconds = 0.0;
  double compute_seconds = 0.0;   // Aggregate busy time / workers.
  double network_seconds = 0.0;   // Aggregate NIC busy time / workers.
  uint64_t bytes_moved = 0;
};

/// Simulates distributed DeepWalk (asynchronous batch schedule: workers
/// independently pull -> train -> push; servers serve FCFS). Time falls
/// ~1/workers because neither compute nor communication synchronizes.
/// `machines` is split half servers, half workers (§5.2).
StatusOr<SimResult> SimulateDeepWalk(const DwWorkload& workload, int machines,
                                     const MachineSpec& spec = MachineSpec(),
                                     uint64_t seed = 42);

/// Simulates distributed GBDT (synchronous level-wise schedule: every tree
/// level is a barrier round of scan + histogram push + split broadcast).
/// Per-round dispatch overhead and straggler max-of-jitters do not shrink
/// with more machines, so the curve flattens between 20 and 40 machines —
/// Fig. 10's observation.
StatusOr<SimResult> SimulateGbdt(const GbdtWorkload& workload, int machines,
                                 const MachineSpec& spec = MachineSpec(),
                                 uint64_t seed = 42);

}  // namespace titant::ps

#endif  // TITANT_PS_SIM_H_
