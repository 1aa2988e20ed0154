#ifndef TITANT_PERFBENCH_WORKLOADS_H_
#define TITANT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "serving/request.h"
#include "t1_job.h"
#include "trace.h"
#include "txn/types.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // Scratch directory for stores, logs and spans.
  int nproc = 4;
};

/// Set-ups per score-workload run; setup_s and t1_job_s are their medians.
inline constexpr int kSetupRepeats = 5;

/// score_mem (disk = false) and score_disk_ingest (disk = true).
void RunScoreWorkload(const RunArgs& args, bool disk, Report* report, Tracer* tracer);

/// t1_daily.
void RunT1Daily(const RunArgs& args, Report* report, Tracer* tracer);

// Process-wide counters.
uint64_t ContextSwitches();  // Voluntary + involuntary, whole process.
double PeakRssMb();

/// Reports the T+1 job's per-step metrics (medians over `jobs`).
void ReportT1Steps(const std::vector<T1Steps>& jobs, Report* report);

/// The scoring request for one logged transfer.
titant::serving::TransferRequest RequestFor(const titant::txn::TransactionRecord& rec);

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_WORKLOADS_H_
