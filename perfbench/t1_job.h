#ifndef TITANT_PERFBENCH_T1_JOB_H_
#define TITANT_PERFBENCH_T1_JOB_H_

// The T+1 daily job (§3–§4.3, Fig. 3) as the benchmark times it: load the
// day's transaction log into MaxCompute and run the label-feed SQL job,
// build the transaction network and city stats, learn DeepWalk, build the
// training matrix, fit the GBDT, upload the daily artifacts and flush the
// store, and hand the model to serving. Every workload runs it: the score
// workloads in set-up (it trains the model they serve), t1_daily in its
// timed window.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "core/pipeline.h"
#include "datagen/world.h"
#include "kvstore/store.h"
#include "maxcompute/odps.h"
#include "ml/model.h"
#include "trace.h"
#include "txn/window.h"

namespace perfbench {

/// Seed of the job's training randomness (walks, word2vec, GBDT
/// subsampling). Fixed, like the data set, so t1_auc is one exact number
/// per thread setting: any change to it is a change in the code.
inline constexpr uint64_t kTrainingSeed = 2019;
inline constexpr int kWalksPerNode = 20;

/// Wall time of each timed step, in seconds, plus the job's counters.
struct T1Steps {
  double maxcompute_s = 0.0;  // Table create + label-feed SQL job.
  double network_s = 0.0;     // Prepare(kBasic).
  double deepwalk_s = 0.0;    // Prepare(kBasicDW).
  double extract_s = 0.0;     // BuildMatrix over the training rows.
  double fit_s = 0.0;         // Model::Train.
  double upload_s = 0.0;      // UploadDailyArtifacts + Flush.
  double load_s = 0.0;        // Model hand-off to serving.
  double job_s = 0.0;         // All of the above, end to end.
  double cpu_s = 0.0;         // Process CPU seconds over the job.
  uint64_t rows_scanned = 0;  // MaxCompute SQL source rows.
};

struct T1Output {
  std::unique_ptr<titant::core::OfflineTrainer> trainer;
  std::unique_ptr<titant::ml::Model> model;
  std::string blob;
  T1Steps steps;
};

/// Runs the job for `window` of `world` into `store` (the daily upload
/// lands under `version`); `load_model` installs the serialized model.
/// Random walks, the feature matrix, the GBDT and the upload pool use
/// `threads`; word2vec stays single-threaded so the embeddings (and the
/// AUC) repeat. `world` and `window` must outlive the returned trainer.
titant::StatusOr<T1Output> RunT1Job(
    const titant::datagen::World& world, const titant::txn::DatasetWindow& window,
    titant::maxcompute::MaxCompute* mc, titant::kvstore::AliHBase* store, int threads,
    uint64_t version,
    const std::function<titant::Status(const std::string& blob, uint64_t version)>& load_model,
    SpanBuffer* trace);

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_T1_JOB_H_
