#include "t1_job.h"

#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "core/experiment.h"
#include "maxcompute/table.h"
#include "serving/feature_store.h"

namespace perfbench {

namespace {

using titant::Status;
using titant::StatusOr;
namespace core = titant::core;
namespace mc = titant::maxcompute;

/// Step 1: the raw log lands in MaxCompute and a SQL job summarizes the
/// fraud reports of the training window (the label feed).
Status LoadAndLabelFeed(const titant::datagen::World& world, const titant::txn::DatasetWindow& window,
                        mc::MaxCompute* compute, T1Steps* steps) {
  mc::Table logs{mc::Schema({{"day", mc::ValueType::kInt},
                             {"amount", mc::ValueType::kDouble},
                             {"is_fraud", mc::ValueType::kBool}})};
  for (const auto& rec : world.log.records) {
    TITANT_RETURN_IF_ERROR(logs.Append({mc::Value(static_cast<int64_t>(rec.day)),
                                        mc::Value(rec.amount), mc::Value(rec.is_fraud)}));
  }
  TITANT_RETURN_IF_ERROR(compute->CreateTable("txn_log", std::move(logs)));
  const uint64_t scanned_before = compute->sql_stats().rows_scanned;
  const std::string query =
      "SELECT COUNT(*) AS reports, SUM(amount) AS exposure FROM txn_log WHERE is_fraud AND day >= " +
      std::to_string(window.spec.train_begin()) + " AND day < " +
      std::to_string(window.spec.train_end());
  TITANT_RETURN_IF_ERROR(compute->SubmitSqlJob(query, "label_feed").status());
  TITANT_ASSIGN_OR_RETURN(const mc::Table* feed, compute->GetTable("label_feed"));
  if (feed->num_rows() != 1) return Status::Internal("label feed: expected one row");
  steps->rows_scanned = compute->sql_stats().rows_scanned - scanned_before;
  return Status::OK();
}

}  // namespace

StatusOr<T1Output> RunT1Job(
    const titant::datagen::World& world, const titant::txn::DatasetWindow& window,
    mc::MaxCompute* compute, titant::kvstore::AliHBase* store, int threads, uint64_t version,
    const std::function<Status(const std::string&, uint64_t)>& load_model, SpanBuffer* trace) {
  T1Output out;
  T1Steps& steps = out.steps;
  const double cpu_start = ProcessCpuSeconds();
  ScopedSpan job_span(trace, "t1.job");
  const int64_t job_start = NowNs();
  // Runs one step under its own span and records its wall time.
  auto step = [&](const char* name, double* seconds, const std::function<Status()>& body) {
    ScopedSpan span(trace, name, job_span.id());
    const int64_t start = NowNs();
    const Status status = body();
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    return status;
  };

  core::PipelineOptions pipeline;
  pipeline.walks_per_node = kWalksPerNode;
  pipeline.walk_threads = threads;
  pipeline.feature_threads = threads;
  pipeline.gbdt.num_threads = threads;
  pipeline.w2v_threads = 1;
  pipeline.seed = kTrainingSeed;
  out.trainer = std::make_unique<core::OfflineTrainer>(world.log, window, pipeline);
  out.model = core::MakeModel(core::ModelKind::kGbdt, pipeline);
  titant::ml::DataMatrix train;
  TITANT_RETURN_IF_ERROR(step("t1.maxcompute_load_and_label_feed", &steps.maxcompute_s,
                              [&] { return LoadAndLabelFeed(world, window, compute, &steps); }));
  TITANT_RETURN_IF_ERROR(step("t1.network_and_city_stats", &steps.network_s, [&] {
    return out.trainer->Prepare(core::FeatureSet::kBasic);
  }));
  TITANT_RETURN_IF_ERROR(step("t1.deepwalk", &steps.deepwalk_s, [&] {
    return out.trainer->Prepare(core::FeatureSet::kBasicDW);
  }));
  TITANT_RETURN_IF_ERROR(step("t1.build_matrix", &steps.extract_s, [&] {
    TITANT_ASSIGN_OR_RETURN(train, out.trainer->BuildMatrix(window.train_records,
                                                            core::FeatureSet::kBasicDW));
    return Status::OK();
  }));
  TITANT_RETURN_IF_ERROR(step("t1.gbdt_fit", &steps.fit_s, [&] { return out.model->Train(train); }));
  TITANT_RETURN_IF_ERROR(step("t1.upload_and_flush", &steps.upload_s, [&] {
    titant::ThreadPool pool(static_cast<std::size_t>(threads));
    TITANT_RETURN_IF_ERROR(titant::serving::UploadDailyArtifacts(
        store, world.log, out.trainer->extractor(), *out.trainer->dw_embeddings(),
        window.spec.test_day, version, 50, &pool));
    return store->Flush();
  }));
  TITANT_RETURN_IF_ERROR(step("t1.load_model", &steps.load_s, [&] {
    out.blob = titant::ml::SerializeModel(*out.model);
    return load_model(out.blob, version);
  }));
  steps.job_s = static_cast<double>(NowNs() - job_start) / 1e9;
  steps.cpu_s = ProcessCpuSeconds() - cpu_start;
  return out;
}

}  // namespace perfbench
