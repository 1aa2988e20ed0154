// End-to-end integration: the full TitAnt loop on a small world —
// MaxCompute holds the raw records and extracts labels via SQL, the
// offline trainer learns embeddings + GBDT, artifacts flow to Ali-HBase
// and the Model Server, and the served scores separate fraud.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/experiment.h"
#include "datagen/world.h"
#include "maxcompute/odps.h"
#include "ml/metrics.h"
#include "serving/feature_store.h"
#include "serving/model_server.h"
#include "txn/window.h"

namespace titant {
namespace {

maxcompute::Table RecordsToTable(const txn::TransactionLog& log) {
  maxcompute::Table table{maxcompute::Schema({
      {"txn_id", maxcompute::ValueType::kInt},
      {"day", maxcompute::ValueType::kInt},
      {"from_user", maxcompute::ValueType::kInt},
      {"to_user", maxcompute::ValueType::kInt},
      {"amount", maxcompute::ValueType::kDouble},
      {"trans_city", maxcompute::ValueType::kInt},
      {"is_fraud", maxcompute::ValueType::kBool},
  })};
  for (const auto& rec : log.records) {
    EXPECT_TRUE(table
                    .Append({maxcompute::Value(static_cast<int64_t>(rec.txn_id)),
                             maxcompute::Value(static_cast<int64_t>(rec.day)),
                             maxcompute::Value(static_cast<int64_t>(rec.from_user)),
                             maxcompute::Value(static_cast<int64_t>(rec.to_user)),
                             maxcompute::Value(rec.amount),
                             maxcompute::Value(static_cast<int64_t>(rec.trans_city)),
                             maxcompute::Value(rec.is_fraud)})
                    .ok());
  }
  return table;
}

TEST(IntegrationTest, FullTitAntLoop) {
  // 1. The world (the Alipay transaction stream stand-in).
  datagen::WorldOptions world_options;
  world_options.num_users = 1600;
  world_options.num_days = 112;
  world_options.first_day = -104;
  world_options.seed = 2024;
  auto world = datagen::GenerateWorld(world_options);
  ASSERT_TRUE(world.ok());
  auto windows = txn::SliceWeek(world->log, 0, 1);
  ASSERT_TRUE(windows.ok());
  const txn::DatasetWindow& window = (*windows)[0];

  // 2. Offline storage and label/feature batch jobs on MaxCompute.
  maxcompute::MaxComputeOptions mc_options;
  mc_options.pangu_dir = "/tmp/titant_integration_pangu";
  std::filesystem::remove_all(mc_options.pangu_dir);
  auto mc = maxcompute::MaxCompute::Open(mc_options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE((*mc)->CreateTable("txn_log", RecordsToTable(world->log)).ok());

  // A daily-report SQL job: per-day fraud volume over the training window.
  ASSERT_TRUE((*mc)
                  ->SubmitSqlJob(
                      "SELECT day, COUNT(*) AS n, SUM(amount) AS volume FROM txn_log "
                      "WHERE is_fraud AND day >= -14 AND day < 0 GROUP BY day",
                      "daily_fraud")
                  .ok());
  const auto report = (*mc)->GetTable("daily_fraud");
  ASSERT_TRUE(report.ok());
  EXPECT_GT((*report)->num_rows(), 5u);  // Fraud on most training days.

  // Cross-check one aggregate against the raw log.
  int64_t sql_total = 0;
  for (std::size_t r = 0; r < (*report)->num_rows(); ++r) {
    sql_total += (*report)->row(r)[1].AsInt();
  }
  int64_t raw_total = 0;
  for (const auto& rec : world->log.records) {
    raw_total += rec.is_fraud && rec.day >= -14 && rec.day < 0;
  }
  EXPECT_EQ(sql_total, raw_total);

  // 3. Offline training (network -> DW embeddings -> GBDT).
  core::PipelineOptions pipeline;
  pipeline.walks_per_node = 20;
  pipeline.gbdt.num_trees = 150;
  core::OfflineTrainer trainer(world->log, window, pipeline);
  ASSERT_TRUE(trainer.Prepare(core::FeatureSet::kBasicDW).ok());
  auto train = trainer.BuildMatrix(window.train_records, core::FeatureSet::kBasicDW);
  ASSERT_TRUE(train.ok());
  auto model = core::MakeModel(core::ModelKind::kGbdt, pipeline);
  ASSERT_TRUE(model->Train(*train).ok());

  // Offline evaluation on the test day must beat chance comfortably.
  auto test = trainer.BuildMatrix(window.test_records, core::FeatureSet::kBasicDW);
  ASSERT_TRUE(test.ok());
  auto scores = model->ScoreAll(*test);
  ASSERT_TRUE(scores.ok());
  std::size_t positives = 0;
  for (uint8_t y : test->labels()) positives += y;
  if (positives >= 5) {
    auto auc = ml::RocAuc(*scores, test->labels());
    ASSERT_TRUE(auc.ok());
    EXPECT_GT(*auc, 0.8);
  }

  // 4. Upload the daily artifacts to the online store; serve.
  auto store_options = serving::FeatureTableOptions();
  store_options.durable = true;
  store_options.dir = "/tmp/titant_integration_hbase";
  std::filesystem::remove_all(store_options.dir);
  auto store = kvstore::AliHBase::Open(store_options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(serving::UploadDailyArtifacts(store->get(), world->log, trainer.extractor(),
                                            *trainer.dw_embeddings(), window.spec.test_day,
                                            20170410, 50)
                  .ok());
  serving::ModelServer server(store->get(), serving::ModelServerOptions());
  ASSERT_TRUE(server.LoadModel(ml::SerializeModel(*model), 20170410).ok());

  int served = 0;
  int interrupted_fraud = 0, interrupted_benign = 0;
  for (std::size_t idx : window.test_records) {
    const auto& rec = world->log.records[idx];
    const auto verdict = server.Score(serving::RequestOf(rec));
    ASSERT_TRUE(verdict.ok());
    ++served;
    if (verdict->interrupt) {
      (rec.is_fraud ? interrupted_fraud : interrupted_benign) += 1;
    }
  }
  EXPECT_EQ(served, static_cast<int>(window.test_records.size()));
  // Interruptions, when they fire at the 0.9 threshold, must hit fraud
  // more often than benign traffic.
  if (interrupted_fraud + interrupted_benign > 3) {
    EXPECT_GT(interrupted_fraud, interrupted_benign);
  }

  // 5. Serving latency is well under the paper's milliseconds budget.
  EXPECT_LT(server.LatencySnapshot().P99(), 50'000.0);
}

}  // namespace
}  // namespace titant
