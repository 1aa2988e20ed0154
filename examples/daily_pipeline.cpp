// The full "T+1" production loop of Fig. 3 over three consecutive days:
// transaction logs land in MaxCompute, SQL jobs extract labels/stats,
// offline training refreshes embeddings + model, the artifacts upload to
// Ali-HBase under a new date version, and the Model Server hot-swaps the
// model — all while historical versions stay queryable in the store.

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "datagen/world.h"
#include "graph/random_walk.h"
#include "maxcompute/odps.h"
#include "serving/feature_store.h"
#include "serving/model_server.h"
#include "txn/window.h"

namespace {

template <typename T>
T OrDie(titant::StatusOr<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

void OrDie(const titant::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

/// Runs one stage and prints its wall and process-CPU seconds. CPU time
/// tells a stage that got slower from one that was descheduled (CPU well
/// below wall) or ran on several cores (CPU above wall).
void Timed(const char* stage, const std::function<void()>& body) {
  titant::Stopwatch wall;
  const std::clock_t cpu = std::clock();
  body();
  std::printf("  %-22s wall %7.3f s   cpu %7.3f s\n", stage, wall.ElapsedSeconds(),
              static_cast<double>(std::clock() - cpu) / CLOCKS_PER_SEC);
}

}  // namespace

int main() {
  using namespace titant;

  datagen::WorldOptions world_options;
  world_options.num_users = 1800;
  world_options.num_days = 115;  // Covers test days 0, 1, 2.
  world_options.first_day = -104;
  const datagen::World world = OrDie(datagen::GenerateWorld(world_options));

  // MaxCompute holds the raw logs; a SQL job summarizes each day's fraud
  // reports (the label feed).
  maxcompute::MaxComputeOptions mc_options;
  mc_options.pangu_dir = "/tmp/titant_example_pangu";
  std::filesystem::remove_all(mc_options.pangu_dir);
  auto mc = OrDie(maxcompute::MaxCompute::Open(mc_options));
  {
    maxcompute::Table logs{maxcompute::Schema({{"day", maxcompute::ValueType::kInt},
                                               {"amount", maxcompute::ValueType::kDouble},
                                               {"is_fraud", maxcompute::ValueType::kBool}})};
    for (const auto& rec : world.log.records) {
      OrDie(logs.Append({maxcompute::Value(static_cast<int64_t>(rec.day)),
                         maxcompute::Value(rec.amount), maxcompute::Value(rec.is_fraud)}));
    }
    OrDie(mc->CreateTable("txn_log", std::move(logs)));
  }

  // One durable feature table; every day uploads under a fresh version.
  auto store_options = serving::FeatureTableOptions();
  store_options.durable = true;
  store_options.dir = "/tmp/titant_example_daily_hbase";
  std::filesystem::remove_all(store_options.dir);
  auto store = OrDie(kvstore::AliHBase::Open(store_options));
  serving::ModelServer server(store.get(), serving::ModelServerOptions());

  // Daily uploads fan out over a worker pool: user ranges are disjoint,
  // the store is lock-striped, so writers land on different shards.
  ThreadPool upload_pool(4);

  for (txn::Day test_day = 0; test_day < 3; ++test_day) {
    const uint64_t version = 20170410 + static_cast<uint64_t>(test_day);
    std::printf("=== day %s: offline training for model version %llu ===\n",
                txn::DayToDate(test_day).c_str(), static_cast<unsigned long long>(version));

    // Label feed via MaxCompute SQL.
    const maxcompute::Table* feed = nullptr;
    Timed("label feed", [&] {
      feed = OrDie(mc->SubmitSqlJob(
          "SELECT COUNT(*) AS reports, SUM(amount) AS exposure FROM txn_log "
          "WHERE is_fraud AND day >= " +
              std::to_string(test_day - 14) + " AND day < " + std::to_string(test_day),
          "label_feed"));
    });
    std::printf("  label feed: %lld fraud reports, %.0f yuan exposure in the window\n",
                static_cast<long long>(feed->row(0)[0].AsInt()),
                feed->row(0)[1].AsDouble());

    // Retrain on the sliding window.
    const auto windows = OrDie(txn::SliceWeek(world.log, test_day, 1));
    core::PipelineOptions pipeline;
    pipeline.walks_per_node = 40;  // Daily cadence: lighter sampling.
    core::OfflineTrainer trainer(world.log, windows[0], pipeline);
    Timed("Prepare(kBasicDW)", [&] { OrDie(trainer.Prepare(core::FeatureSet::kBasicDW)); });
    ml::DataMatrix train;
    Timed("BuildMatrix", [&] {
      train = OrDie(trainer.BuildMatrix(windows[0].train_records, core::FeatureSet::kBasicDW));
    });
    auto model = core::MakeModel(core::ModelKind::kGbdt, pipeline);
    Timed("Train (GBDT)", [&] { OrDie(model->Train(train)); });

    // On the first day, measure the offline pipeline's multi-thread
    // speedup: the same walk-corpus generation and GBDT fit, one worker vs
    // a small pool. Walk repetitions are independent tasks, and every GBDT
    // histogram adds its rows in the same order on any number of threads,
    // so the 4-thread fit must write the very same model bytes.
    if (test_day == 0) {
      const int offline_workers = 4;
      graph::RandomWalkOptions walk_opts;
      walk_opts.walk_length = pipeline.walk_length;
      walk_opts.walks_per_node = pipeline.walks_per_node;
      walk_opts.seed = 7;
      Stopwatch walk_serial_watch;
      const auto serial_corpus = OrDie(graph::GenerateWalks(*trainer.network(), walk_opts));
      const double walk_serial_ms = walk_serial_watch.ElapsedMillis();
      walk_opts.num_threads = offline_workers;
      Stopwatch walk_parallel_watch;
      const auto parallel_corpus = OrDie(graph::GenerateWalks(*trainer.network(), walk_opts));
      const double walk_parallel_ms = walk_parallel_watch.ElapsedMillis();
      std::printf(
          "  walk generation: %zu walks in %.1f ms on 1 thread, %.1f ms on %d "
          "(%.2fx speedup)\n",
          parallel_corpus.walks.size(), walk_serial_ms, walk_parallel_ms, offline_workers,
          walk_parallel_ms > 0.0 ? walk_serial_ms / walk_parallel_ms : 0.0);

      core::PipelineOptions gbdt_parallel = pipeline;
      gbdt_parallel.gbdt.num_threads = offline_workers;
      auto serial_model = core::MakeModel(core::ModelKind::kGbdt, pipeline);
      Stopwatch gbdt_serial_watch;
      OrDie(serial_model->Train(train));
      const double gbdt_serial_ms = gbdt_serial_watch.ElapsedMillis();
      auto parallel_model = core::MakeModel(core::ModelKind::kGbdt, gbdt_parallel);
      Stopwatch gbdt_parallel_watch;
      OrDie(parallel_model->Train(train));
      const double gbdt_parallel_ms = gbdt_parallel_watch.ElapsedMillis();
      const bool same_model =
          ml::SerializeModel(*serial_model) == ml::SerializeModel(*parallel_model);
      std::printf(
          "  gbdt train: %.1f ms on 1 thread, %.1f ms on %d (%.2fx speedup); models %s\n",
          gbdt_serial_ms, gbdt_parallel_ms, offline_workers,
          gbdt_parallel_ms > 0.0 ? gbdt_serial_ms / gbdt_parallel_ms : 0.0,
          same_model ? "byte-identical" : "DIFFER");
      if (!same_model) {
        std::fprintf(stderr, "error: the %d-thread GBDT differs from the 1-thread one\n",
                     offline_workers);
        return 1;
      }
    }

    // Upload artifacts under the new version; hot-swap the model. On the
    // first day, also time a sequential upload into a scratch store so the
    // parallel fan-out's wall-clock speedup is visible in the output.
    static double sequential_ms = 0.0;
    if (test_day == 0) {
      // Same durability as the real store, so the reference measures the
      // identical WAL + memtable work, just single-threaded.
      auto scratch_options = serving::FeatureTableOptions();
      scratch_options.durable = true;
      scratch_options.dir = "/tmp/titant_example_daily_scratch";
      std::filesystem::remove_all(scratch_options.dir);
      auto scratch = OrDie(kvstore::AliHBase::Open(std::move(scratch_options)));
      Stopwatch sequential_watch;
      OrDie(serving::UploadDailyArtifacts(scratch.get(), world.log, trainer.extractor(),
                                          *trainer.dw_embeddings(), test_day, version, 50));
      sequential_ms = sequential_watch.ElapsedMillis();
    }
    Stopwatch upload_watch;
    Timed("upload", [&] {
      OrDie(serving::UploadDailyArtifacts(store.get(), world.log, trainer.extractor(),
                                          *trainer.dw_embeddings(), test_day, version, 50,
                                          &upload_pool));
    });
    const double parallel_ms = upload_watch.ElapsedMillis();
    Timed("LoadModel", [&] { OrDie(server.LoadModel(ml::SerializeModel(*model), version)); });
    std::printf("  artifacts uploaded in %.1f ms across %zu upload workers", parallel_ms,
                upload_pool.num_threads());
    if (test_day == 0 && parallel_ms > 0.0) {
      std::printf(" (sequential reference: %.1f ms, %.2fx speedup)", sequential_ms,
                  sequential_ms / parallel_ms);
    }
    std::printf("; MS now serves version %llu\n", static_cast<unsigned long long>(version));

    // Serve the day.
    int interrupts = 0, frauds = 0;
    for (std::size_t idx : windows[0].test_records) {
      const auto& rec = world.log.records[idx];
      const auto verdict = OrDie(server.Score(serving::RequestOf(rec)));
      interrupts += verdict.interrupt;
      frauds += rec.is_fraud;
    }
    std::printf("  served %zu requests: %d interrupts, %d actual frauds in the stream\n",
                windows[0].test_records.size(), interrupts, frauds);
  }

  // Historical versions remain addressable in the store (HBase versioning).
  const auto old_snapshot = store->Get(serving::UserRowKey(1), serving::kFamilyBasic,
                                       serving::kQualSnapshot, 20170410);
  const auto new_snapshot =
      store->Get(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualSnapshot);
  std::printf("\nversioned store: day-1 snapshot %s, latest snapshot %s\n",
              old_snapshot.ok() ? "still readable" : "missing",
              new_snapshot.ok() ? "readable" : "missing");
  std::printf("latency across all three days: %s\n",
              server.LatencySnapshot().Summary().c_str());
  return 0;
}
