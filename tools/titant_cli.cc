// titant_cli — command-line front end for the library, working on the CSV
// interchange format (txn/csv.h) so the pipeline can run on real data.
//
//   titant_cli generate <profiles.csv> <records.csv> [users] [days] [seed]
//       Simulates a world and writes it as CSV.
//
//   titant_cli train <profiles.csv> <records.csv> <test-date> <model.bin>
//       Builds the T+1 window ending at <test-date> (YYYY-MM-DD), learns
//       DeepWalk embeddings + GBDT, reports test-day metrics, and writes
//       the model file. Also writes <model.bin>.emb with the embeddings.
//
//   titant_cli evaluate <profiles.csv> <records.csv> <test-date> <model.bin>
//       Scores the test day with an existing model (+ .emb) and reports
//       F1 / AUC / rec@top-1%.
//
//   titant_cli rules <profiles.csv> <records.csv> <test-date>
//       Trains the C5.0 rule learner on the window and prints its
//       high-confidence IF/THEN fraud rules.
//
//   titant_cli serve <profiles.csv> <records.csv> <test-date> <model.bin>
//              [port] [instances] [net-days] [train-days]
//       Uploads the test-day feature snapshots to an in-memory Ali-HBase,
//       stands up a Model Server fleet behind the TCP gateway, and serves
//       until SIGINT/SIGTERM (graceful drain).
//
//   titant_cli score <host> <port> <from-user> <to-user> <amount> <date> [channel]
//              [--batch N]
//       Scores one transfer against a running gateway and prints the
//       verdict. --batch N sends N staggered copies in a single
//       kScoreBatch frame (one wire round trip) and prints each item's
//       verdict or error.
//
//   titant_cli ingest <host> <port> <profiles.csv> <records.csv> <date>
//              [--batch N]
//       Replays one day of logged transactions through a running gateway
//       in kScoreBatch frames of N (default 256). A gateway started with
//       `serve` folds every scored transfer back into its sliding-window
//       velocity counters within seconds, so later transfers in the replay
//       are judged against the live burst — not the T+1 snapshot. Prints
//       the gateway's streaming counters when the replay finishes.
//
//   titant_cli kvserve <dir> [port] [--standby host:port] [--shards N]
//              [--cache-mb N] [--maintenance]
//       Runs one kvstore node: a durable sharded AliHBase at <dir> behind
//       the wire protocol's store subset (kPutBatch/kReplAppend/
//       kReplCatchup/kHealth/kStats). With --standby the node acts as a
//       replication primary, WAL-shipping every commit to the standby's
//       kvserve endpoint (a restarted old primary points --standby at the
//       promoted node to catch back up — failback is the arrow flipping).
//       Serves until SIGINT/SIGTERM.
//
//   titant_cli kvput <host> <port> <row> <family> <qualifier> <value> [version]
//       Writes one cell to a running kvserve node (or gateway) as a
//       kPutBatch of one cell.
//
//   titant_cli kvstats <host> <port>
//       Prints a node's replication counters (watermark, lag, catch-up)
//       and storage-engine counters (block-cache hit rate, flushes,
//       compactions, backlog, write stalls) from its kStats frame.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/experiment.h"
#include "replication/kv_server.h"
#include "replication/shipper.h"
#include "datagen/world.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "nrl/embedding.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/metrics.h"
#include "serving/router.h"
#include "streaming/ingestor.h"
#include "txn/csv.h"
#include "txn/window.h"

namespace {

using titant::Status;
using titant::StatusOr;

template <typename T>
T OrDie(StatusOr<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

void OrDie(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  titant_cli generate <profiles.csv> <records.csv> [users] [days] [seed]\n"
               "  titant_cli train <profiles.csv> <records.csv> <test-date> <model.bin> [net-days] [train-days]\n"
               "  titant_cli evaluate <profiles.csv> <records.csv> <test-date> <model.bin>\n"
               "  titant_cli rules <profiles.csv> <records.csv> <test-date> [net-days] [train-days]\n"
               "  titant_cli serve <profiles.csv> <records.csv> <test-date> <model.bin> [port] [instances] [net-days] [train-days]\n"
               "  titant_cli score <host> <port> <from-user> <to-user> <amount> <date> [channel] [--batch N]\n"
               "  titant_cli ingest <host> <port> <profiles.csv> <records.csv> <date> [--batch N]\n"
               "  titant_cli kvserve <dir> [port] [--standby host:port] [--shards N]"
               " [--cache-mb N] [--maintenance]\n"
               "  titant_cli kvput <host> <port> <row> <family> <qualifier> <value> [version]\n"
               "  titant_cli kvstats <host> <port>\n");
  return 2;
}

titant::txn::DatasetWindow WindowFor(const titant::txn::TransactionLog& log,
                                     const std::string& date, int network_days,
                                     int train_days) {
  const titant::txn::Day day = titant::txn::DateToDay(date);
  if (day < -100000) {
    std::fprintf(stderr, "error: bad date '%s' (want YYYY-MM-DD)\n", date.c_str());
    std::exit(1);
  }
  titant::txn::WindowSpec spec;
  spec.test_day = day;
  if (network_days > 0) spec.network_days = network_days;
  if (train_days > 0) spec.train_days = train_days;
  return OrDie(titant::txn::SliceWindow(log, spec));
}

// Optional trailing [network_days] [train_days] after position `from`.
std::pair<int, int> SpanArgs(int argc, char** argv, int from) {
  int network_days = 0, train_days = 0;
  if (argc > from) network_days = std::atoi(argv[from]);
  if (argc > from + 1) train_days = std::atoi(argv[from + 1]);
  return {network_days, train_days};
}

void ReportMetrics(const std::vector<double>& scores, const std::vector<uint8_t>& labels) {
  const auto best = OrDie(titant::ml::BestF1(scores, labels));
  std::printf("  F1        %.2f%%  (precision %.2f%%, recall %.2f%%, threshold %.3f)\n",
              100 * best.f1, 100 * best.precision, 100 * best.recall, best.threshold);
  const auto auc = titant::ml::RocAuc(scores, labels);
  if (auc.ok()) std::printf("  AUC       %.4f\n", *auc);
  const auto rec1 = titant::ml::RecallAtTopPercent(scores, labels, 1.0);
  if (rec1.ok()) std::printf("  rec@top1%% %.2f%%\n", 100 * *rec1);
}

std::string ReadFileOrDie(const char* path) {
  std::FILE* in = std::fopen(path, "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    std::exit(1);
  }
  std::string blob;
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) blob.append(buffer, got);
  std::fclose(in);
  return blob;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  titant::datagen::WorldOptions options;
  if (argc > 4) options.num_users = std::atoi(argv[4]);
  if (argc > 5) options.num_days = std::atoi(argv[5]);
  if (argc > 6) options.seed = static_cast<uint64_t>(std::atoll(argv[6]));
  const auto world = OrDie(titant::datagen::GenerateWorld(options));
  OrDie(titant::txn::ExportLogCsv(world.log, argv[2], argv[3]));
  std::printf("wrote %zu profiles -> %s\n", world.log.profiles.size(), argv[2]);
  std::printf("wrote %zu records  -> %s (days %s..%s)\n", world.log.records.size(), argv[3],
              titant::txn::DayToDate(world.log.records.front().day).c_str(),
              titant::txn::DayToDate(world.log.records.back().day).c_str());
  return 0;
}

int CmdTrain(int argc, char** argv) {
  if (argc < 6) return Usage();
  const auto log = OrDie(titant::txn::ImportLogCsv(argv[2], argv[3]));
  const auto [net_days, tr_days] = SpanArgs(argc, argv, 6);
  const auto window = WindowFor(log, argv[4], net_days, tr_days);
  std::printf("window: %zu network / %zu train / %zu test records\n",
              window.network_records.size(), window.train_records.size(),
              window.test_records.size());

  titant::core::PipelineOptions options;
  titant::core::OfflineTrainer trainer(log, window, options);
  OrDie(trainer.Prepare(titant::core::FeatureSet::kBasicDW));
  const auto train =
      OrDie(trainer.BuildMatrix(window.train_records, titant::core::FeatureSet::kBasicDW));
  auto model = titant::core::MakeModel(titant::core::ModelKind::kGbdt, options);
  OrDie(model->Train(train));

  const auto test =
      OrDie(trainer.BuildMatrix(window.test_records, titant::core::FeatureSet::kBasicDW));
  const auto scores = OrDie(model->ScoreAll(test));
  std::printf("test-day (%s) metrics:\n", argv[4]);
  ReportMetrics(scores, test.labels());

  // Model file + the embeddings the serving tier needs alongside it.
  const std::string blob = titant::ml::SerializeModel(*model);
  std::FILE* out = std::fopen(argv[5], "wb");
  if (out == nullptr || std::fwrite(blob.data(), 1, blob.size(), out) != blob.size()) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[5]);
    return 1;
  }
  std::fclose(out);
  OrDie(trainer.dw_embeddings()->SaveTo(std::string(argv[5]) + ".emb"));
  std::printf("wrote model (%zu bytes) -> %s (+.emb)\n", blob.size(), argv[5]);
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  if (argc < 6) return Usage();
  const auto log = OrDie(titant::txn::ImportLogCsv(argv[2], argv[3]));
  const auto [net_days, tr_days] = SpanArgs(argc, argv, 6);
  const auto window = WindowFor(log, argv[4], net_days, tr_days);

  const std::string blob = ReadFileOrDie(argv[5]);
  const auto model = OrDie(titant::ml::DeserializeModel(blob));
  const auto embeddings =
      OrDie(titant::nrl::EmbeddingMatrix::LoadFrom(std::string(argv[5]) + ".emb"));

  // Assemble basic + stored-embedding features for the test day.
  titant::core::PipelineOptions options;
  options.embedding_dim = embeddings.dim();
  titant::core::OfflineTrainer trainer(log, window, options);
  OrDie(trainer.Prepare(titant::core::FeatureSet::kBasic));
  const auto basic =
      OrDie(trainer.BuildMatrix(window.test_records, titant::core::FeatureSet::kBasic));
  titant::ml::DataMatrix test(basic.num_rows(), basic.num_cols() + embeddings.dim());
  test.mutable_labels() = basic.labels();
  for (std::size_t r = 0; r < basic.num_rows(); ++r) {
    std::copy(basic.Row(r), basic.Row(r) + basic.num_cols(), test.Row(r));
    const auto& rec = log.records[window.test_records[r]];
    if (rec.to_user < embeddings.rows()) {
      const float* emb = embeddings.Row(rec.to_user);
      std::copy(emb, emb + embeddings.dim(), test.Row(r) + basic.num_cols());
    }
  }
  const auto scores = OrDie(model->ScoreAll(test));
  std::printf("test-day (%s) metrics with %s:\n", argv[4],
              std::string(model->type_name()).c_str());
  ReportMetrics(scores, test.labels());
  return 0;
}

int CmdRules(int argc, char** argv) {
  if (argc < 5) return Usage();
  const auto log = OrDie(titant::txn::ImportLogCsv(argv[2], argv[3]));
  const auto [net_days, tr_days] = SpanArgs(argc, argv, 5);
  const auto window = WindowFor(log, argv[4], net_days, tr_days);

  titant::core::PipelineOptions options;
  titant::core::OfflineTrainer trainer(log, window, options);
  OrDie(trainer.Prepare(titant::core::FeatureSet::kBasic));
  const auto train =
      OrDie(trainer.BuildMatrix(window.train_records, titant::core::FeatureSet::kBasic));
  auto model = titant::ml::MakeC50(options.tree_bins, /*boosting_trials=*/1);
  OrDie(model->Train(train));
  const auto rules = model->DumpRules(train.column_names(), 0.5);
  std::printf("high-confidence fraud rules from the C5.0 learner (%zu):\n", rules.size());
  for (const auto& rule : rules) std::printf("  %s\n", rule.c_str());
  if (rules.empty()) std::printf("  (no leaf reaches p >= 0.5 on this window)\n");
  return 0;
}

volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int /*signum*/) { g_stop_serving = 1; }

int CmdServe(int argc, char** argv) {
  if (argc < 6) return Usage();
  const uint16_t port = argc > 6 ? static_cast<uint16_t>(std::atoi(argv[6])) : 7431;
  const int instances = argc > 7 ? std::atoi(argv[7]) : 2;

  // Validate the model artifacts before the (slower) CSV import.
  const std::string blob = ReadFileOrDie(argv[5]);
  OrDie(titant::ml::DeserializeModel(blob).status());
  const auto embeddings =
      OrDie(titant::nrl::EmbeddingMatrix::LoadFrom(std::string(argv[5]) + ".emb"));
  const auto log = OrDie(titant::txn::ImportLogCsv(argv[2], argv[3]));
  const auto [net_days, tr_days] = SpanArgs(argc, argv, 8);
  const auto window = WindowFor(log, argv[4], net_days, tr_days);

  // The model version is the serving date (YYYYMMDD), the paper's daily
  // rollout convention.
  std::string digits;
  for (const char* c = argv[4]; *c != '\0'; ++c) {
    if (*c != '-') digits.push_back(*c);
  }
  const uint64_t version = static_cast<uint64_t>(std::atoll(digits.c_str()));

  // Build the extractor over the window and publish the as-of-test-day
  // per-user snapshots into an in-memory Ali-HBase feature table.
  titant::core::PipelineOptions pipeline;
  pipeline.embedding_dim = embeddings.dim();
  titant::core::OfflineTrainer trainer(log, window, pipeline);
  OrDie(trainer.Prepare(titant::core::FeatureSet::kBasic));
  auto store_options = titant::serving::FeatureTableOptions();
  store_options.durable = false;
  auto store = OrDie(titant::kvstore::AliHBase::Open(store_options));
  OrDie(titant::serving::UploadDailyArtifacts(store.get(), log, trainer.extractor(),
                                              embeddings, window.spec.test_day, version, 50));

  titant::serving::ModelServerOptions ms_options;
  ms_options.embedding_dim = embeddings.dim();
  titant::serving::ModelServerRouter router(store.get(), ms_options, instances);
  OrDie(router.LoadModel(blob, version));

  // Chaos schedules ride in via TITANT_FAILPOINTS (see README) so a live
  // fleet can be fault-tested without a rebuild.
  OrDie(titant::Failpoints::ArmFromEnv());
  for (const auto& name : titant::Failpoints::ArmedNames()) {
    std::printf("failpoint armed: %s\n", name.c_str());
  }

  // Close the loop: every scored transfer feeds the sliding-window
  // velocity counters, and kPutBatch frames write through to the
  // feature table.
  auto ingestor =
      OrDie(titant::streaming::Ingestor::Open(store.get(), titant::streaming::IngestorOptions()));

  titant::serving::GatewayOptions gw_options;
  gw_options.server.port = port;
  gw_options.ingestor = ingestor.get();
  titant::serving::Gateway gateway(&router, gw_options);
  gateway.metrics().Register("kvstore", titant::serving::KvStatsProvider(store.get()));
  OrDie(gateway.Start());
  std::printf("gateway serving on 127.0.0.1:%u  (%d MS instances, model v%llu, streaming on)\n",
              gateway.port(), instances, static_cast<unsigned long long>(version));
  std::printf("press Ctrl-C to drain and stop\n");

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_serving == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("\ndraining in-flight requests...\n");
  OrDie(gateway.Shutdown());
  OrDie(ingestor->Shutdown());
  const auto wire = gateway.WireLatencySnapshot();
  std::printf("served %llu requests (wire p50 %.0f us, p99 %.0f us)\n",
              static_cast<unsigned long long>(gateway.requests_served()), wire.P50(),
              wire.P99());
  const auto ingest = ingestor->stats();
  std::printf("streaming: %llu ingested, %llu applied, %llu shed, %llu counter cells published\n",
              static_cast<unsigned long long>(ingest.enqueued),
              static_cast<unsigned long long>(ingest.applied),
              static_cast<unsigned long long>(ingest.shed),
              static_cast<unsigned long long>(ingest.counter_cells_published));
  return 0;
}

int CmdScore(int argc, char** argv) {
  int batch = 1;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
      if (batch < 1) batch = 1;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 8) return Usage();
  const char* host = argv[2];
  const uint16_t port = static_cast<uint16_t>(std::atoi(argv[3]));

  titant::serving::TransferRequest request;
  request.txn_id = 1;
  request.from_user = static_cast<titant::txn::UserId>(std::atoll(argv[4]));
  request.to_user = static_cast<titant::txn::UserId>(std::atoll(argv[5]));
  request.amount = std::atof(argv[6]);
  const titant::txn::Day day = titant::txn::DateToDay(argv[7]);
  if (day < -100000) {
    std::fprintf(stderr, "error: bad date '%s' (want YYYY-MM-DD)\n", argv[7]);
    return 1;
  }
  request.day = day;
  request.second_of_day = 12 * 3600;
  if (argc > 8) request.channel = static_cast<titant::txn::Channel>(std::atoi(argv[8]));

  titant::serving::GatewayClient client(host, port);
  const auto health = OrDie(client.Health(/*timeout_ms=*/2000));
  std::printf("fleet: %u/%u instances healthy, model v%llu\n", health.healthy_instances,
              health.num_instances, static_cast<unsigned long long>(health.model_version));

  if (batch > 1) {
    // N staggered copies of the transfer in one kScoreBatch round trip;
    // per-item outcomes print independently (a degraded or failed row
    // does not mask its siblings).
    std::vector<titant::serving::TransferRequest> rows(static_cast<std::size_t>(batch), request);
    for (int i = 0; i < batch; ++i) {
      rows[static_cast<std::size_t>(i)].txn_id = static_cast<uint64_t>(i + 1);
      rows[static_cast<std::size_t>(i)].second_of_day =
          request.second_of_day + static_cast<uint32_t>(i);
    }
    const auto items = OrDie(client.ScoreBatch(rows, /*timeout_ms=*/2000));
    int interrupts = 0;
    for (int i = 0; i < batch; ++i) {
      const auto& item = items[static_cast<std::size_t>(i)];
      if (!item.ok()) {
        std::printf("  [%2d] error: %s\n", i, item.status().ToString().c_str());
        continue;
      }
      if (item->interrupt) ++interrupts;
      std::printf("  [%2d] fraud probability %.4f  %s%s\n", i, item->fraud_probability,
                  item->interrupt ? "INTERRUPT" : "pass",
                  item->degraded ? "  (DEGRADED)" : "");
    }
    std::printf("%d rows in one round trip (model v%llu)\n", batch,
                static_cast<unsigned long long>(health.model_version));
    return interrupts > 0 ? 3 : 0;
  }

  const auto verdict = OrDie(client.Score(request, /*timeout_ms=*/2000));
  std::printf("fraud probability  %.4f\n", verdict.fraud_probability);
  std::printf("verdict            %s%s\n", verdict.interrupt ? "INTERRUPT" : "pass",
              verdict.degraded ? "  (DEGRADED: scored without live features)" : "");
  std::printf("server latency     %lld us (model v%llu)\n",
              static_cast<long long>(verdict.latency_us),
              static_cast<unsigned long long>(verdict.model_version));
  return verdict.interrupt ? 3 : 0;
}

int CmdIngest(int argc, char** argv) {
  int batch = 256;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (batch < 1) batch = 1;
  if (batch > static_cast<int>(titant::net::kMaxBatchItems)) {
    batch = static_cast<int>(titant::net::kMaxBatchItems);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 7) return Usage();
  const char* host = argv[2];
  const uint16_t port = static_cast<uint16_t>(std::atoi(argv[3]));
  const auto log = OrDie(titant::txn::ImportLogCsv(argv[4], argv[5]));
  const titant::txn::Day day = titant::txn::DateToDay(argv[6]);
  if (day < -100000) {
    std::fprintf(stderr, "error: bad date '%s' (want YYYY-MM-DD)\n", argv[6]);
    return 1;
  }

  // The day's traffic in log order (the log is time-ordered, so the
  // replay hits the gateway in the same sequence the ring fired).
  std::vector<titant::serving::TransferRequest> day_traffic;
  for (const auto& rec : log.records) {
    if (rec.day == day) day_traffic.push_back(titant::serving::RequestOf(rec));
  }
  if (day_traffic.empty()) {
    std::fprintf(stderr, "error: no records on %s\n", argv[6]);
    return 1;
  }

  titant::serving::GatewayClient client(host, port);
  const auto health = OrDie(client.Health(/*timeout_ms=*/2000));
  std::printf("fleet: %u/%u instances healthy, model v%llu\n", health.healthy_instances,
              health.num_instances, static_cast<unsigned long long>(health.model_version));
  std::printf("replaying %zu transactions from %s in batches of %d...\n", day_traffic.size(),
              argv[6], batch);

  std::size_t scored = 0, interrupts = 0, failed = 0;
  std::vector<titant::serving::TransferRequest> chunk;
  for (std::size_t at = 0; at < day_traffic.size(); at += static_cast<std::size_t>(batch)) {
    const std::size_t end = std::min(day_traffic.size(), at + static_cast<std::size_t>(batch));
    chunk.assign(day_traffic.begin() + static_cast<std::ptrdiff_t>(at),
                 day_traffic.begin() + static_cast<std::ptrdiff_t>(end));
    const auto items = OrDie(client.ScoreBatch(chunk, /*timeout_ms=*/10'000));
    for (const auto& item : items) {
      if (!item.ok()) {
        ++failed;
        continue;
      }
      ++scored;
      interrupts += item->interrupt ? 1 : 0;
    }
  }
  std::printf("scored %zu (%zu interrupted, %zu failed)\n", scored, interrupts, failed);

  // The gateway's streaming counters show how much of the replay has been
  // folded back into the live windows. Ingestion is asynchronous — the
  // worker lingers a few ms to form batches and publishes counters on an
  // interval — so give the tail a moment to drain before snapshotting,
  // and poll briefly if it is still moving.
  auto stats = OrDie(client.Stats(/*timeout_ms=*/2000));
  for (int poll = 0; poll < 20 && stats.ingest_enqueued >
                                      stats.ingest_applied + stats.ingest_shed + stats.ingest_dropped;
       ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stats = OrDie(client.Stats(/*timeout_ms=*/2000));
  }
  std::printf("streaming: %llu enqueued, %llu applied, %llu shed, %llu dropped\n",
              static_cast<unsigned long long>(stats.ingest_enqueued),
              static_cast<unsigned long long>(stats.ingest_applied),
              static_cast<unsigned long long>(stats.ingest_shed),
              static_cast<unsigned long long>(stats.ingest_dropped));
  std::printf("           %llu counter cells published, %llu users with live windows\n",
              static_cast<unsigned long long>(stats.counter_cells_published),
              static_cast<unsigned long long>(stats.aggregator_users));
  return 0;
}

int CmdKvServe(int argc, char** argv) {
  const char* standby = nullptr;
  int shards = 0;
  int cache_mb = -1;
  bool maintenance = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--standby") == 0 && i + 1 < argc) {
      standby = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--maintenance") == 0) {
      maintenance = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 3) return Usage();
  const uint16_t port = argc > 3 ? static_cast<uint16_t>(std::atoi(argv[3])) : 7432;

  // The node owns a durable feature table (same families/sharding the
  // gateway serves against) that survives restarts via its per-shard WALs.
  auto store_options = titant::serving::FeatureTableOptions();
  store_options.dir = argv[2];
  store_options.durable = true;
  if (shards > 0) store_options.num_shards = shards;
  if (cache_mb >= 0) {
    store_options.block_cache_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
  }
  store_options.background_maintenance = maintenance;
  auto store = OrDie(titant::kvstore::AliHBase::Open(store_options));

  OrDie(titant::Failpoints::ArmFromEnv());
  for (const auto& name : titant::Failpoints::ArmedNames()) {
    std::printf("failpoint armed: %s\n", name.c_str());
  }

  titant::net::ServerOptions server_options;
  server_options.port = port;
  titant::replication::KvStoreServer server(store.get(), server_options);
  OrDie(server.Start());

  // With a standby named, this node is a replication primary: every commit
  // ships over the wire, and the watermark acked back bounds failover
  // staleness. A restarted old primary points --standby at the promoted
  // node instead — same command, arrow reversed — to catch it back up.
  std::unique_ptr<titant::replication::Shipper> shipper;
  if (standby != nullptr) {
    const char* colon = std::strrchr(standby, ':');
    if (colon == nullptr) {
      std::fprintf(stderr, "error: --standby wants host:port, got '%s'\n", standby);
      return 2;
    }
    titant::replication::ShipperOptions ship_options;
    ship_options.standby_host = std::string(standby, colon - standby);
    ship_options.standby_port = static_cast<uint16_t>(std::atoi(colon + 1));
    shipper = titant::replication::Shipper::Attach(store.get(), std::move(ship_options));
  }

  std::printf("kvstore node serving on 127.0.0.1:%u (dir %s, %zu shards%s%s)\n", server.port(),
              argv[2], store->num_shards(), standby != nullptr ? ", shipping to " : "",
              standby != nullptr ? standby : "");
  std::printf("press Ctrl-C to stop\n");

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_serving == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (shipper != nullptr) {
    std::printf("\ndraining replication queue...\n");
    if (!shipper->Drain(/*timeout_ms=*/5000)) {
      std::printf("standby not caught up (it will gap-detect and snapshot on rejoin)\n");
    }
    const auto repl = shipper->stats();
    std::printf("replication: shipped seq %llu, acked %llu, %llu catch-up cells, %llu overflows\n",
                static_cast<unsigned long long>(repl.shipped_seq),
                static_cast<unsigned long long>(repl.acked_seq),
                static_cast<unsigned long long>(repl.catchup_cells),
                static_cast<unsigned long long>(repl.overflows));
    shipper->Shutdown();
  }
  OrDie(server.Shutdown());
  const auto stats = server.stats();
  std::printf("node: %llu puts, watermark %llu, %llu repl cells, %llu catch-up cells, %llu gaps\n",
              static_cast<unsigned long long>(stats.puts_applied),
              static_cast<unsigned long long>(stats.watermark),
              static_cast<unsigned long long>(stats.repl_cells_applied),
              static_cast<unsigned long long>(stats.catchup_cells),
              static_cast<unsigned long long>(stats.gaps_detected));
  return 0;
}

int CmdKvPut(int argc, char** argv) {
  if (argc < 8) return Usage();
  std::vector<titant::kvstore::Cell> cells(1);
  titant::kvstore::Cell& cell = cells[0];
  cell.key.row = argv[4];
  cell.key.family = argv[5];
  cell.key.qualifier = argv[6];
  cell.value = argv[7];
  cell.key.version = argc > 8 ? static_cast<uint64_t>(std::atoll(argv[8])) : 1;
  titant::serving::GatewayClient client(argv[2], static_cast<uint16_t>(std::atoi(argv[3])));
  OrDie(client.PutBatch(cells, /*timeout_ms=*/2000));
  std::printf("put %s/%s:%s @v%llu (%zu bytes)\n", cell.key.row.c_str(),
              cell.key.family.c_str(), cell.key.qualifier.c_str(),
              static_cast<unsigned long long>(cell.key.version), cell.value.size());
  return 0;
}

int CmdKvStats(int argc, char** argv) {
  if (argc < 4) return Usage();
  titant::serving::GatewayClient client(argv[2], static_cast<uint16_t>(std::atoi(argv[3])));
  const auto stats = OrDie(client.Stats(/*timeout_ms=*/2000));
  std::printf("puts_applied       %llu\n", static_cast<unsigned long long>(stats.puts_applied));
  std::printf("repl_shipped_seq   %llu\n", static_cast<unsigned long long>(stats.repl_shipped_seq));
  std::printf("repl_acked_seq     %llu\n", static_cast<unsigned long long>(stats.repl_acked_seq));
  std::printf("repl_lag           %llu\n", static_cast<unsigned long long>(stats.repl_lag));
  std::printf("repl_failovers     %llu\n", static_cast<unsigned long long>(stats.repl_failovers));
  std::printf("repl_catchup_cells %llu\n",
              static_cast<unsigned long long>(stats.repl_catchup_cells));
  std::printf("repl_catchup_bytes %llu\n",
              static_cast<unsigned long long>(stats.repl_catchup_bytes));
  const uint64_t cache_lookups = stats.kv_cache_hits + stats.kv_cache_misses;
  const double hit_rate =
      cache_lookups == 0 ? 0.0
                         : 100.0 * static_cast<double>(stats.kv_cache_hits) /
                               static_cast<double>(cache_lookups);
  std::printf("kv_cache_hits      %llu\n", static_cast<unsigned long long>(stats.kv_cache_hits));
  std::printf("kv_cache_misses    %llu\n",
              static_cast<unsigned long long>(stats.kv_cache_misses));
  std::printf("kv_cache_hit_rate  %.1f%%\n", hit_rate);
  std::printf("kv_cache_bytes     %llu\n", static_cast<unsigned long long>(stats.kv_cache_bytes));
  std::printf("kv_flushes         %llu\n", static_cast<unsigned long long>(stats.kv_flushes));
  std::printf("kv_compactions     %llu\n", static_cast<unsigned long long>(stats.kv_compactions));
  std::printf("kv_compaction_backlog %llu\n",
              static_cast<unsigned long long>(stats.kv_compaction_backlog));
  std::printf("kv_maint_bytes     %llu\n",
              static_cast<unsigned long long>(stats.kv_maintenance_bytes_written));
  std::printf("kv_stall_us        %llu\n", static_cast<unsigned long long>(stats.kv_stall_us));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return CmdGenerate(argc, argv);
  if (std::strcmp(argv[1], "train") == 0) return CmdTrain(argc, argv);
  if (std::strcmp(argv[1], "evaluate") == 0) return CmdEvaluate(argc, argv);
  if (std::strcmp(argv[1], "rules") == 0) return CmdRules(argc, argv);
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(argc, argv);
  if (std::strcmp(argv[1], "score") == 0) return CmdScore(argc, argv);
  if (std::strcmp(argv[1], "ingest") == 0) return CmdIngest(argc, argv);
  if (std::strcmp(argv[1], "kvserve") == 0) return CmdKvServe(argc, argv);
  if (std::strcmp(argv[1], "kvput") == 0) return CmdKvPut(argc, argv);
  if (std::strcmp(argv[1], "kvstats") == 0) return CmdKvStats(argc, argv);
  return Usage();
}
