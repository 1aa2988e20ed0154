// The online half of Fig. 3/Fig. 5: offline training produces model files
// and daily feature/embedding uploads; the Model Server answers live
// transfer requests from Ali-HBase-backed features in microseconds and
// interrupts suspicious transactions.
//
// With --gateway, the same test day is also replayed through the TCP
// serving gateway over loopback, and the in-process vs on-the-wire
// latency distributions are printed side by side.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/histogram.h"
#include "common/stopwatch.h"
#include "core/experiment.h"
#include "datagen/world.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace titant;
  const bool use_gateway = argc > 1 && std::strcmp(argv[1], "--gateway") == 0;

  // ---- Offline (periodical training, §4.1) ------------------------------
  datagen::WorldOptions world_options;
  world_options.num_users = 2000;
  world_options.num_days = 112;
  world_options.first_day = -104;
  const datagen::World world = OrDie(datagen::GenerateWorld(world_options));
  const auto windows = OrDie(txn::SliceWeek(world.log, 0, 1));
  const txn::DatasetWindow& window = windows[0];

  core::PipelineOptions pipeline;
  core::OfflineTrainer trainer(world.log, window, pipeline);
  OrDie(trainer.Prepare(core::FeatureSet::kBasicDW));
  const auto train = OrDie(trainer.BuildMatrix(window.train_records, core::FeatureSet::kBasicDW));
  auto model = core::MakeModel(core::ModelKind::kGbdt, pipeline);
  OrDie(model->Train(train));
  std::printf("offline: trained Basic+DW+GBDT on %zu rows\n", train.num_rows());

  // ---- Upload to Ali-HBase (Fig. 7 layout, versioned by date) -----------
  auto store_options = serving::FeatureTableOptions();
  store_options.durable = true;
  store_options.dir = "/tmp/titant_example_hbase";
  std::filesystem::remove_all(store_options.dir);
  auto store = OrDie(kvstore::AliHBase::Open(store_options));
  const uint64_t version = 20170410;
  OrDie(serving::UploadDailyArtifacts(store.get(), world.log, trainer.extractor(),
                                      *trainer.dw_embeddings(), window.spec.test_day, version,
                                      50));
  OrDie(store->Flush());
  std::printf("upload: %zu user rows -> Ali-HBase (%zu SSTables)\n", world.log.num_users(),
              store->num_sstables());

  // ---- Online real-time prediction (Fig. 5) -----------------------------
  serving::ModelServerOptions ms_options;
  ms_options.interrupt_threshold = 0.9;
  serving::ModelServer server(store.get(), ms_options);
  OrDie(server.LoadModel(ml::SerializeModel(*model), version));

  int requests = 0, interrupts = 0, interrupted_fraud = 0;
  int missed_fraud = 0;
  for (std::size_t idx : window.test_records) {
    const auto& rec = world.log.records[idx];
    const auto verdict = OrDie(server.Score(serving::RequestOf(rec)));
    ++requests;
    if (verdict.interrupt) {
      ++interrupts;
      if (rec.is_fraud) ++interrupted_fraud;
      if (interrupts <= 5) {
        std::printf("  ! TID=%llu interrupted: P(fraud)=%.2f (%s) — transferor notified\n",
                    static_cast<unsigned long long>(rec.txn_id), verdict.fraud_probability,
                    rec.is_fraud ? "actual fraud" : "false alarm");
      }
    } else if (rec.is_fraud) {
      ++missed_fraud;
    }
  }

  const auto latency = server.LatencySnapshot();
  std::printf("\nserved %d live requests against model version %llu\n", requests,
              static_cast<unsigned long long>(version));
  std::printf("  interrupted %d transactions (%d real fraud, %d false alarms)\n", interrupts,
              interrupted_fraud, interrupts - interrupted_fraud);
  std::printf("  fraud passing the %.0f%% threshold unflagged: %d\n",
              100 * ms_options.interrupt_threshold, missed_fraud);
  std::printf("  latency: p50 %.0fus  p99 %.0fus  max %.0fus — \"mere milliseconds\"\n",
              latency.P50(), latency.P99(), latency.max());

  if (!use_gateway) return 0;

  // ---- The same day over the TCP gateway (§4.4: the Alipay server reaches
  // the MS fleet over the network) ----------------------------------------
  serving::ModelServerRouter router(store.get(), ms_options, /*num_instances=*/2);
  OrDie(router.LoadModel(ml::SerializeModel(*model), version));
  serving::Gateway gateway(&router);
  OrDie(gateway.Start());
  std::printf("\ngateway: listening on 127.0.0.1:%u, replaying the test day remotely\n",
              gateway.port());

  serving::GatewayClient client("127.0.0.1", gateway.port());
  Histogram rtt_us;
  for (std::size_t idx : window.test_records) {
    const serving::TransferRequest req = serving::RequestOf(world.log.records[idx]);
    Stopwatch rtt;
    OrDie(client.Score(req, /*timeout_ms=*/5000));
    rtt_us.Add(static_cast<double>(rtt.ElapsedMicros()));
  }
  const auto wire = gateway.WireLatencySnapshot();
  const auto inproc = router.AggregateLatency();
  std::printf("\n  latency (microseconds)        p50     p99     max\n");
  std::printf("  in-process ModelServer    %7.0f %7.0f %7.0f\n", inproc.P50(), inproc.P99(),
              inproc.max());
  std::printf("  gateway handler (wire)    %7.0f %7.0f %7.0f\n", wire.P50(), wire.P99(),
              wire.max());
  std::printf("  client round trip (TCP)   %7.0f %7.0f %7.0f\n", rtt_us.P50(), rtt_us.P99(),
              rtt_us.max());
  std::printf("  -> the socket adds ~%.0fus at the median over calling Score() directly\n",
              rtt_us.P50() - inproc.P50());
  OrDie(gateway.Shutdown());
  return 0;
}
