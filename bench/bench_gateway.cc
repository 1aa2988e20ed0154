// Closed-loop load generator for the TCP serving gateway: the repo's
// end-to-end "network milliseconds" number (§1/§4.4 — the Alipay server
// reaches the MS fleet over the wire, not via a function call).
//
//   bench_gateway [client_threads] [seconds] [instances] [--faults]
//                 [--batch N] [--alloc-budget N]
//                 [--workers N] [--shards N] [--ingest] [--puts W]
//                 [--replica] [--disk] [--cache-mb N] [--compact-storm]
//
// Starts a Gateway over loopback in-process, drives it from N closed-loop
// client threads (one connection each, next request issued as soon as the
// previous reply lands), and prints sustained qps plus client-observed
// p50/p95/p99/p99.9 round-trip latency, next to the router's in-process
// scoring histogram so the socket tax is visible.
//
// --batch N sends explicit kScoreBatch frames of N rows per round trip
// (qps is reported in rows/s; the latency histogram is per round trip).
// Without it every round trip is one kScore frame, which the gateway
// scores as one router dispatch on the reactor that read it.
//
// --faults arms a chaos schedule (TITANT_FAILPOINTS if set, else a stock
// mix of KV outages, client write tears, and scoring latency) and reports
// the resilience counters — shed / expired / degraded / breaker trips /
// client retries — with the pass bar switched from zero-errors to
// >= 99.9% availability.
//
// The binary links titant_alloc_hook (counting operator new replacement),
// so it also reports heap allocations per round trip across the whole
// process — server and clients — during the timed window. The server's
// wire path is allocation-free (tests/zeroalloc_test.cc); what remains is
// the GatewayClient's response handling.
// --alloc-budget N turns the report into a pass bar: the run fails when
// allocs/request exceeds N (the CI bench-smoke lane pins the checked-in
// budget so allocation regressions fail the build).
//
// --workers N overrides the gateway's reactor count (default:
// hardware_concurrency). Each client connection belongs to one reactor,
// handed out round-robin, so N below the client count shares reactors.
//
// --ingest attaches a streaming Ingestor: every scored transaction is
// folded back into the sliding-window velocity counters and published to
// the store — the closed feature loop running at full scoring rate. The
// score qps under --ingest vs without it is the cost of closing the loop.
//
// --puts W (implies --ingest) additionally adds W closed-loop writer
// threads sending kPutBatch frames of live-counter cells (64 per round
// trip, the streaming publisher's shape) concurrently with the score
// traffic. This is the saturation mixed-load number: score qps while the
// write path is driven as hard as the host allows, plus sustained puts/s.
//
// --shards N overrides the feature store's lock-stripe count (default:
// kFeatureTableShards). --shards 1 reproduces the pre-sharding
// single-mutex store, so the sweep in the bench-smoke lane contrasts
// striped vs. serialized MultiGetView under concurrent workers.
//
// --disk rebuilds the feature store durable (WAL + SSTables) and flushes
// the daily upload to disk before the clients start, so every feature
// read during the run goes through the v2 SSTable read path — block
// cache, row-prefix blooms, per-block CRCs — instead of the memtable.
// --cache-mb N (default 32, 0 = off) sizes the block cache, and the
// report grows a kvstore line (hits/misses/compactions). With the cache
// on, zero hits fails the run: the serving path must actually exercise
// the cache it claims to.
//
// --compact-storm (implies --disk) runs a background thread through the
// timed window that keeps writing fresh cell versions and driving every
// stripe through the rate-limited flush + compact path — the acceptance
// probe: gateway batch-1 p99 while compaction rewrites the store under
// it, compared against a --disk run without the storm. --storm-rate-mb N
// (default 8) sets the store's maintenance token bucket; it is the knob
// that keeps a single-core host's foreground tail intact, and sweeping
// it shows the throttle doing its job.
//
// --replica stands up the full replicated feature-store tier behind the
// scorers: a warm-standby AliHBase behind a KvStoreServer on loopback, a
// WAL Shipper streaming every primary commit to it, and a FailoverStore
// fronting both for the router. The score qps under --replica vs without
// it is the serving-path cost of replication (the commit tap + breaker
// indirection; shipping itself rides a background thread), reported next
// to the shipper's shipped/acked watermark and lag.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_hook.h"
#include "common/failpoint.h"

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "core/experiment.h"
#include "replication/failover_store.h"
#include "replication/kv_server.h"
#include "replication/shipper.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/router.h"
#include "streaming/ingestor.h"

namespace {

using titant::benchutil::CheckOk;

struct Fixture {
  titant::datagen::World world;
  std::unique_ptr<titant::kvstore::AliHBase> store;
  // --replica: the standby node, its wire endpoint, the WAL shipper, and
  // the failover front the router scores through instead of the raw store.
  std::unique_ptr<titant::kvstore::AliHBase> standby;
  std::unique_ptr<titant::replication::KvStoreServer> standby_server;
  std::unique_ptr<titant::replication::Shipper> shipper;
  std::unique_ptr<titant::replication::FailoverStore> failover;
  std::unique_ptr<titant::serving::ModelServerRouter> router;
  std::vector<titant::serving::TransferRequest> requests;

  titant::kvstore::KvTable* serving_store() {
    return failover != nullptr ? static_cast<titant::kvstore::KvTable*>(failover.get())
                               : store.get();
  }
};

Fixture BuildFixture(int instances, int shards, bool replica, bool disk,
                     std::size_t cache_mb, uint64_t rate_mb) {
  Fixture f;
  titant::datagen::WorldOptions world_options;
  world_options.num_users = 1200;
  world_options.num_days = 112;
  world_options.first_day = titant::benchutil::FirstTestDay() - 104;
  f.world = CheckOk(titant::datagen::GenerateWorld(world_options));
  auto windows =
      CheckOk(titant::txn::SliceWeek(f.world.log, titant::benchutil::FirstTestDay(), 1));

  titant::core::PipelineOptions pipeline;
  pipeline.walks_per_node = 20;  // Keep fixture setup fast; scoring is model-size-bound.
  titant::core::OfflineTrainer trainer(f.world.log, windows[0], pipeline);
  CheckOk(trainer.Prepare(titant::core::FeatureSet::kBasicDW));
  auto train = CheckOk(
      trainer.BuildMatrix(windows[0].train_records, titant::core::FeatureSet::kBasicDW));
  auto model = titant::core::MakeModel(titant::core::ModelKind::kGbdt, pipeline);
  CheckOk(model->Train(train));

  auto store_options = titant::serving::FeatureTableOptions();
  store_options.durable = false;
  if (shards > 0) store_options.num_shards = shards;
  if (disk) {
    const char* kStoreDir = "/tmp/titant_bench_gateway_store";
    std::filesystem::remove_all(kStoreDir);
    store_options.durable = true;
    store_options.dir = kStoreDir;
    store_options.block_cache_bytes = cache_mb << 20;
    store_options.maintenance_rate_bytes_per_sec = rate_mb << 20;
  }
  f.store = CheckOk(titant::kvstore::AliHBase::Open(store_options));
  CheckOk(titant::serving::UploadDailyArtifacts(f.store.get(), f.world.log,
                                                trainer.extractor(), *trainer.dw_embeddings(),
                                                windows[0].spec.test_day, 20170410, 50));
  // Disk mode: push the whole upload out of the memtables so the clients
  // read through SSTables (cache + blooms + CRCs), not skiplists.
  if (disk) CheckOk(f.store->Flush());

  if (replica) {
    auto standby_options = titant::serving::FeatureTableOptions();
    standby_options.durable = false;
    if (shards > 0) standby_options.num_shards = shards;
    f.standby = CheckOk(titant::kvstore::AliHBase::Open(standby_options));
    f.standby_server = std::make_unique<titant::replication::KvStoreServer>(f.standby.get());
    CheckOk(f.standby_server->Start());
    titant::replication::ShipperOptions ship_options;
    ship_options.standby_port = f.standby_server->port();
    // Attaching after the daily upload means the standby warms through one
    // snapshot catch-up (the production join path) rather than replaying
    // the whole upload record by record.
    f.shipper = titant::replication::Shipper::Attach(f.store.get(), ship_options);
    if (!f.shipper->Drain(/*timeout_ms=*/60'000)) {
      std::fprintf(stderr, "standby failed to warm within 60s\n");
      std::exit(1);
    }
    f.failover = std::make_unique<titant::replication::FailoverStore>(f.store.get(),
                                                                      f.standby.get());
  }

  f.router = std::make_unique<titant::serving::ModelServerRouter>(
      f.serving_store(), titant::serving::ModelServerOptions(), instances);
  CheckOk(f.router->LoadModel(titant::ml::SerializeModel(*model), 20170410));

  for (std::size_t idx : windows[0].test_records) {
    f.requests.push_back(titant::serving::RequestOf(f.world.log.records[idx]));
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bool faults = false;
  int batch = 1;
  int workers = 0;  // 0 = GatewayOptions default (hardware_concurrency).
  int shards = 0;  // 0 = FeatureTableOptions default (kFeatureTableShards).
  bool replica = false;  // Replicated store tier: standby + shipper + failover.
  bool ingest = false;  // Fold scored traffic back via a streaming Ingestor.
  int put_threads = 0;  // Concurrent kPutBatch writer threads (mixed load).
  bool disk = false;  // Durable store: serve features through SSTables.
  std::size_t cache_mb = 32;  // Block cache size in disk mode (0 = off).
  bool compact_storm = false;  // Flush+compact every stripe through the run.
  uint64_t storm_rate_mb = 8;  // Maintenance token bucket in disk mode.
  double alloc_budget = 0.0;  // 0 = report only, no pass bar.
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
      if (batch < 1) batch = 1;
    } else if (std::strcmp(argv[i], "--alloc-budget") == 0 && i + 1 < argc) {
      alloc_budget = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--replica") == 0) {
      replica = true;
    } else if (std::strcmp(argv[i], "--disk") == 0) {
      disk = true;
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = static_cast<std::size_t>(std::atoi(argv[++i]));
      disk = true;
    } else if (std::strcmp(argv[i], "--compact-storm") == 0) {
      compact_storm = true;
      disk = true;
    } else if (std::strcmp(argv[i], "--storm-rate-mb") == 0 && i + 1 < argc) {
      storm_rate_mb = static_cast<uint64_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      ingest = true;
    } else if (std::strcmp(argv[i], "--puts") == 0 && i + 1 < argc) {
      put_threads = std::atoi(argv[++i]);
      if (put_threads < 0) put_threads = 0;
      if (put_threads > 0) ingest = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int threads = positional.size() > 0 ? std::atoi(positional[0]) : 4;
  const double seconds = positional.size() > 1 ? std::atof(positional[1]) : 3.0;
  const int instances = positional.size() > 2 ? std::atoi(positional[2]) : 2;

  std::printf(
      "bench_gateway: %d closed-loop client threads, %.1fs, %d MS instances, "
      "batch %d%s\n",
      threads, seconds, instances, batch, faults ? ", fault injection ON" : "");
  if (shards > 0) std::printf("feature store lock stripes: %d\n", shards);
  std::printf("setting up world + model + feature store...\n");
  if (disk) {
    std::printf("disk mode: durable store, %zu MB block cache, maintenance throttle %llu MB/s%s\n",
                cache_mb, static_cast<unsigned long long>(storm_rate_mb),
                compact_storm ? ", compaction storm through the timed window" : "");
  }
  Fixture fixture = BuildFixture(instances, shards, replica, disk, cache_mb, storm_rate_mb);
  if (replica) {
    std::printf("replicated tier ON: WAL shipping to a warm standby on 127.0.0.1:%u, "
                "router scoring through the failover front\n",
                fixture.standby_server->port());
  }

  titant::serving::GatewayOptions gateway_options;
  if (workers > 0) gateway_options.server.worker_threads = static_cast<std::size_t>(workers);
  std::unique_ptr<titant::streaming::Ingestor> ingestor;
  if (ingest) {
    ingestor = CheckOk(titant::streaming::Ingestor::Open(fixture.serving_store(),
                                                         titant::streaming::IngestorOptions()));
    gateway_options.ingestor = ingestor.get();
    std::printf("streaming ingestion ON: scored traffic feeds the live counters%s\n",
                put_threads > 0 ? "" : " (no writer threads)");
    if (put_threads > 0) {
      std::printf("mixed load: %d kPutBatch writer threads alongside the scorers\n", put_threads);
    }
  }
  titant::serving::Gateway gateway(fixture.router.get(), gateway_options);
  CheckOk(gateway.Start());
  std::printf("gateway listening on 127.0.0.1:%u\n\n", gateway.port());

  if (faults) {
    // Honor an operator schedule from the environment; otherwise arm a
    // stock deterministic mix the serving path is expected to ride out.
    CheckOk(titant::Failpoints::ArmFromEnv());
    if (titant::Failpoints::ArmedNames().empty()) {
      CheckOk(titant::Failpoints::ArmFromSpec(
          "kvstore.get,error:Unavailable,p:0.02,seed:11;"
          "net.client.write,error:Unavailable,p:0.01,seed:12;"
          "serving.score,delay:2,p:0.01,seed:13"));
    }
    for (const auto& name : titant::Failpoints::ArmedNames()) {
      std::printf("failpoint armed: %s\n", name.c_str());
    }
    std::printf("\n");
  }

  std::vector<titant::Histogram> rtt_us(static_cast<std::size_t>(threads));
  std::vector<uint64_t> scored(static_cast<std::size_t>(threads), 0);
  std::vector<uint64_t> errors(static_cast<std::size_t>(threads), 0);
  std::vector<uint64_t> degraded(static_cast<std::size_t>(threads), 0);
  std::vector<uint64_t> retries(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> clients;
  // --compact-storm: rewrite the store underneath the scorers for the whole
  // window — fresh versions into a disjoint row range, then every stripe
  // flushed and compacted through the same rate-limited path background
  // maintenance uses. The foreground read working set stays byte-identical;
  // what changes is which files serve it.
  std::atomic<bool> storm_stop{false};
  std::thread storm;
  const titant::kvstore::KvStoreStats kv_before = fixture.store->kv_stats();
  if (compact_storm) {
    storm = std::thread([&] {
      titant::kvstore::AliHBase* store = fixture.store.get();
      uint64_t version = 1;
      const std::string value(128, 's');
      std::vector<titant::kvstore::Cell> cells(256);
      while (!storm_stop.load()) {
        ++version;
        for (std::size_t c = 0; c < cells.size(); ++c) {
          char row[16];
          std::snprintf(row, sizeof(row), "z%010zu", (version * cells.size() + c) % 50'000);
          cells[c] = {titant::kvstore::CellKey{row, "rt", "storm", version}, value, false};
        }
        if (!store->PutBatch(cells).ok()) break;
        for (std::size_t sh = 0; sh < store->num_shards(); ++sh) {
          if (storm_stop.load()) break;
          if (!store->FlushShard(sh).ok() || !store->CompactShard(sh).ok()) {
            std::fprintf(stderr, "FATAL: compact storm maintenance failed\n");
            std::exit(1);
          }
        }
      }
    });
  }
  const uint64_t allocs_before = titant::allochook::TotalAllocs();
  titant::Stopwatch wall;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::size_t slot = static_cast<std::size_t>(t);
      titant::serving::GatewayClient client("127.0.0.1", gateway.port());
      std::size_t i = slot;  // Stagger request streams.
      titant::Stopwatch elapsed;
      while (elapsed.ElapsedSeconds() < seconds) {
        titant::Stopwatch rtt;
        if (batch <= 1) {
          const auto verdict =
              client.Score(fixture.requests[i % fixture.requests.size()], /*timeout_ms=*/5000);
          if (verdict.ok()) {
            rtt_us[slot].Add(static_cast<double>(rtt.ElapsedMicros()));
            ++scored[slot];
            if (verdict->degraded) ++degraded[slot];
          } else {
            ++errors[slot];
          }
          ++i;
        } else {
          std::vector<titant::serving::TransferRequest> rows;
          rows.reserve(static_cast<std::size_t>(batch));
          for (int b = 0; b < batch; ++b) {
            rows.push_back(fixture.requests[i++ % fixture.requests.size()]);
          }
          const auto items = client.ScoreBatch(rows, /*timeout_ms=*/5000);
          if (items.ok()) {
            rtt_us[slot].Add(static_cast<double>(rtt.ElapsedMicros()));
            for (const auto& item : *items) {
              if (item.ok()) {
                ++scored[slot];
                if (item->degraded) ++degraded[slot];
              } else {
                ++errors[slot];
              }
            }
          } else {
            errors[slot] += static_cast<uint64_t>(batch);
          }
        }
      }
      retries[slot] = client.transport().retries();
    });
  }
  // Writer threads: closed-loop kPutBatch frames of live-counter cells to
  // a user range disjoint from the scored world, so the write path loads
  // the same sharded store without silently changing what scorers read.
  std::vector<uint64_t> puts_ok(static_cast<std::size_t>(std::max(put_threads, 1)), 0);
  std::vector<uint64_t> put_round_trips(static_cast<std::size_t>(std::max(put_threads, 1)), 0);
  std::vector<uint64_t> put_errors(static_cast<std::size_t>(std::max(put_threads, 1)), 0);
  std::vector<std::thread> writers;
  for (int t = 0; t < put_threads; ++t) {
    writers.emplace_back([&, t] {
      const std::size_t slot = static_cast<std::size_t>(t);
      titant::serving::GatewayClient client("127.0.0.1", gateway.port());
      constexpr int kCellsPerFrame = 64;
      float counters[titant::streaming::kCounterFloats] = {};
      std::vector<titant::kvstore::Cell> cells(kCellsPerFrame);
      uint64_t version = 0;
      uint32_t user = 10'000'000 + static_cast<uint32_t>(t) * 1'000'000;
      titant::Stopwatch elapsed;
      while (elapsed.ElapsedSeconds() < seconds) {
        ++version;
        for (int c = 0; c < kCellsPerFrame; ++c) {
          counters[0] = static_cast<float>(version);
          char row[16];
          std::snprintf(row, sizeof(row), "u%010u", user + static_cast<uint32_t>(c));
          cells[static_cast<std::size_t>(c)].key.row = row;
          cells[static_cast<std::size_t>(c)].key.family = titant::streaming::kFamilyRealtime;
          cells[static_cast<std::size_t>(c)].key.qualifier = titant::streaming::kQualWindow;
          cells[static_cast<std::size_t>(c)].key.version = version;
          titant::serving::EncodeFloatsTo(&cells[static_cast<std::size_t>(c)].value, counters,
                                          titant::streaming::kCounterFloats);
        }
        user = 10'000'000 + static_cast<uint32_t>(t) * 1'000'000 +
               (user + kCellsPerFrame) % 100'000;
        if (client.PutBatch(cells, /*timeout_ms=*/5000).ok()) {
          puts_ok[slot] += kCellsPerFrame;
          ++put_round_trips[slot];
        } else {
          ++put_errors[slot];
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (auto& thread : writers) thread.join();
  const double elapsed_s = wall.ElapsedSeconds();
  storm_stop.store(true);
  if (storm.joinable()) storm.join();
  const uint64_t allocs_during = titant::allochook::TotalAllocs() - allocs_before;
  titant::Failpoints::DisarmAll();

  titant::Histogram merged;
  uint64_t total_scored = 0;
  uint64_t total_errors = 0;
  uint64_t total_degraded = 0;
  uint64_t total_retries = 0;
  for (int t = 0; t < threads; ++t) {
    merged.Merge(rtt_us[static_cast<std::size_t>(t)]);
    total_scored += scored[static_cast<std::size_t>(t)];
    total_errors += errors[static_cast<std::size_t>(t)];
    total_degraded += degraded[static_cast<std::size_t>(t)];
    total_retries += retries[static_cast<std::size_t>(t)];
  }
  const double qps = static_cast<double>(total_scored) / elapsed_s;
  uint64_t total_puts = 0;
  uint64_t total_put_round_trips = 0;
  uint64_t total_put_errors = 0;
  for (int t = 0; t < put_threads; ++t) {
    total_puts += puts_ok[static_cast<std::size_t>(t)];
    total_put_round_trips += put_round_trips[static_cast<std::size_t>(t)];
    total_put_errors += put_errors[static_cast<std::size_t>(t)];
  }

  std::printf("end-to-end over loopback (client-observed RTT, %d row%s per round trip):\n",
              batch, batch == 1 ? "" : "s");
  std::printf("  scored    %llu rows in %llu round trips  (errors %llu)\n",
              static_cast<unsigned long long>(total_scored),
              static_cast<unsigned long long>(merged.count()),
              static_cast<unsigned long long>(total_errors));
  std::printf("  qps       %.0f rows/s\n", qps);
  std::printf("  p50       %.0f us\n", merged.P50());
  std::printf("  p95       %.0f us\n", merged.P95());
  std::printf("  p99       %.0f us\n", merged.P99());
  std::printf("  p99.9     %.0f us\n", merged.P999());
  std::printf("  max       %.0f us\n", merged.max());
  if (put_threads > 0) {
    std::printf("  puts      %llu cells in %llu round trips at %.0f cells/s  (errors %llu)\n",
                static_cast<unsigned long long>(total_puts),
                static_cast<unsigned long long>(total_put_round_trips),
                static_cast<double>(total_puts) / elapsed_s,
                static_cast<unsigned long long>(total_put_errors));
  }
  const uint64_t all_round_trips = merged.count() + total_put_round_trips;
  const double allocs_per_request =
      all_round_trips == 0 ? 0.0
                           : static_cast<double>(allocs_during) / static_cast<double>(all_round_trips);
  if (titant::allochook::Active()) {
    std::printf("  allocs    %.1f per round trip (%llu total, process-wide)\n",
                allocs_per_request, static_cast<unsigned long long>(allocs_during));
  }

  const auto wire = gateway.WireLatencySnapshot();
  const auto inproc = fixture.router->AggregateLatency();
  std::printf("\nserver-side breakdown (microseconds):\n");
  std::printf("  %-28s p50 %7.0f   p99 %7.0f\n", "router Score (in-process)", inproc.P50(),
              inproc.P99());
  std::printf("  %-28s p50 %7.0f   p99 %7.0f\n", "gateway handle (wire side)", wire.P50(),
              wire.P99());

  if (disk) {
    const titant::kvstore::KvStoreStats kv = fixture.store->kv_stats();
    const uint64_t lookups = kv.cache_hits + kv.cache_misses;
    std::printf("  %-28s %llu hits / %llu misses (%.1f%% hit rate), "
                "%llu compactions, %.1f MB maintenance writes\n",
                "kvstore (disk mode)", static_cast<unsigned long long>(kv.cache_hits),
                static_cast<unsigned long long>(kv.cache_misses),
                lookups == 0 ? 0.0 : 100.0 * static_cast<double>(kv.cache_hits) /
                                         static_cast<double>(lookups),
                static_cast<unsigned long long>(kv.compactions - kv_before.compactions),
                static_cast<double>(kv.maintenance_bytes_written - kv_before.maintenance_bytes_written) /
                    (1024.0 * 1024.0));
  }

  if (faults) {
    const auto stats = gateway.StatsSnapshot();
    std::printf("\nresilience counters (fault mode):\n");
    std::printf("  shed (admission)   %llu\n",
                static_cast<unsigned long long>(stats.requests_shed));
    std::printf("  expired (deadline) %llu\n",
                static_cast<unsigned long long>(stats.requests_expired));
    std::printf("  degraded verdicts  %llu (client-observed %llu)\n",
                static_cast<unsigned long long>(stats.degraded_verdicts),
                static_cast<unsigned long long>(total_degraded));
    std::printf("  breaker trips      %llu (open at end %llu)\n",
                static_cast<unsigned long long>(stats.breaker_trips),
                static_cast<unsigned long long>(stats.open_instances));
    std::printf("  client retries     %llu\n",
                static_cast<unsigned long long>(total_retries));
  }

  CheckOk(gateway.Shutdown());
  if (replica) {
    // Quiesce shipping before reading the watermark so lag reflects the
    // pipeline's steady state, not the tail of the final batch.
    const bool drained = fixture.shipper->Drain(/*timeout_ms=*/10'000);
    const auto rstats = fixture.shipper->stats();
    const auto fstats = fixture.failover->stats();
    std::printf("  replication: shipped seq %llu, acked %llu, end lag %llu%s; "
                "standby watermark %llu; catch-up %llu cells / %llu bytes; "
                "failovers %llu\n",
                static_cast<unsigned long long>(rstats.shipped_seq),
                static_cast<unsigned long long>(rstats.acked_seq),
                static_cast<unsigned long long>(rstats.lag),
                drained ? "" : " (NOT drained)",
                static_cast<unsigned long long>(fixture.standby_server->watermark()),
                static_cast<unsigned long long>(rstats.catchup_cells),
                static_cast<unsigned long long>(rstats.catchup_bytes),
                static_cast<unsigned long long>(fstats.failovers));
    fixture.shipper->Shutdown();
    CheckOk(fixture.standby_server->Shutdown());
  }
  if (ingestor != nullptr) {
    const auto istats = ingestor->stats();
    std::printf("  streaming: %llu scored events folded (%llu shed under backpressure), "
                "%llu counter cells published, %llu cells via kPutBatch\n",
                static_cast<unsigned long long>(istats.applied),
                static_cast<unsigned long long>(istats.shed),
                static_cast<unsigned long long>(istats.counter_cells_published),
                static_cast<unsigned long long>(istats.put_cells));
    CheckOk(ingestor->Shutdown());
  }

  if (faults) {
    // Under injection the bar is availability, not a spotless error count.
    const uint64_t attempts = total_scored + total_errors;
    const double availability =
        attempts == 0 ? 0.0
                      : static_cast<double>(total_scored) / static_cast<double>(attempts);
    const bool pass = availability >= 0.999;
    std::printf("\n%s: %.4f%% availability under faults (target: >= 99.9%%)\n",
                pass ? "PASS" : "MISS", availability * 100.0);
    return pass ? 0 : 1;
  }

  const bool perf_pass = qps >= 5000.0 && merged.P99() < 5000.0;
  std::printf("\n%s: %.0f qps, p99 %.0f us (target: >= 5000 qps, p99 < 5000 us)\n",
              perf_pass ? "PASS" : "MISS", qps, merged.P99());
  if (disk && cache_mb > 0) {
    const titant::kvstore::KvStoreStats kv = fixture.store->kv_stats();
    const bool cache_pass = kv.cache_hits > 0;
    std::printf("%s: block cache served %llu hits in disk mode (target: > 0)\n",
                cache_pass ? "PASS" : "MISS",
                static_cast<unsigned long long>(kv.cache_hits));
    if (!cache_pass) return 1;
  }
  if (compact_storm) {
    const titant::kvstore::KvStoreStats kv = fixture.store->kv_stats();
    const uint64_t storm_compactions = kv.compactions - kv_before.compactions;
    const bool storm_pass = storm_compactions > 0;
    std::printf("%s: %llu compactions ran during the timed window (target: > 0)\n",
                storm_pass ? "PASS" : "MISS",
                static_cast<unsigned long long>(storm_compactions));
    if (!storm_pass) return 1;
  }
  if (alloc_budget > 0.0) {
    const bool alloc_pass = allocs_per_request <= alloc_budget;
    std::printf("%s: %.1f allocs/request (budget: <= %.1f)\n", alloc_pass ? "PASS" : "MISS",
                allocs_per_request, alloc_budget);
    if (!alloc_pass) return 1;
  }
  return total_errors + total_put_errors == 0 ? 0 : 1;
}
