// score_mem and score_disk_ingest: open-loop kScore traffic against the
// TCP gateway, replaying the serving world's test day in event-time order.
//
// Each pass over the test day gets fresh txn_ids and is shifted one day
// later in event time, so the streaming ingestor's recent-txn dedup ring
// never mistakes a replayed transfer for a wire retry, and its sliding
// windows keep moving forward.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/alloc_hook.h"
#include "datagen/world.h"
#include "layer_pass.h"
#include "ml/metrics.h"
#include "net/wire.h"
#include "openloop.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"
#include "streaming/aggregator.h"
#include "streaming/ingestor.h"
#include "txn/window.h"
#include "workloads.h"

namespace perfbench {

namespace {

using titant::Status;
namespace kv = titant::kvstore;
namespace net = titant::net;
namespace serving = titant::serving;
namespace streaming = titant::streaming;
using serving::TransferRequest;
using serving::Verdict;

// --- Workload constants (stated in README.md) ------------------------------

constexpr int kServingUsers = 1200;
/// The generated world is the benchmark's fixed data set (the seed every
/// other bench in the repository uses), and the training seed is fixed
/// too; --seed drives what varies between runs: the arrival schedules and
/// where the replay starts in the test day.
constexpr uint64_t kWorldSeed = 2019;
constexpr int kRouterInstances = 2;
/// Score connections; score_disk_ingest adds one writer connection, for
/// at most four. One generator thread drives them all.
constexpr int kScoreConnections = 3;
constexpr double kMemNominalRps = 8000.0;
constexpr double kDiskNominalRps = 4000.0;
constexpr double kPutFramesPerSecond = 100.0;
constexpr int kCellsPerPut = 64;
constexpr uint32_t kPutRows = 64 * 50;  // Each writer row is rewritten every 50 frames.
constexpr uint32_t kPutUserBase = 10'000'000;  // Disjoint from the scored users.
/// score_disk_ingest store: a block cache far smaller than the SSTable
/// blocks the request stream touches, and memtable/compaction triggers low
/// enough that every stripe flushes and compacts several times a step.
constexpr std::size_t kDiskCacheBytes = 64 << 10;
constexpr std::size_t kDiskMemtableCells = 1024;
constexpr int kDiskCompactionTrigger = 4;
constexpr uint32_t kDeadlineMs = 1000;
constexpr double kP99LimitUs = 5000.0;
constexpr double kLatenessLimitUs = kP99LimitUs / 10.0;
constexpr int64_t kDrainNs = 2'000'000'000;
constexpr uint64_t kStreamTxnBase = 1ULL << 40;
constexpr uint64_t kWarmupTxnBase = 1ULL << 41;
constexpr uint64_t kProbeTxnBase = 1ULL << 42;
constexpr uint64_t kStalenessEvery = 32;  // Every 32nd verdict is followed.
constexpr int kWarmupRequests = 600;
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kModelVersion = 20170410;
/// Cell bytes one published or written live-counter cell carries:
/// 11-byte row, "rt", "win", 8-byte version, 11 float32s.
constexpr double kCounterCellBytes = 11 + 2 + 3 + 8 + 4 * streaming::kCounterFloats;

/// Capacity ladder: ~10% apart, searched by bisection.
constexpr double kCapacityStepSeconds = 2.0;
std::vector<double> CapacityLadder() {
  std::vector<double> ladder;
  for (double r = 2000.0; r <= 120000.0; r *= 1.1) ladder.push_back(std::round(r / 100.0) * 100.0);
  return ladder;
}

/// Pins the calling thread to `cpus` for the object's lifetime. Threads
/// it creates meanwhile inherit the mask.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& cpus) {
    active_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0 &&
              pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus) == 0;
  }
  ~ScopedAffinity() {
    if (active_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// The generator polls without sleeping, so it gets the last CPU to
/// itself and every server thread (gateway loop and workers, ingestor,
/// store maintenance) is created on the others: a server thread never
/// waits for a scheduler tick behind the spinning generator.
cpu_set_t GeneratorCpus(int nproc) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(nproc - 1, &set);
  return set;
}

cpu_set_t ServerCpus(int nproc) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < std::max(1, nproc - 1); ++c) CPU_SET(c, &set);
  return set;
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// --- Fixture -----------------------------------------------------------------

/// Everything one set-up builds. Members are declared in dependency order
/// so destruction tears the gateway down first and the store last.
struct Fixture {
  titant::datagen::World world;
  titant::txn::DatasetWindow window;
  std::unique_ptr<titant::maxcompute::MaxCompute> compute;
  std::unique_ptr<kv::AliHBase> store;
  std::unique_ptr<serving::ModelServerRouter> router;
  T1Output job;
  std::vector<TransferRequest> test;  // The test day, in event-time order.
  std::vector<uint8_t> labels;
  /// score_mem reference verdicts: [day-of-week shift][test row].
  std::vector<std::vector<Verdict>> reference;
  double t1_auc = 0.0;
  std::unique_ptr<streaming::Ingestor> ingestor;
  std::unique_ptr<serving::Gateway> gateway;
  double setup_s = 0.0;

  TransferRequest At(uint64_t index) const {
    const uint64_t n = test.size();
    TransferRequest r = test[index % n];
    r.txn_id = kStreamTxnBase + index;
    r.day += static_cast<titant::txn::Day>(index / n);
    return r;
  }
};

kv::StoreOptions StoreOptionsFor(bool disk, const std::string& dir) {
  kv::StoreOptions options = serving::FeatureTableOptions();
  options.durable = disk;
  if (disk) {
    options.dir = dir;
    options.block_cache_bytes = kDiskCacheBytes;
    options.memtable_flush_cells = kDiskMemtableCells;
    options.compaction_trigger_sstables = kDiskCompactionTrigger;
    options.background_maintenance = true;
  }
  return options;
}

std::unique_ptr<Fixture> BuildFixture(const RunArgs& args, bool disk, int repeat,
                                      SpanBuffer* trace) {
  const int64_t start = NowNs();
  auto f = std::make_unique<Fixture>();
  titant::datagen::WorldOptions world_options;
  world_options.num_users = kServingUsers;
  world_options.num_days = 112;
  const titant::txn::Day first_test = titant::txn::DateToDay("2017-04-10");
  world_options.first_day = first_test - 104;
  world_options.seed = kWorldSeed;
  auto world = titant::datagen::GenerateWorld(world_options);
  if (!world.ok()) return nullptr;
  f->world = std::move(world).value();
  auto windows = titant::txn::SliceWeek(f->world.log, first_test, 1);
  if (!windows.ok()) return nullptr;
  f->window = std::move(windows).value()[0];

  const std::string dir = args.workdir + "/setup-" + std::to_string(repeat);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  titant::maxcompute::MaxComputeOptions mc_options;
  mc_options.pangu_dir = dir + "/pangu";
  auto compute = titant::maxcompute::MaxCompute::Open(mc_options);
  if (!compute.ok()) return nullptr;
  f->compute = std::move(compute).value();
  auto store = [&] {
    ScopedAffinity server_cpus(ServerCpus(args.nproc));  // Its maintenance thread.
    return kv::AliHBase::Open(StoreOptionsFor(disk, dir + "/store"));
  }();
  if (!store.ok()) return nullptr;
  f->store = std::move(store).value();
  f->router = std::make_unique<serving::ModelServerRouter>(
      f->store.get(), serving::ModelServerOptions(), kRouterInstances);

  auto job = RunT1Job(f->world, f->window, f->compute.get(), f->store.get(), args.nproc,
                      kModelVersion,
                      [&](const std::string& blob, uint64_t version) {
                        return f->router->LoadModel(blob, version);
                      },
                      trace);
  if (!job.ok()) {
    std::fprintf(stderr, "T+1 job failed: %s\n", job.status().ToString().c_str());
    return nullptr;
  }
  f->job = std::move(job).value();

  for (const std::size_t idx : f->window.test_records) {
    const auto& rec = f->world.log.records[idx];
    f->test.push_back(RequestFor(rec));
    f->labels.push_back(rec.is_fraud ? 1 : 0);
  }

  // Reference verdicts from an in-process ModelServer over the same store
  // (one row per call). The features depend on the day only through the
  // day of week, so seven shifted copies cover every pass of the replay.
  serving::ModelServer reference(f->store.get(), serving::ModelServerOptions());
  if (!reference.LoadModel(f->job.blob, kModelVersion).ok()) return nullptr;
  const int shifts = disk ? 1 : 7;
  f->reference.assign(static_cast<std::size_t>(shifts), {});
  for (int s = 0; s < shifts; ++s) {
    for (std::size_t i = 0; i < f->test.size(); ++i) {
      TransferRequest req = f->test[i];
      req.day += s;
      titant::StatusOr<Verdict> v = Status::Internal("unscored");
      if (!reference.ScoreSpan(&req, 1, 0, &v).ok() || !v.ok()) return nullptr;
      f->reference[static_cast<std::size_t>(s)].push_back(*v);
    }
  }
  if (disk && repeat == 0) {
    std::size_t tables = 0;
    uintmax_t bytes = 0;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir + "/store")) {
      if (entry.is_regular_file() && entry.path().extension() == ".sst") {
        ++tables;
        bytes += entry.file_size();
      }
    }
    std::printf("store after the daily upload: %zu SSTables, %.0f KiB, against a %zu KiB block "
                "cache\n",
                tables, static_cast<double>(bytes) / 1024.0, kDiskCacheBytes >> 10);
  }
  std::vector<double> scores;
  for (const Verdict& v : f->reference[0]) scores.push_back(v.fraud_probability);
  auto auc = titant::ml::RocAuc(scores, f->labels);
  f->t1_auc = auc.ok() ? *auc : 0.0;

  ScopedAffinity server_cpus(ServerCpus(args.nproc));  // Ingestor and gateway threads.
  serving::GatewayOptions gateway_options;
  if (disk) {
    streaming::IngestorOptions ingest;
    ingest.event_log_path = dir + "/events";
    auto ingestor = streaming::Ingestor::Open(f->store.get(), ingest);
    if (!ingestor.ok()) return nullptr;
    f->ingestor = std::move(ingestor).value();
    gateway_options.ingestor = f->ingestor.get();
  }
  f->gateway = std::make_unique<serving::Gateway>(f->router.get(), gateway_options);
  if (!f->gateway->Start().ok()) return nullptr;

  // Connection warm-up: the handler threads' scratch, the coalescer and
  // the store's read path see traffic before anything is timed.
  {
    serving::GatewayClient client("127.0.0.1", f->gateway->port());
    for (int i = 0; i < kWarmupRequests; ++i) {
      TransferRequest req = f->test[static_cast<std::size_t>(i) % f->test.size()];
      req.txn_id = kWarmupTxnBase + static_cast<uint64_t>(i);
      if (!client.Score(req, static_cast<int>(kDeadlineMs)).ok()) return nullptr;
    }
  }
  if (f->ingestor != nullptr) f->ingestor->Drain();
  f->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return f;
}

// --- One open-loop step ------------------------------------------------------

struct StalenessSample {
  titant::txn::UserId user = 0;
  int64_t event_s = 0;
  int64_t reply_ns = 0;
  int64_t next_probe_ns = 0;
};

struct StepResult {
  ConnStats score;
  ConnStats put;
  double proc_cpu_s = 0.0;
  double generator_cpu_s = 0.0;  // The generator and follower threads' own CPU.
  uint64_t ctx_switches = 0;
  uint64_t allocs = 0;
  uint64_t error_status = 0;  // Transport/handler errors other than shed/expired.
  uint64_t shed_status = 0;
  uint64_t expired_status = 0;
  uint64_t degraded = 0;
  uint64_t mismatches = 0;
  uint64_t put_errors = 0;
  std::vector<float> staleness_ms;
  uint64_t staleness_unresolved = 0;
  uint64_t follower_gets = 0;
  uint64_t ingest_backlog_max = 0;
  std::map<uint32_t, std::pair<uint64_t, std::string>> put_last;  // Sampled rows.
  net::GatewayStats gw_before, gw_after;
  kv::KvStoreStats kv_before, kv_after;
  streaming::IngestorStats ing_before, ing_after;
  uint64_t router_degraded_before = 0, router_degraded_after = 0;

  uint64_t attempted() const { return score.sent + put.sent; }
  uint64_t failed() const { return score.failed + put.failed; }
  double p50_us() const { return Percentile(score.rtt_us, 50.0); }
  double p99_us() const { return Percentile(score.rtt_us, 99.0); }
  double lateness_p99_us() const { return Percentile(score.lateness_us, 99.0); }
  /// A backlog grows when the mean outstanding count over the last
  /// quarter of the step is more than twice that of the second quarter
  /// (plus a few requests of slack for Poisson bursts).
  bool backlog_growing() const {
    if (score.sends_q2 == 0 || score.sends_q4 == 0) return false;
    const double q2 = score.outstanding_sum_q2 / static_cast<double>(score.sends_q2);
    const double q4 = score.outstanding_sum_q4 / static_cast<double>(score.sends_q4);
    return q4 > 2.0 * q2 + 4.0;
  }
  bool valid() const { return lateness_p99_us() <= kLatenessLimitUs; }
  double server_cpu_us_per_verdict() const {
    const double server = proc_cpu_s - generator_cpu_s;
    return score.ok == 0 ? 0.0 : server / static_cast<double>(score.ok) * 1e6;
  }
};

/// One step at `rate`. `stream_pos` and `put_pos` continue across steps,
/// so txn_ids stay fresh, event time keeps moving forward and writer
/// versions keep rising. The calling thread is the generator.
StepResult RunStep(Fixture& f, std::atomic<uint64_t>* stream_pos, std::atomic<uint64_t>* put_pos,
                   double rate, double seconds, bool check_reference, bool disk, uint64_t seed,
                   int args_nproc, Tracer* tracer) {
  StepResult r;
  const uint64_t n = f.test.size();
  // Sampled verdicts, handed from the generator to the follower thread.
  std::mutex sampled_mu;
  std::vector<StalenessSample> sampled;
  int64_t staleness_cutoff_ns = INT64_MAX;  // Set once the schedule is known.

  OpenLoopStream score;
  score.rate_per_s = rate;
  score.connections = kScoreConnections;
  score.seed = seed * 1000003 + 1;
  score.hooks.next_index = [&] { return stream_pos->fetch_add(1, std::memory_order_relaxed); };
  score.hooks.encode = [&](uint64_t index, std::string* payload) {
    net::EncodeTransferRequestTo(payload, f.At(index));
    return static_cast<uint16_t>(net::kScore);
  };
  std::string body;
  score.hooks.on_reply = [&](uint64_t index, const net::Frame& frame, int64_t reply_ns) {
    const Status status = net::DecodeResponsePayload(frame, &body);
    if (!status.ok()) {
      if (status.code() == titant::StatusCode::kResourceExhausted) {
        ++r.shed_status;
      } else if (status.code() == titant::StatusCode::kTimeout) {
        ++r.expired_status;
      } else {
        ++r.error_status;
      }
      return false;
    }
    Verdict v;
    if (!net::DecodeVerdict(body, &v).ok()) {
      ++r.error_status;
      return false;
    }
    if (v.degraded) {
      ++r.degraded;
      return false;
    }
    if (check_reference) {
      const Verdict& ref = f.reference[(index / n) % 7][index % n];
      if (v.fraud_probability != ref.fraud_probability || v.interrupt != ref.interrupt ||
          v.model_version != ref.model_version) {
        ++r.mismatches;
        return false;
      }
    } else if (v.model_version != kModelVersion) {
      ++r.mismatches;
      return false;
    }
    // Verdicts from the step's last 200 ms are not followed: with no
    // traffic behind them, their counters wait for the publish interval
    // to be forced by a drain, which is not what a user sees mid-stream.
    if (disk && index % kStalenessEvery == 0 && reply_ns < staleness_cutoff_ns) {
      const TransferRequest req = f.At(index);
      std::lock_guard<std::mutex> lock(sampled_mu);
      sampled.push_back({req.from_user, streaming::EventSeconds(req), reply_ns, reply_ns});
    }
    return true;
  };

  // score_disk_ingest: one open-loop kPutBatch writer of live-counter
  // cells into a user range disjoint from the scored users.
  std::vector<kv::Cell> cells(kCellsPerPut);
  float counters[streaming::kCounterFloats] = {};
  OpenLoopStream put;
  put.rate_per_s = kPutFramesPerSecond;
  put.connections = 1;
  put.seed = seed * 7919 + 17;
  put.hooks.next_index = [&] { return put_pos->fetch_add(1, std::memory_order_relaxed); };
  put.hooks.encode = [&](uint64_t frame, std::string* payload) {
    const uint64_t version = frame + 1;
    counters[0] = static_cast<float>(version);
    const std::string value = serving::EncodeFloats(counters, streaming::kCounterFloats);
    for (int c = 0; c < kCellsPerPut; ++c) {
      const uint32_t row =
          static_cast<uint32_t>((frame * kCellsPerPut + static_cast<uint64_t>(c)) % kPutRows);
      kv::Cell& cell = cells[static_cast<std::size_t>(c)];
      cell.key = kv::CellKey{serving::UserRowKey(kPutUserBase + row), streaming::kFamilyRealtime,
                             streaming::kQualWindow, version};
      cell.value = value;
      if (row % 97 == 0) r.put_last[row] = {version, value};
    }
    net::EncodePutBatchRequestTo(payload, cells);
    return static_cast<uint16_t>(net::kPutBatch);
  };
  put.hooks.on_reply = [&](uint64_t, const net::Frame& frame, int64_t) {
    if (!net::DecodeResponsePayload(frame, &body).ok()) {
      ++r.put_errors;
      return false;
    }
    return true;
  };

  // The follower thread (disk only) reads each sampled verdict's live
  // counter cell every millisecond until it shows the event, and samples
  // the ingest backlog every 5 ms. It runs apart from the generator
  // because a store read can wait behind a flush holding the stripe lock.
  std::atomic<bool> generator_done{false};
  double follower_cpu_s = 0.0;
  auto follower = [&] {
    const double cpu_start = ThreadCpuSeconds();
    std::vector<StalenessSample> pending;
    int64_t next_backlog_ns = 0;
    int64_t give_up_ns = INT64_MAX;
    while (true) {
      const int64_t now = NowNs();
      // Read before taking the hand-off: once the generator is done, this
      // take collects every sample it will ever push.
      const bool generator_finished = generator_done.load();
      {
        std::lock_guard<std::mutex> lock(sampled_mu);
        pending.insert(pending.end(), sampled.begin(), sampled.end());
        sampled.clear();
      }
      if (now >= next_backlog_ns) {
        const streaming::IngestorStats st = f.ingestor->stats();
        const uint64_t done = st.applied + st.shed + st.dropped;
        r.ingest_backlog_max =
            std::max(r.ingest_backlog_max, st.enqueued > done ? st.enqueued - done : 0);
        next_backlog_ns = now + 5'000'000;
      }
      std::size_t keep = 0;
      for (StalenessSample& sample : pending) {
        if (sample.next_probe_ns <= now) {
          ++r.follower_gets;
          auto cell = f.store->Get(serving::UserRowKey(sample.user), streaming::kFamilyRealtime,
                                   streaming::kQualWindow);
          float c[streaming::kCounterFloats];
          if (cell.ok() && serving::DecodeFloats(*cell, streaming::kCounterFloats, c).ok() &&
              c[9] >= 0.0f &&
              static_cast<int64_t>(c[9]) * 86400 + static_cast<int64_t>(c[10]) >= sample.event_s) {
            r.staleness_ms.push_back(static_cast<float>(NowNs() - sample.reply_ns) / 1e6f);
            continue;
          }
          sample.next_probe_ns = now + 1'000'000;
        }
        pending[keep++] = sample;
      }
      pending.resize(keep);
      if (generator_finished) {
        // Follow the last samples until their counters land (3 s cap).
        if (give_up_ns == INT64_MAX) give_up_ns = now + 3'000'000'000;
        if (pending.empty() || now >= give_up_ns) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    r.staleness_unresolved = pending.size();
    follower_cpu_s = ThreadCpuSeconds() - cpu_start;
  };

  std::vector<OpenLoopStream> streams = {score};
  if (disk) streams.push_back(put);

  r.gw_before = f.gateway->StatsSnapshot();
  r.kv_before = f.store->kv_stats();
  if (f.ingestor != nullptr) r.ing_before = f.ingestor->stats();
  r.router_degraded_before = f.router->degraded_total();
  const uint64_t ctx_before = ContextSwitches();
  const uint64_t allocs_before = titant::allochook::TotalAllocs();
  const double cpu_before = ProcessCpuSeconds();

  const int64_t start_ns = NowNs() + 20'000'000;
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  staleness_cutoff_ns = end_ns - 200'000'000;
  // Four spans per request (request, encode, send-to-reply, decode),
  // reserved up front so recording never reallocates mid-step.
  const std::size_t expected_spans = static_cast<std::size_t>(
      (rate + (disk ? kPutFramesPerSecond : 0.0)) * (seconds + 0.1) * 4.0 * 1.2);
  auto run = [&] {
    ScopedAffinity generator_cpu(GeneratorCpus(args_nproc));
    std::thread follow_thread;
    if (disk) follow_thread = std::thread(follower);
    auto result = RunOpenLoop(f.gateway->port(), streams, start_ns, end_ns, kDrainNs, kDeadlineMs,
                              tracer->NewBuffer(expected_spans));
    generator_done.store(true);
    if (follow_thread.joinable()) follow_thread.join();
    return result;
  }();
  if (!run.ok()) {
    std::fprintf(stderr, "generator failed: %s\n", run.status().ToString().c_str());
    std::exit(2);
  }
  r.proc_cpu_s = ProcessCpuSeconds() - cpu_before;
  r.generator_cpu_s = run->thread_cpu_s + follower_cpu_s;
  r.allocs = titant::allochook::TotalAllocs() - allocs_before;
  r.ctx_switches = ContextSwitches() - ctx_before;
  r.score = std::move(run->streams[0]);
  if (disk) r.put = std::move(run->streams[1]);
  r.gw_after = f.gateway->StatsSnapshot();
  r.kv_after = f.store->kv_stats();
  r.router_degraded_after = f.router->degraded_total();
  if (f.ingestor != nullptr) {
    f.ingestor->Drain();
    r.ing_after = f.ingestor->stats();
  }
  return r;
}

void PrintStep(const char* label, double rate, double seconds, const StepResult& s) {
  std::printf(
      "%-10s rate %7.0f req/s  %4.1fs  sent %7llu ok %7llu failed %llu  p50 %7.1f us  "
      "p99 %8.1f us  lateness p99 %6.1f us  outstanding max %llu%s%s\n",
      label, rate, seconds, static_cast<unsigned long long>(s.score.sent),
      static_cast<unsigned long long>(s.score.ok), static_cast<unsigned long long>(s.failed()),
      s.p50_us(), s.p99_us(), s.lateness_p99_us(),
      static_cast<unsigned long long>(s.score.outstanding_max),
      s.backlog_growing() ? "  BACKLOG GROWING" : "", s.valid() ? "" : "  INVALID (late generator)");
}

/// Capacity search over the fixed ladder. Returns the highest passing rate
/// (0 when even the lowest rung fails). A rung that misses runs once more
/// and counts as a miss only when both steps miss: one host stall of a few
/// milliseconds can lift a short step's p99 past the limit or make the
/// generator late.
double CapacitySearch(Fixture& f, std::atomic<uint64_t>* stream_pos,
                      std::atomic<uint64_t>* put_pos, double step_seconds,
                      uint64_t seed, int nproc, Tracer* untraced, bool* generator_limited) {
  const std::vector<double> ladder = CapacityLadder();
  int lo = -1;
  int hi = static_cast<int>(ladder.size());
  int step = 0;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    bool passed = false;
    for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
      const StepResult s = RunStep(f, stream_pos, put_pos, ladder[static_cast<std::size_t>(mid)],
                                   step_seconds, true, false, seed + 100 + static_cast<uint64_t>(step++),
                                   nproc, untraced);
      PrintStep("capacity", ladder[static_cast<std::size_t>(mid)], step_seconds, s);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!s.valid()) {
        // A late generator says nothing about the server.
        if (attempt == 1) *generator_limited = true;
        continue;
      }
      passed = s.failed() == 0 && s.p99_us() <= kP99LimitUs && !s.backlog_growing();
    }
    (passed ? lo : hi) = mid;
  }
  return lo < 0 ? 0.0 : ladder[static_cast<std::size_t>(lo)];
}

/// Publishes one synthetic event per sampled user at a stamp past every
/// replayed event, drains, and compares each published "rt"/"win" cell
/// with the aggregator queried at that stamp.
std::string CheckPublishedCounters(Fixture& f, int64_t max_event_s, int* checked) {
  std::vector<titant::txn::UserId> users;
  for (std::size_t i = 0; i < f.test.size() && users.size() < 64; i += 11) {
    users.push_back(f.test[i].from_user);
  }
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  const int64_t stamp = max_event_s + 1;
  for (std::size_t i = 0; i < users.size(); ++i) {
    TransferRequest probe = f.test[0];
    probe.txn_id = kProbeTxnBase + i;
    probe.from_user = users[i];
    probe.day = static_cast<titant::txn::Day>(stamp / 86400);
    probe.second_of_day = static_cast<uint32_t>(stamp % 86400);
    f.ingestor->Submit(probe);
  }
  f.ingestor->Drain();
  for (const titant::txn::UserId user : users) {
    auto cell = f.store->Get(serving::UserRowKey(user), streaming::kFamilyRealtime,
                             streaming::kQualWindow);
    streaming::LiveCounters live;
    if (!cell.ok() || !f.ingestor->aggregator().Query(user, stamp, &live)) {
      return "user " + std::to_string(user) + ": no published cell or no aggregator state";
    }
    float expected[streaming::kCounterFloats];
    streaming::Aggregator::EncodeCounters(live, expected);
    if (*cell != serving::EncodeFloats(expected, streaming::kCounterFloats)) {
      return "user " + std::to_string(user) + ": published counters differ from Aggregator::Query";
    }
    ++*checked;
  }
  return "";
}

/// Counter deltas of step `s`. The gateway's wire and the router's latency
/// histograms are cumulative: they cover every request since the gateway
/// started. `untraced_p50_us` is the client p50 of the untraced step.
void ReportStepCounters(const Fixture& f, const StepResult& s, double untraced_p50_us, bool disk,
                        Report* report) {
  const double verdicts = static_cast<double>(std::max<uint64_t>(1, s.score.ok));
  const double requests = static_cast<double>(std::max<uint64_t>(1, s.attempted()));
  const titant::Histogram wire = f.gateway->WireLatencySnapshot();
  const titant::Histogram router = f.router->AggregateLatency();
  report->Set("net.transport_p50_us", untraced_p50_us - wire.P50(), "us");
  report->Set("net.shed", static_cast<double>(s.gw_after.requests_shed - s.gw_before.requests_shed), "count");
  report->Set("net.expired",
              static_cast<double>(s.gw_after.requests_expired - s.gw_before.requests_expired), "count");
  report->Set("serving.wire_p50_us", wire.P50(), "us");
  report->Set("serving.wire_p99_us", wire.P99(), "us");
  const uint64_t batches = s.gw_after.coalesced_batches - s.gw_before.coalesced_batches;
  report->Set("serving.rows_per_dispatch",
              batches == 0 ? 0.0
                           : static_cast<double>(s.gw_after.coalesced_rows - s.gw_before.coalesced_rows) /
                                 static_cast<double>(batches),
              "rows");
  report->Set("serving.router_p50_us", router.P50(), "us");
  report->Set("serving.router_p99_us", router.P99(), "us");
  report->Set("serving.degraded",
              static_cast<double>(s.router_degraded_after - s.router_degraded_before), "count");
  const uint64_t hits = s.kv_after.cache_hits - s.kv_before.cache_hits;
  const uint64_t misses = s.kv_after.cache_misses - s.kv_before.cache_misses;
  // Five probes per verdict (snapshot, aux, city, embedding, live
  // counters) plus the staleness follower's reads.
  const double probes = 5.0 * static_cast<double>(s.score.sent) + static_cast<double>(s.follower_gets);
  report->Set("kvstore.cache_lookups", static_cast<double>(hits + misses), "count");
  report->Set("kvstore.cache_hit_ratio",
              hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses),
              "ratio");
  report->Set("kvstore.block_reads_per_probe", static_cast<double>(misses) / probes, "blocks/probe");
  report->Set("kvstore.flushes", static_cast<double>(s.kv_after.flushes - s.kv_before.flushes), "count");
  report->Set("kvstore.compactions",
              static_cast<double>(s.kv_after.compactions - s.kv_before.compactions), "count");
  report->Set("kvstore.stall_ms",
              static_cast<double>(s.kv_after.stall_us - s.kv_before.stall_us) / 1e3, "ms");
  const uint64_t put_cells = s.ing_after.put_cells - s.ing_before.put_cells;
  const uint64_t published =
      s.ing_after.counter_cells_published - s.ing_before.counter_cells_published;
  const double cell_bytes = static_cast<double>(put_cells + published) * kCounterCellBytes;
  report->Set("kvstore.write_amp",
              cell_bytes == 0.0 ? 0.0
                                : static_cast<double>(s.kv_after.maintenance_bytes_written -
                                                      s.kv_before.maintenance_bytes_written) /
                                      cell_bytes,
              "ratio");
  const uint64_t applied = s.ing_after.applied - s.ing_before.applied;
  report->Set("streaming.fold_ratio", disk ? static_cast<double>(applied) / verdicts : 0.0, "ratio");
  report->Set("streaming.applied", static_cast<double>(applied), "count");
  report->Set("streaming.shed", static_cast<double>(s.ing_after.shed - s.ing_before.shed), "count");
  report->Set("streaming.dropped", static_cast<double>(s.ing_after.dropped - s.ing_before.dropped), "count");
  report->Set("streaming.deduped", static_cast<double>(s.ing_after.deduped - s.ing_before.deduped), "count");
  report->Set("streaming.cells_per_event",
              applied == 0 ? 0.0 : static_cast<double>(published) / static_cast<double>(applied),
              "cells/event");
  report->Set("streaming.backlog_max", static_cast<double>(s.ingest_backlog_max), "events");
  report->Set("proc.ctx_switches_per_req", static_cast<double>(s.ctx_switches) / requests, "count/req");
  report->Set("proc.allocs_per_req", static_cast<double>(s.allocs) / requests, "count/req");
  report->Set("gen.lateness_p99_us", s.lateness_p99_us(), "us");
  report->Set("gen.outstanding_max", static_cast<double>(s.score.outstanding_max), "count");
}

}  // namespace

void RunScoreWorkload(const RunArgs& args, bool disk, Report* report, Tracer* tracer) {
  const double nominal = disk ? kDiskNominalRps : kMemNominalRps;
  std::printf("workload %s: open-loop Poisson kScore singles at %.0f req/s over %d pipelined "
              "connections%s, one generator thread\n",
              args.workload.c_str(), nominal, kScoreConnections,
              disk ? ", plus one kPutBatch writer connection" : "");
  if (disk) {
    std::printf("store: durable, %zu KiB block cache, memtable flush at %zu cells per stripe, "
                "compaction at %d SSTables, background maintenance on, ingestor with a "
                "durable event log; writer: %.0f frames/s x %d cells\n",
                kDiskCacheBytes >> 10, kDiskMemtableCells, kDiskCompactionTrigger,
                kPutFramesPerSecond, kCellsPerPut);
  } else {
    std::printf("store: memory-resident FeatureTableOptions() (%d stripes), no ingestor\n",
                serving::kFeatureTableShards);
  }

  // Set-up, several times; the last fixture is the one measured.
  Tracer untraced(false);
  std::vector<double> setup_s;
  std::vector<T1Steps> jobs;
  std::vector<double> aucs;
  std::unique_ptr<Fixture> f;
  for (int k = 0; k < kSetupRepeats; ++k) {
    f.reset();
    f = BuildFixture(args, disk, k, k + 1 == kSetupRepeats ? tracer->NewBuffer() : nullptr);
    if (f == nullptr) {
      report->Check("setup", false, "set-up failed");
      return;
    }
    setup_s.push_back(f->setup_s);
    jobs.push_back(f->job.steps);
    aucs.push_back(f->t1_auc);
    std::printf("setup %d: %.3f s (T+1 job %.3f s, test-day AUC %.6f, %zu test rows)\n", k,
                f->setup_s, f->job.steps.job_s, f->t1_auc, f->test.size());
  }
  report->Set("setup_s", Median(setup_s), "s");
  std::vector<double> job_s;
  for (const T1Steps& j : jobs) job_s.push_back(j.job_s);
  report->Set("t1_job_s", Median(job_s), "s");
  report->Set("t1_auc", aucs.back(), "AUC");
  ReportT1Steps(jobs, report);
  report->Check("t1_auc_repeats_across_setups",
                std::all_of(aucs.begin(), aucs.end(), [&](double a) { return a == aucs[0]; }),
                Fmt("AUC %.6f", aucs[0]) + " at " + std::to_string(args.nproc) + " threads");

  // The replay starts at a seed-chosen transfer of the test day.
  std::atomic<uint64_t> stream_pos{(args.seed * 7919) % f->test.size()};
  std::atomic<uint64_t> put_pos{0};
  // Untimed warm-up at the nominal rate: lazy per-thread state in the
  // server and the generator's first-touch page faults happen here.
  const StepResult warmup = RunStep(*f, &stream_pos, &put_pos, nominal, kWarmupSeconds, !disk, disk,
                                    args.seed + 7, args.nproc, &untraced);
  PrintStep("warm-up", nominal, kWarmupSeconds, warmup);
  const double step_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const StepResult nominal_step =
      RunStep(*f, &stream_pos, &put_pos, nominal, step_seconds, !disk, disk, args.seed, args.nproc,
              &untraced);
  PrintStep("nominal", nominal, step_seconds, nominal_step);
  const StepResult* counters_step = &nominal_step;
  StepResult traced_step;
  if (args.trace) {
    traced_step = RunStep(*f, &stream_pos, &put_pos, nominal, step_seconds, !disk, disk,
                          args.seed + 1, args.nproc, tracer);
    PrintStep("traced", nominal, step_seconds, traced_step);
    counters_step = &traced_step;
    std::printf("tracing overhead: p50 %.1f -> %.1f us, p99 %.1f -> %.1f us, cpu %.2f -> %.2f us/req\n",
                nominal_step.p50_us(), traced_step.p50_us(), nominal_step.p99_us(),
                traced_step.p99_us(), nominal_step.server_cpu_us_per_verdict(),
                traced_step.server_cpu_us_per_verdict());
    report->Set("trace.overhead_ratio", traced_step.p50_us() / nominal_step.p50_us() - 1.0,
                "ratio");
  }

  // End-to-end numbers come from the untraced step.
  const StepResult& s = nominal_step;
  report->Set("score_p50_us", s.p50_us(), "us");
  report->Set("score_p99_us", s.p99_us(), "us");

  report->Set("score_samples", static_cast<double>(s.score.rtt_us.size()), "count");
  report->Set("score_cpu_us", s.server_cpu_us_per_verdict(), "us/req");
  report->Set("error_ratio",
              static_cast<double>(s.failed()) / static_cast<double>(std::max<uint64_t>(1, s.attempted())),
              "ratio");
  report->Count(s.attempted(), s.failed());
  if (disk) {
    report->Set("put_p99_us", Percentile(s.put.rtt_us, 99.0), "us");
    report->Set("counter_staleness_p99_ms", Percentile(s.staleness_ms, 99.0), "ms");
    std::printf("writer: %llu frames, put p50 %.1f us, p99 %.1f us; staleness over %zu samples: "
                "p50 %.2f ms, p99 %.2f ms\n",
                static_cast<unsigned long long>(s.put.sent), Percentile(s.put.rtt_us, 50.0),
                Percentile(s.put.rtt_us, 99.0), s.staleness_ms.size(),
                Percentile(s.staleness_ms, 50.0), Percentile(s.staleness_ms, 99.0));
  } else {
    report->Set("put_p99_us", 0.0, "us");
    report->Set("counter_staleness_p99_ms", 0.0, "ms");
  }
  ReportStepCounters(*f, *counters_step, nominal_step.p50_us(), disk, report);

  // Output checks on every measured step.
  std::vector<const StepResult*> measured = {&nominal_step};
  if (args.trace) measured.push_back(&traced_step);
  for (const StepResult* step : measured) {
    report->Check("verdicts_ok",
                  step->failed() == 0 && step->score.unanswered == 0,
                  std::to_string(step->attempted()) + " sent, " + std::to_string(step->failed()) +
                      " failed: shed=" + std::to_string(step->shed_status) +
                      " expired=" + std::to_string(step->expired_status) +
                      " errors=" + std::to_string(step->error_status) +
                      " degraded=" + std::to_string(step->degraded) +
                      " put_errors=" + std::to_string(step->put_errors));
    report->Check(disk ? "verdict_model_version" : "verdicts_equal_in_process_reference",
                  step->mismatches == 0, std::to_string(step->mismatches) + " mismatches");
    if (!disk) {
      const kv::KvStoreStats& a = step->kv_after;
      const kv::KvStoreStats& b = step->kv_before;
      report->Check("score_mem_touches_no_disk_maintenance_or_ingest",
                    a.cache_hits + a.cache_misses == b.cache_hits + b.cache_misses &&
                        a.flushes == b.flushes && a.compactions == b.compactions &&
                        step->gw_after.ingest_enqueued == 0,
                    "block-cache lookups, flushes, compactions and ingest events all zero");
    }
  }

  if (disk) {
    report->Check("streaming_deduped_zero", s.ing_after.deduped == s.ing_before.deduped,
                  std::to_string(s.ing_after.deduped - s.ing_before.deduped) + " deduped");
    const double fold = static_cast<double>(s.ing_after.applied - s.ing_before.applied) /
                        static_cast<double>(std::max<uint64_t>(1, s.score.ok));
    report->Check("streaming_fold_ratio_at_least_0.99", fold >= 0.99, Fmt("fold ratio %.4f", fold));
    report->Check("staleness_samples_resolved", s.staleness_unresolved == 0 && !s.staleness_ms.empty(),
                  std::to_string(s.staleness_ms.size()) + " resolved, " +
                      std::to_string(s.staleness_unresolved) + " unresolved");
    const uint64_t hits = s.kv_after.cache_hits - s.kv_before.cache_hits;
    const uint64_t misses = s.kv_after.cache_misses - s.kv_before.cache_misses;
    report->Check("most_probes_miss_the_block_cache", misses > hits,
                  std::to_string(hits) + " hits, " + std::to_string(misses) + " misses");
    const uint64_t compactions = s.kv_after.compactions - s.kv_before.compactions;
    report->Check("compactions_in_window_at_least_stripe_count", compactions >= f->store->num_shards(),
                  std::to_string(compactions) + " compactions over " +
                      std::to_string(f->store->num_shards()) + " stripes");
    // Sampled writer rows read back at the last version written (the
    // value encodes its version). The last step wrote every row.
    std::size_t put_ok = 0;
    std::string put_detail;
    for (const auto& [row, last] : (args.trace ? traced_step : nominal_step).put_last) {
      auto got = f->store->Get(serving::UserRowKey(kPutUserBase + row), streaming::kFamilyRealtime,
                               streaming::kQualWindow);
      if (got.ok() && *got == last.second) {
        ++put_ok;
      } else if (put_detail.empty()) {
        put_detail = "row " + std::to_string(row) + " did not read back at version " +
                     std::to_string(last.first);
      }
    }
    report->Check("put_cells_read_back", put_detail.empty() && put_ok > 0,
                  put_detail.empty() ? std::to_string(put_ok) + " sampled cells" : put_detail);
    int64_t max_event_s = 0;
    for (uint64_t i = 0; i < stream_pos.load(); ++i) {
      max_event_s = std::max(max_event_s, streaming::EventSeconds(f->At(i)));
    }
    int checked = 0;
    const std::string counters = CheckPublishedCounters(*f, max_event_s, &checked);
    report->Check("published_counters_equal_aggregator", counters.empty() && checked > 0,
                  counters.empty() ? std::to_string(checked) + " sampled users" : counters);
  }

  if (args.trace) {
    if (!disk) {
      bool generator_limited = false;
      const double capacity = CapacitySearch(*f, &stream_pos, &put_pos, kCapacityStepSeconds,
                                             args.seed, args.nproc, &untraced, &generator_limited);
      report->Set("score_max_rps", capacity, "req/s");
      std::printf("score_max_rps %.0f req/s (p99 <= %.0f us, no failures, no growing backlog)%s\n",
                  capacity, kP99LimitUs, generator_limited ? "; generator-limited steps seen" : "");
    } else {
      report->Set("score_max_rps", 0.0, "req/s");
    }
    auto test_matrix =
        f->job.trainer->BuildMatrix(f->window.test_records, titant::core::FeatureSet::kBasicDW);
    LayerInputs in;
    in.store = f->store.get();
    in.router = f->router.get();
    in.blob = f->job.blob;
    in.version = kModelVersion;
    in.model = f->job.model.get();
    in.test_matrix = test_matrix.ok() ? &*test_matrix : nullptr;
    in.requests = &f->test;
    in.threads = args.nproc;
    if (in.test_matrix == nullptr) {
      report->Check("layer_pass", false, "BuildMatrix(test rows) failed");
    } else {
      auto layers = RunLayerPass(in, 0.25, tracer);
      report->Check("layer_pass", layers.ok(), layers.ok() ? "" : layers.status().ToString());
      if (layers.ok()) {
        report->Set("serving.router_us_per_row", layers->router_us_per_row, "us");
        report->Set("serving.score_span_us_per_row.b1", layers->score_span_us_per_row_b1, "us");
        report->Set("serving.score_span_us_per_row.b16", layers->score_span_us_per_row_b16, "us");
        report->Set("serving.score_span_scaling", layers->score_span_scaling, "ratio");
        report->Set("kvstore.multiget_us_per_row", layers->multiget_us_per_row, "us");
        report->Set("ml.gbdt_score_us_per_row.b1", layers->gbdt_us_per_row_b1, "us");
        report->Set("ml.gbdt_score_us_per_row.b16", layers->gbdt_us_per_row_b16, "us");
      }
    }
  }
  if (f->ingestor != nullptr) (void)f->ingestor->Shutdown();
  (void)f->gateway->Shutdown();
}

}  // namespace perfbench
