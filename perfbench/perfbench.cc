// The repository benchmark's binary (run it through run.py, which
// builds it and adds provenance):
//
//   titant_perfbench --workload score_mem|score_disk_ingest|t1_daily
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints a readable report — every metric by name and unit, every output
// check — and, as its last line, "PERFBENCH_RESULT " followed by one JSON
// object holding all of it. Exits 1 when a check fails. With --trace 1
// the run also records spans (DIR/spans.jsonl) and measures the
// per-layer numbers.

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_hook.h"
#include "datagen/world.h"
#include "layer_pass.h"
#include "ml/metrics.h"
#include "serving/feature_store.h"
#include "serving/model_server.h"
#include "txn/window.h"
#include "workloads.h"

namespace perfbench {

uint64_t ContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

void ReportT1Steps(const std::vector<T1Steps>& jobs, Report* report) {
  auto median_of = [&](double T1Steps::*field) {
    std::vector<double> v;
    for (const T1Steps& j : jobs) v.push_back(j.*field);
    return Median(v);
  };
  report->Set("maxcompute.load_s", median_of(&T1Steps::maxcompute_s), "s");
  report->Set("graph.network_s", median_of(&T1Steps::network_s), "s");
  report->Set("nrl.deepwalk_s", median_of(&T1Steps::deepwalk_s), "s");
  report->Set("core.extract_s", median_of(&T1Steps::extract_s), "s");
  report->Set("ml.gbdt_fit_s", median_of(&T1Steps::fit_s), "s");
  report->Set("kvstore.upload_s", median_of(&T1Steps::upload_s), "s");
  report->Set("serving.load_model_s", median_of(&T1Steps::load_s), "s");
  report->Set("maxcompute.rows_scanned", static_cast<double>(jobs.back().rows_scanned), "count");
  std::vector<double> cores;
  for (const T1Steps& j : jobs) cores.push_back(j.job_s > 0.0 ? j.cpu_s / j.job_s : 0.0);
  report->Set("proc.t1_cores_used", Median(cores), "cores");
}

titant::serving::TransferRequest RequestFor(const titant::txn::TransactionRecord& rec) {
  titant::serving::TransferRequest req;
  req.txn_id = rec.txn_id;
  req.from_user = rec.from_user;
  req.to_user = rec.to_user;
  req.amount = rec.amount;
  req.day = rec.day;
  req.second_of_day = rec.second_of_day;
  req.channel = rec.channel;
  req.trans_city = rec.trans_city;
  req.is_new_device = rec.is_new_device;
  return req;
}

namespace {

namespace kv = titant::kvstore;
namespace serving = titant::serving;

constexpr int kT1Users = 2000;
constexpr uint64_t kT1Version = 20170410;
constexpr int kScoringPassesPerJob = 3;
/// t1_daily's set-up takes well under a second, so it repeats more often
/// than the score workloads' to steady its median.
constexpr int kT1SetupRepeats = 7;
/// One job per this many seconds of --seconds (a job takes about this
/// long on a 4-core host), at least two.
constexpr double kSecondsPerJob = 6.0;

/// Metrics that only the wire workloads produce; t1_daily makes no
/// scoring calls over the wire, so they read zero there.
void ReportNoWire(Report* report) {
  for (const char* name :
       {"net.transport_p50_us", "serving.wire_p50_us", "serving.wire_p99_us",
        "serving.router_p50_us", "serving.router_p99_us", "gen.lateness_p99_us"}) {
    report->Set(name, 0.0, "us");
  }
  for (const char* name : {"net.shed", "net.expired", "serving.degraded", "gen.outstanding_max",
                           "streaming.shed", "streaming.dropped", "streaming.deduped",
                           "streaming.applied"}) {
    report->Set(name, 0.0, "count");
  }
  report->Set("serving.rows_per_dispatch", 0.0, "rows");
  report->Set("streaming.fold_ratio", 0.0, "ratio");
  report->Set("streaming.cells_per_event", 0.0, "cells/event");
  report->Set("streaming.backlog_max", 0.0, "events");
  report->Set("put_p99_us", 0.0, "us");
  report->Set("counter_staleness_p99_ms", 0.0, "ms");
  report->Set("score_max_rps", 0.0, "req/s");
}

}  // namespace

void RunT1Daily(const RunArgs& args, Report* report, Tracer* tracer) {
  const titant::txn::Day first_test = titant::txn::DateToDay("2017-04-10");
  titant::datagen::WorldOptions world_options;
  world_options.num_users = kT1Users;
  world_options.num_days = 112;
  world_options.first_day = first_test - 104;
  // The fixed data set. With the fixed training seed it makes t1_daily
  // ignore --seed: every run does the same work.
  world_options.seed = 2019;
  std::printf("workload t1_daily: %d users, %d walks per node, walk/feature/GBDT/upload threads "
              "%d, word2vec threads 1; no scoring over the wire\n",
              kT1Users, kWalksPerNode, args.nproc);

  // Set-up: world generation and the MaxCompute instance, several times.
  std::vector<double> setup_s;
  titant::datagen::World world;
  std::unique_ptr<titant::maxcompute::MaxCompute> compute;
  for (int k = 0; k < kT1SetupRepeats; ++k) {
    const int64_t start = NowNs();
    compute.reset();
    auto generated = titant::datagen::GenerateWorld(world_options);
    if (!generated.ok()) {
      report->Check("setup", false, generated.status().ToString());
      return;
    }
    world = std::move(generated).value();
    titant::maxcompute::MaxComputeOptions mc_options;
    mc_options.pangu_dir = args.workdir + "/pangu-" + std::to_string(k);
    std::filesystem::remove_all(mc_options.pangu_dir);
    auto opened = titant::maxcompute::MaxCompute::Open(mc_options);
    if (!opened.ok()) {
      report->Check("setup", false, opened.status().ToString());
      return;
    }
    compute = std::move(opened).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->Set("setup_s", Median(setup_s), "s");
  std::printf("setup: world generation + MaxCompute open, median %.3f s over %d\n",
              Median(setup_s), kT1SetupRepeats);
  auto windows = titant::txn::SliceWeek(world.log, first_test, 1);
  if (!windows.ok()) {
    report->Check("setup", false, windows.status().ToString());
    return;
  }
  const titant::txn::DatasetWindow window = windows->front();

  // The timed jobs. In a traced run, odd jobs record spans and even jobs
  // do not, so the two medians give the tracing overhead.
  const int jobs_to_run = std::max(2, static_cast<int>(args.seconds / kSecondsPerJob));
  std::vector<T1Steps> untraced_jobs;
  std::vector<double> traced_job_s;
  std::vector<double> aucs;
  std::vector<float> latency_us;  // Every in-process verdict after the jobs.
  double scoring_cpu_s = 0.0;
  uint64_t attempted = 0;  // Jobs and in-process verdicts.
  uint64_t failed = 0;
  uint64_t ctx_switches = 0;
  uint64_t allocs = 0;
  kv::KvStoreStats job_kv{};
  uint64_t missing_snapshots = 0;
  std::unique_ptr<kv::AliHBase> store;
  std::unique_ptr<serving::ModelServer> server;
  T1Output last;
  for (int j = 0; j < jobs_to_run; ++j) {
    server.reset();
    store.reset();
    kv::StoreOptions options = serving::FeatureTableOptions();
    options.dir = args.workdir + "/t1-store-" + std::to_string(j);
    std::filesystem::remove_all(options.dir);
    auto opened = kv::AliHBase::Open(options);
    if (!opened.ok()) {
      report->Check("t1_store_open", false, opened.status().ToString());
      return;
    }
    store = std::move(opened).value();
    server = std::make_unique<serving::ModelServer>(store.get(), serving::ModelServerOptions());
    const bool traced = args.trace && j % 2 == 1;
    const kv::KvStoreStats kv_before = store->kv_stats();
    auto job = RunT1Job(world, window, compute.get(), store.get(), args.nproc, kT1Version,
                        [&](const std::string& blob, uint64_t version) {
                          return server->LoadModel(blob, version);
                        },
                        traced ? tracer->NewBuffer() : nullptr);
    ++attempted;
    if (!job.ok()) {
      ++failed;
      report->Check("t1_job", false, job.status().ToString());
      return;
    }
    const kv::KvStoreStats kv_after = store->kv_stats();
    job_kv.flushes = kv_after.flushes - kv_before.flushes;
    job_kv.compactions = kv_after.compactions - kv_before.compactions;
    job_kv.cache_hits = kv_after.cache_hits - kv_before.cache_hits;
    job_kv.cache_misses = kv_after.cache_misses - kv_before.cache_misses;
    job_kv.stall_us = kv_after.stall_us - kv_before.stall_us;
    if (traced) {
      traced_job_s.push_back(job->steps.job_s);
    } else {
      untraced_jobs.push_back(job->steps);
    }
    std::printf("job %d%s: %.3f s (maxcompute %.3f, network %.3f, deepwalk %.3f, extract %.3f, "
                "fit %.3f, upload %.3f, load %.4f; %.2f cores)\n",
                j, traced ? " (traced)" : "", job->steps.job_s, job->steps.maxcompute_s,
                job->steps.network_s, job->steps.deepwalk_s, job->steps.extract_s,
                job->steps.fit_s, job->steps.upload_s, job->steps.load_s,
                job->steps.cpu_s / job->steps.job_s);

    // After the timer: score the labelled test day in-process through the
    // model the job loaded, over the store it uploaded.
    std::vector<double> scores;
    std::vector<uint8_t> labels;
    const double cpu_before = ProcessCpuSeconds();
    const uint64_t ctx_before = ContextSwitches();
    const uint64_t allocs_before = titant::allochook::TotalAllocs();
    for (int pass = 0; pass < kScoringPassesPerJob; ++pass) {
      for (const std::size_t idx : window.test_records) {
        const auto& rec = world.log.records[idx];
        const serving::TransferRequest req = RequestFor(rec);
        const int64_t t0 = NowNs();
        const auto verdict = server->Score(req);
        latency_us.push_back(static_cast<float>(NowNs() - t0) / 1e3f);
        ++attempted;
        if (!verdict.ok() || verdict->degraded) {
          ++failed;
          continue;
        }
        if (pass == 0) {
          scores.push_back(verdict->fraud_probability);
          labels.push_back(rec.is_fraud ? 1 : 0);
        }
      }
    }
    scoring_cpu_s += ProcessCpuSeconds() - cpu_before;
    ctx_switches += ContextSwitches() - ctx_before;
    allocs += titant::allochook::TotalAllocs() - allocs_before;
    auto auc = titant::ml::RocAuc(scores, labels);
    aucs.push_back(auc.ok() ? *auc : 0.0);
    for (const std::size_t idx : window.test_records) {
      if (!store->Get(serving::UserRowKey(world.log.records[idx].from_user), serving::kFamilyBasic,
                      serving::kQualSnapshot)
               .ok()) {
        ++missing_snapshots;
      }
    }
    last = std::move(job).value();
  }

  std::vector<double> job_s;
  for (const T1Steps& s : untraced_jobs) job_s.push_back(s.job_s);
  report->Set("t1_job_s", Median(job_s), "s");
  report->Set("t1_auc", aucs.front(), "AUC");
  std::printf("t1_auc %.6f (walk/feature/GBDT threads %d, word2vec threads 1, %d walks per node)\n",
              aucs.front(), args.nproc, kWalksPerNode);
  if (!traced_job_s.empty()) {
    std::printf("tracing overhead: t1_job_s %.3f untraced vs %.3f traced (median)\n", Median(job_s),
                Median(traced_job_s));
    report->Set("trace.overhead_ratio", Median(traced_job_s) / Median(job_s) - 1.0, "ratio");
  }
  ReportT1Steps(untraced_jobs, report);

  const double scored = static_cast<double>(latency_us.size());
  const double p50 = Percentile(latency_us, 50.0);
  const double p99 = Percentile(latency_us, 99.0);
  report->Set("score_p50_us", p50, "us");
  report->Set("score_p99_us", p99, "us");
  report->Set("score_samples", scored, "count");
  report->Set("score_cpu_us", scored > 0 ? scoring_cpu_s / scored * 1e6 : 0.0, "us/req");
  report->Set("error_ratio", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  report->Count(attempted, failed);
  std::printf("in-process test-day scoring after the job: %zu verdicts, p50 %.1f us, p99 %.1f us\n",
              latency_us.size(), p50, p99);

  ReportNoWire(report);
  report->Set("kvstore.cache_lookups", static_cast<double>(job_kv.cache_hits + job_kv.cache_misses),
              "count");
  report->Set("kvstore.cache_hit_ratio", 0.0, "ratio");
  report->Set("kvstore.block_reads_per_probe", 0.0, "blocks/probe");
  report->Set("kvstore.flushes", static_cast<double>(job_kv.flushes), "count");
  report->Set("kvstore.compactions", static_cast<double>(job_kv.compactions), "count");
  report->Set("kvstore.stall_ms", static_cast<double>(job_kv.stall_us) / 1e3, "ms");
  report->Set("kvstore.write_amp", 0.0, "ratio");
  report->Set("proc.ctx_switches_per_req", static_cast<double>(ctx_switches) / std::max(1.0, scored),
              "count/req");
  report->Set("proc.allocs_per_req", static_cast<double>(allocs) / std::max(1.0, scored),
              "count/req");

  report->Check("t1_jobs_and_verdicts_ok", failed == 0,
                std::to_string(failed) + " failed of " + std::to_string(attempted));
  report->Check("every_test_day_transferor_has_a_snapshot", missing_snapshots == 0,
                std::to_string(missing_snapshots) + " missing");
  report->Check("t1_auc_repeats_across_jobs",
                std::all_of(aucs.begin(), aucs.end(), [&](double a) { return a == aucs[0]; }),
                std::to_string(aucs.size()) + " jobs");
  report->Check("t1_store_read_free_during_job", job_kv.cache_hits + job_kv.cache_misses == 0,
                "block-cache lookups during the last job: " +
                    std::to_string(job_kv.cache_hits + job_kv.cache_misses));

  if (args.trace) {
    std::vector<serving::TransferRequest> requests;
    for (const std::size_t idx : window.test_records) {
      requests.push_back(RequestFor(world.log.records[idx]));
    }
    auto test_matrix =
        last.trainer->BuildMatrix(window.test_records, titant::core::FeatureSet::kBasicDW);
    LayerInputs in;
    in.store = store.get();
    in.blob = last.blob;
    in.version = kT1Version;
    in.model = last.model.get();
    in.test_matrix = test_matrix.ok() ? &*test_matrix : nullptr;
    in.requests = &requests;
    in.threads = args.nproc;
    auto layers = in.test_matrix != nullptr
                      ? RunLayerPass(in, 0.25, tracer)
                      : titant::StatusOr<LayerNumbers>(titant::Status::Internal("BuildMatrix failed"));
    report->Check("layer_pass", layers.ok(), layers.ok() ? "" : layers.status().ToString());
    if (layers.ok()) {
      report->Set("serving.router_us_per_row", 0.0, "us");  // No router on this path.
      report->Set("serving.score_span_us_per_row.b1", layers->score_span_us_per_row_b1, "us");
      report->Set("serving.score_span_us_per_row.b16", layers->score_span_us_per_row_b16, "us");
      report->Set("serving.score_span_scaling", layers->score_span_scaling, "ratio");
      report->Set("kvstore.multiget_us_per_row", layers->multiget_us_per_row, "us");
      report->Set("ml.gbdt_score_us_per_row.b1", layers->gbdt_us_per_row_b1, "us");
      report->Set("ml.gbdt_score_us_per_row.b16", layers->gbdt_us_per_row_b16, "us");
    }
  }
}

/// CPU brand string from cpuid (no file read needed).
std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                    &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // Trim at the first NUL.
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string Kernel() {
  utsname u{};
  return uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workdir.empty() || args.seconds <= 0.0) {
    std::fprintf(stderr, "usage: %s --workload W --seed N --seconds S --trace 0|1 --workdir DIR\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  const std::string cpu = perfbench::CpuModel();
  const std::string kernel = perfbench::Kernel();
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d, nproc %d, cpu %s, kernel %s, "
              "build %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.nproc, cpu.c_str(), kernel.c_str(), TITANT_BUILD_TYPE);

  perfbench::Report report;
  perfbench::Tracer tracer(args.trace);
  if (args.workload == "score_mem") {
    perfbench::RunScoreWorkload(args, /*disk=*/false, &report, &tracer);
  } else if (args.workload == "score_disk_ingest") {
    perfbench::RunScoreWorkload(args, /*disk=*/true, &report, &tracer);
  } else if (args.workload == "t1_daily") {
    perfbench::RunT1Daily(args, &report, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  if (args.trace) {
    const std::string path = args.workdir + "/spans.jsonl";
    const bool written = tracer.WriteJsonLines(path);
    std::printf("spans: %zu written to %s%s\n", tracer.span_count(), path.c_str(),
                written ? "" : " (WRITE FAILED)");
  }
  report.Provenance("nproc", std::to_string(args.nproc));
  report.Provenance("cpu_model", cpu);
  report.Provenance("kernel", kernel);
  report.Provenance("build_type", TITANT_BUILD_TYPE);
  std::printf("PERFBENCH_RESULT %s\n", report.Json(args.workload, args.seed, args.trace).c_str());
  std::fflush(stdout);
  return report.all_ok() ? 0 : 1;
}
