#include "maxcompute/odps.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "maxcompute/sql_parser.h"

namespace titant::maxcompute {

MaxCompute::MaxCompute(MaxComputeOptions options) : options_(std::move(options)) {}
MaxCompute::~MaxCompute() = default;

StatusOr<std::unique_ptr<MaxCompute>> MaxCompute::Open(MaxComputeOptions options) {
  if (options.fuxi_slots < 1) return Status::InvalidArgument("need at least one Fuxi slot");
  if (options.rows_per_subtask == 0) {
    return Status::InvalidArgument("rows_per_subtask must be positive");
  }
  auto mc = std::unique_ptr<MaxCompute>(new MaxCompute(options));
  TITANT_ASSIGN_OR_RETURN(PanguStore pangu, PanguStore::Open(options.pangu_dir));
  mc->pangu_ = std::make_unique<PanguStore>(std::move(pangu));
  mc->fuxi_ = std::make_unique<FuxiScheduler>(options.fuxi_slots);
  if (options.fuxi_slots > 1) {
    // Separate pool from the Fuxi slots: the query itself occupies a slot
    // while its partitioned scan fans out here, so sharing would deadlock.
    mc->scan_pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(options.fuxi_slots));
  }
  return mc;
}

MaxComputeSqlStats MaxCompute::sql_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sql_stats_;
}

StatusOr<std::shared_ptr<const Query>> MaxCompute::ParseCached(const std::string& query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plan_cache_.find(query);
    if (it != plan_cache_.end()) {
      ++sql_stats_.plan_cache_hits;
      // LRU touch: a hit moves to the back so a repeating workload's hot
      // parses are never the eviction victim (FIFO evicted the hottest
      // entry precisely because it was inserted first).
      plan_cache_lru_.splice(plan_cache_lru_.end(), plan_cache_lru_, it->second.second);
      return it->second.first;
    }
  }
  auto parsed = ParseSql(query);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++sql_stats_.parse_failures;
    return parsed.status();
  }
  auto shared = std::make_shared<const Query>(std::move(parsed).value());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plan_cache_.find(query);
  if (it != plan_cache_.end()) {
    // Raced with another parser of the same text; keep the incumbent.
    return it->second.first;
  }
  if (plan_cache_.size() >= options_.plan_cache_capacity && !plan_cache_lru_.empty()) {
    plan_cache_.erase(plan_cache_lru_.front());
    plan_cache_lru_.pop_front();
    ++sql_stats_.plan_cache_evictions;
  }
  plan_cache_lru_.push_back(query);
  plan_cache_.emplace(query, PlanCacheEntry{shared, std::prev(plan_cache_lru_.end())});
  return shared;
}

Status MaxCompute::CreateTable(const std::string& name, Table table) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  TITANT_RETURN_IF_ERROR(pangu_->PutTable(TableBlobName(name), table));
  std::lock_guard<std::mutex> lock(mu_);
  cache_[name] = std::make_unique<Table>(std::move(table));
  return Status::OK();
}

StatusOr<const Table*> MaxCompute::GetTable(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) return it->second.get();
  }
  TITANT_ASSIGN_OR_RETURN(Table table, pangu_->GetTable(TableBlobName(name)));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(name, std::make_unique<Table>(std::move(table)));
  return it->second.get();
}

Status MaxCompute::DropTable(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(name);
  }
  return pangu_->DeleteBlob(TableBlobName(name));
}

std::vector<std::string> MaxCompute::ListTables() const {
  std::vector<std::string> out;
  for (const std::string& blob : pangu_->List()) {
    if (blob.rfind("table/", 0) == 0) out.push_back(blob.substr(6));
  }
  return out;
}

StatusOr<std::string> MaxCompute::SubmitSqlJob(const std::string& query,
                                               const std::string& output_table,
                                               const std::string& submitter) {
  const std::string instance_id = ots_.RegisterInstance(
      (submitter.empty() ? std::string() : "[" + submitter + "] ") + "sql: " + query);
  TITANT_RETURN_IF_ERROR(ots_.UpdateStatus(instance_id, InstanceStatus::kRunning));

  // Compile once (or fetch the parse from the plan cache — the Query is
  // schema-independent), then bind + execute on a Fuxi slot. The scan
  // itself fans out over the scan pool in rows_per_subtask partitions.
  auto parsed = ParseCached(query);
  if (!parsed.ok()) {
    (void)ots_.UpdateStatus(instance_id, InstanceStatus::kFailed, parsed.status().ToString());
    return parsed.status();
  }
  std::shared_ptr<const Query> plan = std::move(parsed).value();

  SqlExecOptions exec_options;
  exec_options.pool = scan_pool_.get();
  exec_options.partition_rows = options_.rows_per_subtask;

  Status result = Status::OK();
  Table output;
  SqlExecStats exec_stats;
  fuxi_->Submit(/*priority=*/1, [&] {
    auto table = ExecuteQuery(
        *plan,
        [this](const std::string& name) -> StatusOr<const Table*> {
          // Resolver: case-insensitive lookup against stored tables.
          for (const std::string& candidate : ListTables()) {
            std::string upper = candidate;
            for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
            if (upper == name) return GetTable(candidate);
          }
          return Status::NotFound("table " + name);
        },
        exec_options, &exec_stats);
    if (!table.ok()) {
      result = table.status();
    } else {
      output = std::move(table).value();
    }
  });
  fuxi_->Wait();

  if (!result.ok()) {
    (void)ots_.UpdateStatus(instance_id, InstanceStatus::kFailed, result.ToString());
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sql_stats_.queries_executed;
    sql_stats_.rows_scanned += exec_stats.rows_scanned;
    sql_stats_.batches_scanned += exec_stats.batches;
  }
  TITANT_RETURN_IF_ERROR(CreateTable(output_table, std::move(output)));
  TITANT_RETURN_IF_ERROR(ots_.UpdateStatus(instance_id, InstanceStatus::kTerminated));
  return instance_id;
}

StatusOr<std::string> MaxCompute::SubmitMapReduceJob(const std::string& input_table,
                                                     const Mapper& mapper,
                                                     const Reducer& reducer,
                                                     Schema output_schema,
                                                     const std::string& output_table) {
  const std::string instance_id = ots_.RegisterInstance("mapreduce over " + input_table);
  TITANT_RETURN_IF_ERROR(ots_.UpdateStatus(instance_id, InstanceStatus::kRunning));

  TITANT_ASSIGN_OR_RETURN(const Table* input, GetTable(input_table));
  const std::size_t n = input->num_rows();
  const std::size_t shard_rows = options_.rows_per_subtask;
  const std::size_t num_shards = n == 0 ? 1 : (n + shard_rows - 1) / shard_rows;

  // Map phase: one subtask per shard, each with its own emit buffer. The
  // buffers are hash maps — the hot emit path pays one hash probe, not a
  // red-black rebalance; ordering is restored once, at the drain below.
  // Mapper input rows are materialized through a per-shard row cursor
  // (one reused Row) off the columnar table.
  std::vector<std::unordered_map<std::string, std::vector<Row>>> shard_outputs(num_shards);
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    fuxi_->Submit(/*priority=*/1, [&, shard] {
      const std::size_t begin = shard * shard_rows;
      const std::size_t end = std::min(n, begin + shard_rows);
      auto& local = shard_outputs[shard];
      Row cursor;
      for (std::size_t r = begin; r < end; ++r) {
        input->MaterializeRowInto(r, &cursor);
        mapper(cursor, [&local](std::string key, Row value) {
          local[std::move(key)].push_back(std::move(value));
        });
      }
    });
  }
  fuxi_->Wait();

  // Shuffle: merge shard outputs by key (hash-merged, shard order keeps
  // row order deterministic within a key).
  std::unordered_map<std::string, std::vector<Row>> merged;
  for (auto& shard : shard_outputs) {
    for (auto& [key, rows] : shard) {
      auto& sink = merged[key];
      for (auto& row : rows) sink.push_back(std::move(row));
    }
  }

  // Sorted-key drain: reducers still see keys in lexicographic order, the
  // same deterministic order the std::map shuffle produced.
  std::vector<const std::string*> keys;
  keys.reserve(merged.size());
  for (const auto& [key, rows] : merged) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  const std::size_t reducers =
      std::min<std::size_t>(static_cast<std::size_t>(options_.fuxi_slots),
                            std::max<std::size_t>(1, keys.size()));
  std::vector<std::vector<Row>> reduce_outputs(reducers);
  std::atomic<bool> reduce_ok{true};
  for (std::size_t p = 0; p < reducers; ++p) {
    fuxi_->Submit(/*priority=*/2, [&, p] {
      for (std::size_t i = p; i < keys.size(); i += reducers) {
        std::vector<Row> rows = reducer(*keys[i], merged[*keys[i]]);
        for (auto& row : rows) {
          if (row.size() != output_schema.num_columns()) {
            reduce_ok.store(false);
            return;
          }
          reduce_outputs[p].push_back(std::move(row));
        }
      }
    });
  }
  fuxi_->Wait();

  if (!reduce_ok.load()) {
    const Status failure =
        Status::InvalidArgument("reducer emitted a row not matching the output schema");
    (void)ots_.UpdateStatus(instance_id, InstanceStatus::kFailed, failure.ToString());
    return failure;
  }

  Table output{std::move(output_schema)};
  for (auto& part : reduce_outputs) {
    TITANT_RETURN_IF_ERROR(output.AppendAll(std::move(part)));
  }
  TITANT_RETURN_IF_ERROR(CreateTable(output_table, std::move(output)));
  TITANT_RETURN_IF_ERROR(ots_.UpdateStatus(instance_id, InstanceStatus::kTerminated));
  return instance_id;
}

}  // namespace titant::maxcompute
