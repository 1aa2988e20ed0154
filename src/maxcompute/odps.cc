#include "maxcompute/odps.h"

#include <cctype>
#include <vector>

#include "common/thread_pool.h"
#include "maxcompute/sql_exec.h"
#include "maxcompute/sql_parser.h"

namespace titant::maxcompute {

namespace {

// The partitioned scan: a query over at least two partitions fans them
// out over this many threads. Partitioning depends only on
// kPartitionRows, so results never depend on the thread count.
constexpr std::size_t kScanThreads = 4;
constexpr std::size_t kPartitionRows = 50'000;

}  // namespace

MaxCompute::MaxCompute() = default;
MaxCompute::~MaxCompute() = default;

StatusOr<std::unique_ptr<MaxCompute>> MaxCompute::Open(MaxComputeOptions options) {
  auto mc = std::unique_ptr<MaxCompute>(new MaxCompute());
  TITANT_ASSIGN_OR_RETURN(PanguStore pangu, PanguStore::Open(options.pangu_dir));
  mc->pangu_ = std::make_unique<PanguStore>(std::move(pangu));
  mc->scan_pool_ = std::make_unique<ThreadPool>(kScanThreads);
  return mc;
}

MaxComputeSqlStats MaxCompute::sql_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sql_stats_;
}

Status MaxCompute::CreateTable(const std::string& name, Table table) {
  return StoreTable(name, std::move(table)).status();
}

StatusOr<const Table*> MaxCompute::StoreTable(const std::string& name, Table table) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  TITANT_RETURN_IF_ERROR(pangu_->PutTable(TableBlobName(name), table));
  auto stored = std::make_shared<const Table>(std::move(table));
  std::lock_guard<std::mutex> lock(mu_);
  catalog_[name] = stored;
  return stored.get();
}

StatusOr<const Table*> MaxCompute::GetTable(const std::string& name) {
  TITANT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, LoadTable(name));
  return table.get();
}

StatusOr<std::shared_ptr<const Table>> MaxCompute::LoadTable(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(name);
    if (it != catalog_.end()) return it->second;
  }
  TITANT_ASSIGN_OR_RETURN(Table table, pangu_->GetTable(TableBlobName(name)));
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent load or CreateTable may have won; keep the incumbent.
  auto [it, inserted] = catalog_.emplace(name, std::make_shared<const Table>(std::move(table)));
  return it->second;
}

StatusOr<std::shared_ptr<const Table>> MaxCompute::ResolveTable(const std::string& name) {
  for (const std::string& blob : pangu_->List()) {
    if (blob.rfind("table/", 0) != 0) continue;
    const std::string candidate = blob.substr(6);
    std::string upper = candidate;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (upper == name) return LoadTable(candidate);
  }
  return Status::NotFound("table " + name);
}

StatusOr<const Table*> MaxCompute::SubmitSqlJob(const std::string& query,
                                                const std::string& output_table) {
  auto parsed = ParseSql(query);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++sql_stats_.parse_failures;
    return parsed.status();
  }

  // Every table the query names stays pinned until the job ends, so a
  // concurrent CreateTable of the same name cannot free it mid-scan.
  std::vector<std::shared_ptr<const Table>> pinned;
  SqlExecOptions exec_options;
  exec_options.pool = scan_pool_.get();
  exec_options.partition_rows = kPartitionRows;
  SqlExecStats exec_stats;
  TITANT_ASSIGN_OR_RETURN(
      Table output,
      ExecuteQuery(
          *parsed,
          [this, &pinned](const std::string& name) -> StatusOr<const Table*> {
            TITANT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, ResolveTable(name));
            pinned.push_back(table);
            return table.get();
          },
          exec_options, &exec_stats));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sql_stats_.queries_executed;
    sql_stats_.rows_scanned += exec_stats.rows_scanned;
    sql_stats_.batches_scanned += exec_stats.batches;
  }
  return StoreTable(output_table, std::move(output));
}

}  // namespace titant::maxcompute
