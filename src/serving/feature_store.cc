#include "serving/feature_store.h"

#include <algorithm>
#include <mutex>

#include "streaming/aggregator.h"

namespace titant::serving {

kvstore::StoreOptions FeatureTableOptions() {
  kvstore::StoreOptions options;
  options.column_families = {kFamilyBasic, kFamilyEmbedding, kFamilyCity,
                             streaming::kFamilyRealtime};
  options.num_shards = kFeatureTableShards;
  return options;
}

namespace {

// Cells are grouped into bounded PutBatch chunks rather than one batch
// per user: each PutBatch pays a WAL append and a lock round-trip, so
// per-user batches made the daily upload WAL-bound. The chunk size caps
// the WAL record (and the memory held per call) while amortizing the
// per-batch cost ~340x. It is also the fan-out unit of the parallel
// upload: one pool task builds and commits roughly one chunk.
constexpr std::size_t kUploadChunkCells = 1024;

// Builds and commits the three cells of every user in [begin, end) in
// chunked PutBatches. Safe to run concurrently for disjoint user ranges:
// the extractor calls are const reads and the store's per-shard locks
// serialize the actual commits.
//
// The upload is two-phase per chunk: phase 1 extracts the whole chunk
// into flat column buffers (all snapshots, all aux pairs), phase 2 walks
// those columns and encodes them into a persistent cell batch. Cells are
// rewritten in place with assign(), so key and value strings keep their
// heap capacity from one chunk to the next — the per-cell boxing cost the
// old per-user push_back/clear cycle paid on every chunk.
Status UploadUserRange(kvstore::AliHBase* store, const core::FeatureExtractor& extractor,
                       const nrl::EmbeddingMatrix& embeddings, txn::Day as_of,
                       uint64_t version, txn::UserId begin, txn::UserId end) {
  constexpr std::size_t kSnapFloats = core::FeatureExtractor::kNumBasicFeatures;
  const std::size_t dim = static_cast<std::size_t>(embeddings.dim());
  const std::size_t chunk_users = std::max<std::size_t>(1, kUploadChunkCells / 3);

  std::vector<float> snapshots(chunk_users * kSnapFloats);
  std::vector<float> auxes(chunk_users * 2);
  std::vector<kvstore::Cell> batch;
  char row_buf[kUserRowKeyLen];

  for (txn::UserId chunk = begin; chunk < end;
       chunk += static_cast<txn::UserId>(chunk_users)) {
    const txn::UserId chunk_end = std::min<txn::UserId>(end, chunk + chunk_users);
    const std::size_t count = chunk_end - chunk;

    // Phase 1: extraction only — a tight loop over the extractor with no
    // string or cell work interleaved.
    for (std::size_t i = 0; i < count; ++i) {
      extractor.ExtractUserSnapshot(chunk + static_cast<txn::UserId>(i), as_of,
                                    &snapshots[i * kSnapFloats], &auxes[i * 2]);
    }

    // Phase 2: one pass per column. Within the batch, cells are grouped
    // by (family, qualifier) lane; the store orders by key on commit, so
    // the uploaded table is identical to the interleaved layout.
    batch.resize(count * 3);
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view row =
          UserRowKeyTo(row_buf, chunk + static_cast<txn::UserId>(i));
      kvstore::Cell& cell = batch[i];
      cell.key.row.assign(row.data(), row.size());
      cell.key.family = kFamilyBasic;
      cell.key.qualifier = kQualSnapshot;
      cell.key.version = version;
      EncodeFloatsTo(&cell.value, &snapshots[i * kSnapFloats], kSnapFloats);
      cell.tombstone = false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view row =
          UserRowKeyTo(row_buf, chunk + static_cast<txn::UserId>(i));
      kvstore::Cell& cell = batch[count + i];
      cell.key.row.assign(row.data(), row.size());
      cell.key.family = kFamilyBasic;
      cell.key.qualifier = kQualAux;
      cell.key.version = version;
      EncodeFloatsTo(&cell.value, &auxes[i * 2], 2);
      cell.tombstone = false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const txn::UserId user = chunk + static_cast<txn::UserId>(i);
      const std::string_view row = UserRowKeyTo(row_buf, user);
      kvstore::Cell& cell = batch[2 * count + i];
      cell.key.row.assign(row.data(), row.size());
      cell.key.family = kFamilyEmbedding;
      cell.key.qualifier = kQualVector;
      cell.key.version = version;
      EncodeFloatsTo(&cell.value, embeddings.Row(user), dim);
      cell.tombstone = false;
    }
    TITANT_RETURN_IF_ERROR(store->PutBatch(batch));
  }
  return Status::OK();
}

}  // namespace

Status UploadDailyArtifacts(kvstore::AliHBase* store, const txn::TransactionLog& log,
                            const core::FeatureExtractor& extractor,
                            const nrl::EmbeddingMatrix& embeddings, txn::Day as_of,
                            uint64_t version, uint16_t num_cities, ThreadPool* pool) {
  if (embeddings.rows() < log.num_users()) {
    return Status::InvalidArgument("embedding matrix smaller than the user population");
  }
  const txn::UserId users = log.num_users();
  if (pool == nullptr || pool->num_threads() <= 1 || users == 0) {
    TITANT_RETURN_IF_ERROR(UploadUserRange(store, extractor, embeddings, as_of, version,
                                           /*begin=*/0, /*end=*/users));
  } else {
    // Fan chunk-sized user ranges across the pool. Ranges are disjoint and
    // each user's cells stay inside one PutBatch sequence, so the uploaded
    // table is identical to the sequential upload; the first error wins
    // and the rest of the tasks turn into no-ops.
    const txn::UserId users_per_task =
        static_cast<txn::UserId>(std::max<std::size_t>(1, kUploadChunkCells / 3));
    std::mutex error_mu;
    Status first_error;
    for (txn::UserId begin = 0; begin < users; begin += users_per_task) {
      const txn::UserId end = std::min<txn::UserId>(users, begin + users_per_task);
      pool->Submit([&, begin, end] {
        {
          std::lock_guard<std::mutex> guard(error_mu);
          if (!first_error.ok()) return;
        }
        const Status status =
            UploadUserRange(store, extractor, embeddings, as_of, version, begin, end);
        if (!status.ok()) {
          std::lock_guard<std::mutex> guard(error_mu);
          if (first_error.ok()) first_error = status;
        }
      });
    }
    pool->Wait();
    TITANT_RETURN_IF_ERROR(first_error);
  }
  // The handful of city rows is not worth fanning out.
  std::vector<kvstore::Cell> batch;
  batch.reserve(std::min<std::size_t>(num_cities, kUploadChunkCells) + 1);
  for (uint16_t city = 0; city < num_cities; ++city) {
    float stats[3];
    extractor.CityStats(city, stats);
    batch.push_back({kvstore::CellKey{CityRowKey(city), kFamilyCity, kQualStats, version},
                     EncodeFloats(stats, 3), false});
    if (batch.size() >= kUploadChunkCells) {
      TITANT_RETURN_IF_ERROR(store->PutBatch(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) TITANT_RETURN_IF_ERROR(store->PutBatch(batch));
  return Status::OK();
}

}  // namespace titant::serving
