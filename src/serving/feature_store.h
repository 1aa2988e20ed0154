#ifndef TITANT_SERVING_FEATURE_STORE_H_
#define TITANT_SERVING_FEATURE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "kvstore/store.h"
#include "nrl/embedding.h"
#include "serving/feature_cells.h"
#include "txn/types.h"

namespace titant::serving {

/// Column families of the online feature table (Fig. 7).
inline constexpr char kFamilyBasic[] = "bf";   // Per-user feature snapshot.
inline constexpr char kFamilyEmbedding[] = "emb";  // User node embedding.
inline constexpr char kFamilyCity[] = "city";  // Historical city statistics.

/// Qualifiers within the families.
inline constexpr char kQualSnapshot[] = "snapshot";  // float32[52] blob.
inline constexpr char kQualAux[] = "aux";            // {mean_hour, avg_amt}.
inline constexpr char kQualVector[] = "vec";         // float32[dim] blob.
inline constexpr char kQualStats[] = "stats";        // {rate, log_cnt, log_txn}.
// A fourth family, streaming::kFamilyRealtime ("rt"), holds the live
// sliding-window counter cells published by the streaming ingestor
// (qualifier streaming::kQualWindow); the schema lives with its producer
// in streaming/aggregator.h. FeatureTableOptions() declares it.

/// Shard count of the canonical feature table: the serving hot path fans
/// MultiGetView probes across this many lock stripes, so batch scoring
/// and the daily bulk upload stop serializing on one reader-writer lock.
inline constexpr int kFeatureTableShards = 8;

/// Returns the canonical StoreOptions for the feature table (declares the
/// three families above, kFeatureTableShards lock stripes); callers fill
/// in `dir`/`durable`.
kvstore::StoreOptions FeatureTableOptions();

/// The daily upload (offline -> online hand-off, Fig. 3): writes every
/// user's feature snapshot, node embedding, and the city statistics to
/// `store`, versioned by `version` (conventionally the training day).
/// `extractor` must already have city stats fitted.
///
/// With a non-null `pool` (of more than one thread), the per-user chunks
/// are fanned across the pool's workers — the store's per-shard write
/// locks let concurrent PutBatches commit in parallel, and every chunk
/// writes a disjoint user range, so the uploaded table is byte-identical
/// to the sequential one. Null `pool` keeps the original sequential path.
Status UploadDailyArtifacts(kvstore::AliHBase* store, const txn::TransactionLog& log,
                            const core::FeatureExtractor& extractor,
                            const nrl::EmbeddingMatrix& embeddings, txn::Day as_of,
                            uint64_t version, uint16_t num_cities,
                            ThreadPool* pool = nullptr);

}  // namespace titant::serving

#endif  // TITANT_SERVING_FEATURE_STORE_H_
