#ifndef TITANT_PS_DW_TRAINER_H_
#define TITANT_PS_DW_TRAINER_H_

#include "common/statusor.h"
#include "graph/random_walk.h"
#include "nrl/embedding.h"
#include "nrl/word2vec.h"
#include "ps/cluster.h"

namespace titant::ps {

/// Distributed skip-gram configuration (on top of Word2VecOptions).
struct DistributedDwOptions {
  nrl::Word2VecOptions w2v;
  /// Walks per mini-batch; each batch is one pull -> local-train -> push
  /// round (the KunPeng word2vec schedule, §4.3).
  int batch_walks = 64;
  /// When true, the servers' existing parameters are kept (resuming after
  /// a failure recovery via KunPengCluster::Restore) instead of being
  /// re-initialized — the PS fault-tolerance story of §4.3.
  bool resume = false;
};

/// The distributed reimplementation of DeepWalk's word2vec stage (§4.3):
/// `cluster`'s workers shard the walk corpus; per batch each worker pulls
/// the embeddings it needs (batch vocabulary + pre-sampled negatives),
/// runs local SGNS updates, and pushes the updated rows back, which the
/// servers combine with the model-average operation (the paper's
/// aggregation).
///
/// Returns the final syn0 embedding matrix gathered from the servers.
StatusOr<nrl::EmbeddingMatrix> DistributedDeepWalkTrain(KunPengCluster& cluster,
                                                        const graph::WalkCorpus& corpus,
                                                        std::size_t num_nodes,
                                                        const DistributedDwOptions& options);

}  // namespace titant::ps

#endif  // TITANT_PS_DW_TRAINER_H_
