#include "nrl/line.h"

#include <vector>

#include "nrl/sgns.h"

namespace titant::nrl {

StatusOr<EmbeddingMatrix> TrainLine(const graph::TransactionNetwork& network,
                                    const LineOptions& options) {
  if (options.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.order != 1 && options.order != 2) {
    return Status::InvalidArgument("order must be 1 or 2");
  }
  if (options.samples_per_edge <= 0.0) {
    return Status::InvalidArgument("samples_per_edge must be positive");
  }
  if (options.negatives < 0) return Status::InvalidArgument("negatives must be >= 0");
  if (network.num_edges() == 0) return Status::InvalidArgument("empty network");

  const std::size_t n = network.num_nodes();
  const int dim = options.dim;

  // Flatten the edge list (both directions) with weights for alias sampling.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<double> edge_weights;
  edges.reserve(network.num_edges() * 2);
  for (graph::NodeId v : network.active_nodes()) {
    auto [begin, end] = network.OutNeighbors(v);
    for (const auto* e = begin; e != end; ++e) {
      edges.emplace_back(v, e->neighbor);
      edge_weights.push_back(e->weight);
      edges.emplace_back(e->neighbor, v);
      edge_weights.push_back(e->weight);
    }
  }
  AliasTable edge_table;
  if (!edge_table.Build(edge_weights)) return Status::InvalidArgument("degenerate weights");

  // Negative table over degrees^0.75.
  std::vector<double> degrees(n, 0.0);
  for (graph::NodeId v : network.active_nodes()) {
    degrees[v] = static_cast<double>(network.Degree(v));
  }
  AliasTable neg_table;
  if (!sgns::BuildNegativeTable(degrees, options.neg_power, neg_table)) {
    return Status::InvalidArgument("degenerate degrees");
  }

  EmbeddingMatrix vertex(n, dim);
  EmbeddingMatrix context(n, dim);  // Used by second-order only.
  Rng rng(options.seed);
  sgns::InitSyn0(vertex.Row(0), n * static_cast<std::size_t>(dim), dim, rng);

  // First-order trains vertex·vertex; second-order vertex·context.
  EmbeddingMatrix& targets = options.order == 1 ? vertex : context;
  const auto total_samples = static_cast<uint64_t>(
      options.samples_per_edge * static_cast<double>(network.num_edges()));
  const sgns::SigmoidTable& sigmoid = sgns::Sigmoid();
  sgns::PairScratch scratch(options.negatives + 1);
  for (uint64_t step = 0; step < total_samples; ++step) {
    const float alpha = sgns::DecayedAlpha(options.alpha, options.min_alpha, step,
                                           static_cast<double>(total_samples));
    const auto [source, target] = edges[edge_table.Sample(rng)];
    // At first order a self-loop would make the center its own target.
    if (options.order == 1 && source == target) continue;
    scratch.rows[0] = targets.Row(target);
    int num_targets = 1;
    for (int s = 0; s < options.negatives; ++s) {
      const std::size_t other = neg_table.Sample(rng);
      if (other != target && other != source) scratch.rows[num_targets++] = targets.Row(other);
    }
    sgns::TrainPair(vertex.Row(source), num_targets, dim, alpha, sigmoid, scratch);
  }
  return vertex;
}

}  // namespace titant::nrl
