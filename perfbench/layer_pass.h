#ifndef TITANT_PERFBENCH_LAYER_PASS_H_
#define TITANT_PERFBENCH_LAYER_PASS_H_

// The traced run's in-process pass over the same requests the workload
// scores: it calls each serving layer's public entry point in turn —
// ModelServerRouter::ScoreSpan, ModelServer::ScoreSpan (one caller, then
// nproc callers on one instance), AliHBase::MultiGetView and
// ml::Model::ScoreBatch — and records a span per call.

#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/store.h"
#include "ml/dataset.h"
#include "ml/model.h"
#include "serving/request.h"
#include "serving/router.h"
#include "trace.h"

namespace perfbench {

struct LayerInputs {
  titant::kvstore::KvTable* store = nullptr;
  titant::serving::ModelServerRouter* router = nullptr;  // Null: no router pass.
  std::string blob;  // Serialized model the workload serves.
  uint64_t version = 0;
  const titant::ml::Model* model = nullptr;
  const titant::ml::DataMatrix* test_matrix = nullptr;  // BuildMatrix test rows.
  const std::vector<titant::serving::TransferRequest>* requests = nullptr;
  int threads = 4;
};

/// Microseconds per row of each entry point, and the multi-caller scaling
/// of ModelServer::ScoreSpan (rows/s with `threads` callers ÷ one caller).
struct LayerNumbers {
  double router_us_per_row = 0.0;
  double score_span_us_per_row_b1 = 0.0;
  double score_span_us_per_row_b16 = 0.0;
  double score_span_scaling = 0.0;
  double multiget_us_per_row = 0.0;
  double gbdt_us_per_row_b1 = 0.0;
  double gbdt_us_per_row_b16 = 0.0;
};

/// Runs each pass for `seconds_per_pass`. Fails when an entry point
/// returns an error.
titant::StatusOr<LayerNumbers> RunLayerPass(const LayerInputs& in, double seconds_per_pass,
                                            Tracer* tracer);

}  // namespace perfbench

#endif  // TITANT_PERFBENCH_LAYER_PASS_H_
