#include "ml/model.h"

#include "common/bytes.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/isolation_forest.h"
#include "ml/logistic_regression.h"

namespace titant::ml {

void Model::ScoreBatch(const float* rows, int n, double* out) const {
  const std::size_t width = static_cast<std::size_t>(num_features());
  for (int i = 0; i < n; ++i) out[i] = Score(rows + static_cast<std::size_t>(i) * width);
}

StatusOr<std::vector<double>> Model::ScoreAll(const DataMatrix& data) const {
  if (data.num_cols() != num_features()) {
    return Status::InvalidArgument("feature width mismatch: model expects " +
                                   std::to_string(num_features()) + ", data has " +
                                   std::to_string(data.num_cols()));
  }
  std::vector<double> scores(data.num_rows());
  // DataMatrix rows are contiguous row-major storage, exactly the batch
  // layout ScoreBatch wants.
  if (!scores.empty()) {
    ScoreBatch(data.Row(0), static_cast<int>(data.num_rows()), scores.data());
  }
  return scores;
}

std::string SerializeModel(const Model& model) {
  std::string blob;
  ByteWriter(&blob).Str(model.type_name());
  blob += model.SerializePayload();
  return blob;
}

StatusOr<std::unique_ptr<Model>> DeserializeModel(const std::string& blob) {
  ByteReader r(blob);
  std::string_view tag;
  if (!r.Str(&tag) || tag.size() > 64) return Status::Corruption("model blob: bad type tag");
  const std::string_view payload = r.Rest();

  if (tag == "dtree") {
    TITANT_ASSIGN_OR_RETURN(auto m, DecisionTreeModel::FromPayload(payload));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (tag == "iforest") {
    TITANT_ASSIGN_OR_RETURN(auto m, IsolationForestModel::FromPayload(payload));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (tag == "lr") {
    TITANT_ASSIGN_OR_RETURN(auto m, LogisticRegressionModel::FromPayload(payload));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (tag == "gbdt") {
    TITANT_ASSIGN_OR_RETURN(auto m, GbdtModel::FromPayload(payload));
    return std::unique_ptr<Model>(std::move(m));
  }
  return Status::Corruption("unknown model type tag: " + std::string(tag));
}

}  // namespace titant::ml
