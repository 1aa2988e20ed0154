#ifndef TITANT_ML_MODEL_H_
#define TITANT_ML_MODEL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "ml/dataset.h"

namespace titant::ml {

/// Common interface of every detection method in §3.3. A model is trained
/// offline on a labeled DataMatrix (Isolation Forest ignores the labels)
/// and then scores transactions: higher = more suspicious. Scores are in
/// [0, 1] but are only required to *rank* correctly; operating points are
/// chosen downstream (metrics.h).
class Model {
 public:
  virtual ~Model() = default;

  /// Stable type tag used by the serialization registry ("gbdt", "lr", ...).
  virtual std::string_view type_name() const = 0;

  /// Fits the model. `train` must carry labels unless the model is
  /// unsupervised. Retraining replaces the previous fit.
  virtual Status Train(const DataMatrix& train) = 0;

  /// Number of input features expected by Score; -1 before training.
  virtual int num_features() const = 0;

  /// Scores one feature row (must have num_features() values).
  virtual double Score(const float* row) const = 0;

  /// Scores `n` contiguous row-major feature rows (num_features() floats
  /// each) into `out`. The serving batch path lands here; models with a
  /// batch form (LR feature-major accumulation) or a cheaper loop (GBDT's
  /// flat walk) override it, everything else gets the per-row loop.
  /// Must be equivalent to calling Score on each row.
  virtual void ScoreBatch(const float* rows, int n, double* out) const;

  /// Serializes the fitted model payload (excluding the type tag).
  virtual std::string SerializePayload() const = 0;

  /// Scores every row of `data` via ScoreBatch; validates the width.
  StatusOr<std::vector<double>> ScoreAll(const DataMatrix& data) const;
};

/// Frames `model` into a self-describing blob: type tag + payload.
/// This is the "model file" the offline trainer uploads to the Model Server.
std::string SerializeModel(const Model& model);

/// Reconstructs a model from a blob produced by SerializeModel. Recognizes
/// every built-in detector (id3, c50, iforest, lr, gbdt).
StatusOr<std::unique_ptr<Model>> DeserializeModel(const std::string& blob);

}  // namespace titant::ml

#endif  // TITANT_ML_MODEL_H_
