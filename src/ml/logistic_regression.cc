#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bytes.h"
#include "common/random.h"

namespace titant::ml {

namespace {

double Sigmoid(double x) {
  if (x > 35.0) return 1.0;
  if (x < -35.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

// Cumulative-L1 clip step (Tsuruoka et al.): pulls w toward zero by the
// accumulated-but-unapplied penalty, never crossing zero.
void ApplyL1(double& w, double& applied, double cumulative) {
  const double z = w;
  if (w > 0.0) {
    w = std::max(0.0, w - (cumulative + applied));
  } else if (w < 0.0) {
    w = std::min(0.0, w + (cumulative - applied));
  }
  applied += w - z;
}

}  // namespace

LogisticRegressionModel::LogisticRegressionModel(LogisticRegressionOptions options)
    : options_(options) {}

Status LogisticRegressionModel::Train(const DataMatrix& train) {
  if (!train.has_labels()) return Status::InvalidArgument("LR requires labels");
  if (train.num_rows() < 2) return Status::InvalidArgument("need at least 2 rows");
  if (options_.iterations < 1) return Status::InvalidArgument("iterations must be >= 1");
  if (options_.bins < 2 && options_.discretize) {
    return Status::InvalidArgument("bins must be >= 2");
  }

  num_features_ = train.num_cols();
  const std::size_t n = train.num_rows();
  const auto& labels = train.labels();
  Rng rng(options_.seed);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  if (options_.discretize) {
    TITANT_ASSIGN_OR_RETURN(discretizer_, Discretizer::Fit(train, options_.bins));
    const std::vector<uint16_t> bins = discretizer_.Transform(train);
    const std::size_t width = discretizer_.OneHotWidth();
    weights_.assign(width, 0.0);
    bias_ = 0.0;

    // Cumulative-penalty bookkeeping for exact lazy L1 on sparse rows.
    std::vector<double> applied(width, 0.0);
    double cumulative = 0.0;
    const double l1_per_step = options_.l1 / static_cast<double>(n);

    for (int epoch = 0; epoch < options_.iterations; ++epoch) {
      rng.Shuffle(order);
      const double lr = options_.alpha / (1.0 + options_.decay * epoch);
      for (std::size_t r : order) {
        const uint16_t* row_bins = bins.data() + r * static_cast<std::size_t>(num_features_);
        double margin = bias_;
        for (int f = 0; f < num_features_; ++f) {
          margin += weights_[discretizer_.OneHotOffset(f) + row_bins[f]];
        }
        const double g = Sigmoid(margin) - (labels[r] ? 1.0 : 0.0);
        const double step = lr * g;
        bias_ -= step;
        cumulative += lr * l1_per_step;
        for (int f = 0; f < num_features_; ++f) {
          const std::size_t j = discretizer_.OneHotOffset(f) + row_bins[f];
          weights_[j] -= step;
          ApplyL1(weights_[j], applied[j], cumulative);
        }
      }
    }
    // Settle the remaining penalty on every weight.
    for (std::size_t j = 0; j < width; ++j) ApplyL1(weights_[j], applied[j], cumulative);
  } else {
    // Raw continuous features, standardized; dense proximal steps.
    mean_.assign(static_cast<std::size_t>(num_features_), 0.0);
    inv_std_.assign(static_cast<std::size_t>(num_features_), 1.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (int f = 0; f < num_features_; ++f) mean_[f] += train.At(r, f);
    }
    for (auto& m : mean_) m /= static_cast<double>(n);
    std::vector<double> var(static_cast<std::size_t>(num_features_), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (int f = 0; f < num_features_; ++f) {
        const double d = train.At(r, f) - mean_[f];
        var[f] += d * d;
      }
    }
    for (int f = 0; f < num_features_; ++f) {
      const double sd = std::sqrt(var[f] / static_cast<double>(n));
      inv_std_[f] = sd > 1e-12 ? 1.0 / sd : 0.0;
    }

    weights_.assign(static_cast<std::size_t>(num_features_), 0.0);
    bias_ = 0.0;
    const double l1_per_step = options_.l1 / static_cast<double>(n);
    for (int epoch = 0; epoch < options_.iterations; ++epoch) {
      rng.Shuffle(order);
      const double lr = options_.alpha / (1.0 + options_.decay * epoch);
      for (std::size_t r : order) {
        const float* row = train.Row(r);
        double margin = bias_;
        for (int f = 0; f < num_features_; ++f) {
          margin += weights_[f] * (row[f] - mean_[f]) * inv_std_[f];
        }
        const double g = Sigmoid(margin) - (labels[r] ? 1.0 : 0.0);
        bias_ -= lr * g;
        const double shrink = lr * l1_per_step;
        for (int f = 0; f < num_features_; ++f) {
          double w = weights_[f] - lr * g * (row[f] - mean_[f]) * inv_std_[f];
          // Soft-threshold.
          if (w > shrink) {
            w -= shrink;
          } else if (w < -shrink) {
            w += shrink;
          } else {
            w = 0.0;
          }
          weights_[f] = w;
        }
      }
    }
  }
  return Status::OK();
}

double LogisticRegressionModel::Margin(const float* row) const {
  double margin = bias_;
  if (options_.discretize) {
    for (int f = 0; f < num_features_; ++f) {
      margin += weights_[discretizer_.OneHotOffset(f) +
                         static_cast<std::size_t>(discretizer_.BinOf(f, row[f]))];
    }
  } else {
    for (int f = 0; f < num_features_; ++f) {
      margin += weights_[f] * (row[f] - mean_[f]) * inv_std_[f];
    }
  }
  return margin;
}

double LogisticRegressionModel::Score(const float* row) const { return Sigmoid(Margin(row)); }

void LogisticRegressionModel::ScoreBatch(const float* rows, int n, double* out) const {
  if (n <= 0) return;
  const std::size_t width = static_cast<std::size_t>(num_features_);
  // Margin accumulator reused across calls (thread_local, capacity only
  // grows): assign() over warm capacity keeps the serving loop off the heap.
  thread_local std::vector<double> margin;
  margin.assign(static_cast<std::size_t>(n), bias_);
  if (options_.discretize) {
    for (int f = 0; f < num_features_; ++f) {
      const std::size_t base = discretizer_.OneHotOffset(f);
      const float* value = rows + static_cast<std::size_t>(f);
      for (int i = 0; i < n; ++i, value += width) {
        margin[static_cast<std::size_t>(i)] +=
            weights_[base + static_cast<std::size_t>(discretizer_.BinOf(f, *value))];
      }
    }
  } else {
    for (int f = 0; f < num_features_; ++f) {
      const double scaled_weight = weights_[static_cast<std::size_t>(f)] *
                                   inv_std_[static_cast<std::size_t>(f)];
      const double mean = mean_[static_cast<std::size_t>(f)];
      const float* value = rows + static_cast<std::size_t>(f);
      for (int i = 0; i < n; ++i, value += width) {
        margin[static_cast<std::size_t>(i)] += scaled_weight * (*value - mean);
      }
    }
  }
  for (int i = 0; i < n; ++i) out[i] = Sigmoid(margin[static_cast<std::size_t>(i)]);
}

std::size_t LogisticRegressionModel::ZeroWeights() const {
  std::size_t zeros = 0;
  for (double w : weights_) zeros += w == 0.0 ? 1 : 0;
  return zeros;
}

std::string LogisticRegressionModel::SerializePayload() const {
  std::string blob;
  ByteWriter w(&blob);
  w.I32(options_.discretize ? 1 : 0);
  w.I32(options_.bins);
  w.I32(options_.iterations);
  w.I32(num_features_);
  w.F64(options_.l1);
  w.F64(bias_);

  const std::string disc = options_.discretize ? discretizer_.Serialize() : std::string();
  w.U64(disc.size());
  w.Bytes(disc);

  for (const std::vector<double>* v : {&weights_, &mean_, &inv_std_}) {
    w.U64(v->size());
    w.Array(v->data(), v->size());
  }
  return blob;
}

StatusOr<std::unique_ptr<LogisticRegressionModel>> LogisticRegressionModel::FromPayload(
    std::string_view payload) {
  ByteReader r(payload);
  LogisticRegressionOptions o;
  int32_t discretize = 0, num_features = 0;
  double bias = 0.0;
  if (!r.I32(&discretize) || !r.I32(&o.bins) || !r.I32(&o.iterations) ||
      !r.I32(&num_features) || !r.F64(&o.l1) || !r.F64(&bias)) {
    return Status::Corruption("lr: truncated header");
  }
  o.discretize = discretize != 0;
  auto model = std::make_unique<LogisticRegressionModel>(o);
  model->num_features_ = num_features;
  model->bias_ = bias;

  uint64_t disc_len = 0;
  std::string_view disc;
  if (!r.U64(&disc_len) || !r.Bytes(disc_len, &disc)) {
    return Status::Corruption("lr: truncated discretizer");
  }
  if (o.discretize) {
    TITANT_ASSIGN_OR_RETURN(model->discretizer_, Discretizer::Deserialize(disc));
  }

  for (std::vector<double>* v : {&model->weights_, &model->mean_, &model->inv_std_}) {
    uint64_t len = 0;
    if (!r.U64(&len) || !r.Array(len, v)) return Status::Corruption("lr: truncated vectors");
  }
  if (!r.done()) return Status::Corruption("lr: trailing bytes");
  return model;
}

}  // namespace titant::ml
