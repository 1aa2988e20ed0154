// Tests for the TitAnt core: feature extraction (no leakage, snapshot
// consistency), the offline trainer, and the experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "core/experiment.h"
#include "core/feature_extractor.h"
#include "core/pipeline.h"
#include "datagen/world.h"
#include "txn/window.h"

namespace titant::core {
namespace {

// The basic-feature producers as they stood before the slot table, kept
// verbatim (FeatureExtractor's constructor, FitCityStats, Extract and
// ExtractUserSnapshot under another class name) as the bit-exact reference
// for the shared slot writers.
class ReferenceExtractor {
 public:
  static constexpr int kNumBasicFeatures = 52;
  static constexpr int kHistoryDays = 30;

  explicit ReferenceExtractor(const txn::TransactionLog& log);
  void FitCityStats(const std::vector<std::size_t>& record_indices);
  void Extract(std::size_t record_idx, float* out) const;
  void ExtractUserSnapshot(txn::UserId user, txn::Day as_of, float* out, float aux[2]) const;

 private:
  struct UserHistoryRef {
    std::vector<uint32_t> outgoing;
    std::vector<uint32_t> incoming;
  };

  const txn::TransactionLog& log_;
  std::vector<UserHistoryRef> history_;
  std::vector<float> city_fraud_rate_;
  std::vector<float> city_fraud_count_;
  std::vector<float> city_txn_count_;
};

constexpr double kTwoPi = 6.283185307179586;

ReferenceExtractor::ReferenceExtractor(const txn::TransactionLog& log) : log_(log) {
  history_.resize(log.num_users());
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const auto& rec = log.records[i];
    if (rec.from_user < history_.size()) {
      history_[rec.from_user].outgoing.push_back(static_cast<uint32_t>(i));
    }
    if (rec.to_user < history_.size()) {
      history_[rec.to_user].incoming.push_back(static_cast<uint32_t>(i));
    }
  }
  std::size_t num_cities = 1;
  for (const auto& rec : log.records) {
    num_cities = std::max<std::size_t>(num_cities, static_cast<std::size_t>(rec.trans_city) + 1);
  }
  city_fraud_rate_.assign(num_cities, 0.0f);
  city_fraud_count_.assign(num_cities, 0.0f);
  city_txn_count_.assign(num_cities, 0.0f);
}

void ReferenceExtractor::FitCityStats(const std::vector<std::size_t>& record_indices) {
  std::fill(city_fraud_rate_.begin(), city_fraud_rate_.end(), 0.0f);
  std::fill(city_fraud_count_.begin(), city_fraud_count_.end(), 0.0f);
  std::fill(city_txn_count_.begin(), city_txn_count_.end(), 0.0f);
  for (std::size_t idx : record_indices) {
    const auto& rec = log_.records[idx];
    if (rec.trans_city >= city_txn_count_.size()) continue;
    city_txn_count_[rec.trans_city] += 1.0f;
    if (rec.is_fraud) city_fraud_count_[rec.trans_city] += 1.0f;
  }
  for (std::size_t c = 0; c < city_txn_count_.size(); ++c) {
    // Laplace-smoothed historical fraud rate.
    city_fraud_rate_[c] = (city_fraud_count_[c] + 0.5f) / (city_txn_count_[c] + 50.0f);
  }
}

void ReferenceExtractor::Extract(std::size_t record_idx, float* out) const {
  const auto& rec = log_.records[record_idx];
  const auto& profile = log_.profiles[rec.from_user];
  const txn::Day day = rec.day;
  const double hour = rec.second_of_day / 3600.0;

  int k = 0;
  // --- Transferor profile -------------------------------------------------
  out[k++] = profile.age;
  out[k++] = profile.gender == txn::Gender::kMale ? 1.0f : 0.0f;
  out[k++] = profile.gender == txn::Gender::kFemale ? 1.0f : 0.0f;
  out[k++] = profile.home_city;
  out[k++] = profile.account_age_days;
  out[k++] = std::log1p(static_cast<float>(profile.account_age_days));
  out[k++] = profile.verification_level;
  out[k++] = profile.is_merchant ? 1.0f : 0.0f;

  // --- Transfer environment ------------------------------------------------
  out[k++] = static_cast<float>(rec.amount);
  out[k++] = std::log1p(static_cast<float>(rec.amount));
  out[k++] = (rec.amount >= 100.0 && std::fmod(rec.amount, 100.0) == 0.0) ? 1.0f : 0.0f;
  out[k++] = rec.amount >= 500.0 ? 1.0f : 0.0f;
  out[k++] = rec.amount >= 2000.0 ? 1.0f : 0.0f;
  out[k++] = static_cast<float>(hour);
  out[k++] = static_cast<float>(std::sin(kTwoPi * hour / 24.0));
  out[k++] = static_cast<float>(std::cos(kTwoPi * hour / 24.0));
  out[k++] = hour < 6.0 ? 1.0f : 0.0f;
  out[k++] = (hour >= 19.0 && hour < 23.0) ? 1.0f : 0.0f;
  const int dow = ((day % 7) + 7) % 7;
  out[k++] = static_cast<float>(dow);
  out[k++] = dow >= 5 ? 1.0f : 0.0f;
  out[k++] = rec.channel == txn::Channel::kApp ? 1.0f : 0.0f;
  out[k++] = rec.channel == txn::Channel::kWeb ? 1.0f : 0.0f;
  out[k++] = rec.channel == txn::Channel::kQrCode ? 1.0f : 0.0f;
  out[k++] = rec.channel == txn::Channel::kApi ? 1.0f : 0.0f;
  out[k++] = rec.trans_city;
  out[k++] = rec.is_cross_city ? 1.0f : 0.0f;
  out[k++] = rec.is_new_device ? 1.0f : 0.0f;

  // --- Transferor behavioural history (strictly before this record) -------
  const auto& hist = history_[rec.from_user];
  const auto pos = std::lower_bound(hist.outgoing.begin(), hist.outgoing.end(),
                                    static_cast<uint32_t>(record_idx));
  double cnt7 = 0, cnt30 = 0, amt7 = 0, amt30 = 0, amt_max30 = 0;
  double night30 = 0, cross30 = 0, newdev30 = 0, hour_sum = 0;
  double cnt_today = 0, amt_today = 0;
  double payee_cnt30 = 0;
  double victim_hist = 0;
  std::unordered_set<txn::UserId> payees;
  std::unordered_set<uint32_t> devices;
  txn::Day last_day = day - 10000;
  uint32_t last_second = 0;
  bool have_prev = false;
  for (auto it = hist.outgoing.begin(); it != pos; ++it) {
    const auto& h = log_.records[*it];
    if (h.day < day - kHistoryDays) continue;
    ++cnt30;
    amt30 += h.amount;
    amt_max30 = std::max(amt_max30, h.amount);
    payees.insert(h.to_user);
    devices.insert(h.device_id);
    if (h.to_user == rec.to_user) ++payee_cnt30;
    if (h.second_of_day < 6 * 3600) ++night30;
    if (h.is_cross_city) ++cross30;
    if (h.is_new_device) ++newdev30;
    hour_sum += h.second_of_day / 3600.0;
    if (h.day >= day - 7) {
      ++cnt7;
      amt7 += h.amount;
    }
    if (h.day == day) {
      ++cnt_today;
      amt_today += h.amount;
    }
    if (h.is_fraud && h.label_available_day <= day) ++victim_hist;
    if (!have_prev || h.day > last_day || (h.day == last_day && h.second_of_day > last_second)) {
      last_day = h.day;
      last_second = h.second_of_day;
      have_prev = true;
    }
  }
  const double avg30 = cnt30 > 0 ? amt30 / cnt30 : 0.0;
  out[k++] = static_cast<float>(cnt7);
  out[k++] = static_cast<float>(cnt30);
  out[k++] = std::log1p(static_cast<float>(amt7));
  out[k++] = std::log1p(static_cast<float>(amt30));
  out[k++] = std::log1p(static_cast<float>(amt_max30));
  out[k++] = std::log1p(static_cast<float>(avg30));
  out[k++] = static_cast<float>(payees.size());
  out[k++] = static_cast<float>(payee_cnt30);
  out[k++] = payee_cnt30 == 0 ? 1.0f : 0.0f;  // First transfer to this payee.

  // Incoming (money received) aggregates.
  double in_cnt30 = 0, in_amt30 = 0;
  const auto& in_hist = history_[rec.from_user].incoming;
  const auto in_pos =
      std::lower_bound(in_hist.begin(), in_hist.end(), static_cast<uint32_t>(record_idx));
  for (auto it = in_hist.begin(); it != in_pos; ++it) {
    const auto& h = log_.records[*it];
    if (h.day < day - kHistoryDays) continue;
    ++in_cnt30;
    in_amt30 += h.amount;
  }
  out[k++] = static_cast<float>(in_cnt30);
  out[k++] = std::log1p(static_cast<float>(in_amt30));

  out[k++] = static_cast<float>(devices.size());
  out[k++] = static_cast<float>(cnt30 > 0 ? newdev30 / cnt30 : 0.0);
  out[k++] = static_cast<float>(cnt30 > 0 ? night30 / cnt30 : 0.0);
  out[k++] = static_cast<float>(cnt30 > 0 ? cross30 / cnt30 : 0.0);
  out[k++] = have_prev ? static_cast<float>(day - last_day) : 60.0f;
  out[k++] = static_cast<float>(cnt_today);
  out[k++] = std::log1p(static_cast<float>(amt_today));
  const double secs_since_prev =
      have_prev ? (static_cast<double>(day - last_day) * 86400.0 + rec.second_of_day) -
                      last_second
                : 86400.0 * 60.0;
  out[k++] = std::log1p(static_cast<float>(std::max(0.0, secs_since_prev)));
  out[k++] = static_cast<float>(rec.amount / (1.0 + avg30));
  const double mean_hour = cnt30 > 0 ? hour_sum / cnt30 : 14.0;
  out[k++] = static_cast<float>(std::fabs(hour - mean_hour));

  // --- Environment history (city fraud statistics) ------------------------
  const std::size_t city =
      std::min<std::size_t>(rec.trans_city, city_fraud_rate_.size() - 1);
  out[k++] = city_fraud_rate_[city];
  out[k++] = std::log1p(city_fraud_count_[city]);
  out[k++] = std::log1p(city_txn_count_[city]);

  // --- Past victimization of this transferor ------------------------------
  out[k++] = static_cast<float>(victim_hist);

  TITANT_CHECK(k == kNumBasicFeatures) << "feature count drifted: " << k;
}

void ReferenceExtractor::ExtractUserSnapshot(txn::UserId user, txn::Day as_of, float* out,
                                           float aux[2]) const {
  std::fill(out, out + kNumBasicFeatures, 0.0f);
  const auto& profile = log_.profiles[user];

  out[0] = profile.age;
  out[1] = profile.gender == txn::Gender::kMale ? 1.0f : 0.0f;
  out[2] = profile.gender == txn::Gender::kFemale ? 1.0f : 0.0f;
  out[3] = profile.home_city;
  out[4] = profile.account_age_days;
  out[5] = std::log1p(static_cast<float>(profile.account_age_days));
  out[6] = profile.verification_level;
  out[7] = profile.is_merchant ? 1.0f : 0.0f;

  // History block over [as_of - kHistoryDays, as_of).
  double cnt7 = 0, cnt30 = 0, amt7 = 0, amt30 = 0, amt_max30 = 0;
  double night30 = 0, cross30 = 0, newdev30 = 0, hour_sum = 0;
  double victim_hist = 0;
  std::unordered_set<txn::UserId> payees;
  std::unordered_set<uint32_t> devices;
  txn::Day last_day = as_of - 10000;
  bool have_prev = false;
  for (uint32_t idx : history_[user].outgoing) {
    const auto& h = log_.records[idx];
    if (h.day >= as_of) break;  // Lists are time-ordered.
    if (h.day < as_of - kHistoryDays) continue;
    ++cnt30;
    amt30 += h.amount;
    amt_max30 = std::max(amt_max30, h.amount);
    payees.insert(h.to_user);
    devices.insert(h.device_id);
    if (h.second_of_day < 6 * 3600) ++night30;
    if (h.is_cross_city) ++cross30;
    if (h.is_new_device) ++newdev30;
    hour_sum += h.second_of_day / 3600.0;
    if (h.day >= as_of - 7) {
      ++cnt7;
      amt7 += h.amount;
    }
    if (h.is_fraud && h.label_available_day <= as_of) ++victim_hist;
    if (!have_prev || h.day > last_day) {
      last_day = h.day;
      have_prev = true;
    }
  }
  const double avg30 = cnt30 > 0 ? amt30 / cnt30 : 0.0;
  out[27] = static_cast<float>(cnt7);
  out[28] = static_cast<float>(cnt30);
  out[29] = std::log1p(static_cast<float>(amt7));
  out[30] = std::log1p(static_cast<float>(amt30));
  out[31] = std::log1p(static_cast<float>(amt_max30));
  out[32] = std::log1p(static_cast<float>(avg30));
  out[33] = static_cast<float>(payees.size());
  // 34/35 (payee relationship) are request-derived.
  double in_cnt30 = 0, in_amt30 = 0;
  for (uint32_t idx : history_[user].incoming) {
    const auto& h = log_.records[idx];
    if (h.day >= as_of) break;
    if (h.day < as_of - kHistoryDays) continue;
    ++in_cnt30;
    in_amt30 += h.amount;
  }
  out[36] = static_cast<float>(in_cnt30);
  out[37] = std::log1p(static_cast<float>(in_amt30));
  out[38] = static_cast<float>(devices.size());
  out[39] = static_cast<float>(cnt30 > 0 ? newdev30 / cnt30 : 0.0);
  out[40] = static_cast<float>(cnt30 > 0 ? night30 / cnt30 : 0.0);
  out[41] = static_cast<float>(cnt30 > 0 ? cross30 / cnt30 : 0.0);
  out[42] = have_prev ? static_cast<float>(as_of - last_day) : 60.0f;
  out[51] = static_cast<float>(victim_hist);

  aux[0] = static_cast<float>(cnt30 > 0 ? hour_sum / cnt30 : 14.0);
  aux[1] = static_cast<float>(avg30);
}

class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.num_users = 1200;
    options.num_days = 118;
    options.first_day = -104;
    options.seed = 7;
    world_ = new datagen::World(std::move(datagen::GenerateWorld(options)).value());
    auto windows = txn::SliceWeek(world_->log, 0, 1);
    ASSERT_TRUE(windows.ok());
    window_ = new txn::DatasetWindow((*windows)[0]);
  }

  static datagen::World* world_;
  static txn::DatasetWindow* window_;
};

datagen::World* CoreFixture::world_ = nullptr;
txn::DatasetWindow* CoreFixture::window_ = nullptr;

TEST_F(CoreFixture, FeatureVectorHasDocumentedShape) {
  const std::vector<std::string> names = FeatureExtractor::FeatureNames();
  EXPECT_EQ(names.size(), static_cast<std::size_t>(FeatureExtractor::kNumBasicFeatures));
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());

  FeatureExtractor extractor(world_->log);
  extractor.FitCityStats(window_->network_records);
  // NaN-filled first, so a slot no writer fills shows up as non-finite.
  float features[FeatureExtractor::kNumBasicFeatures];
  std::fill(std::begin(features), std::end(features), std::nanf(""));
  extractor.Extract(window_->test_records.front(), features);
  for (int i = 0; i < FeatureExtractor::kNumBasicFeatures; ++i) {
    EXPECT_TRUE(std::isfinite(features[i])) << kFeatureSlots[i].name;
  }
}

TEST_F(CoreFixture, HistoryFeaturesIgnoreTheFuture) {
  // Extracting features for an early record must give identical results
  // whether or not later records exist in the log: truncate the log after
  // the record and compare.
  FeatureExtractor full(world_->log);
  full.FitCityStats(window_->network_records);

  const std::size_t probe = window_->train_records.front();
  txn::TransactionLog truncated;
  truncated.profiles = world_->log.profiles;
  truncated.records.assign(world_->log.records.begin(),
                           world_->log.records.begin() + static_cast<std::ptrdiff_t>(probe) + 1);
  FeatureExtractor partial(truncated);
  partial.FitCityStats(window_->network_records);

  float a[FeatureExtractor::kNumBasicFeatures];
  float b[FeatureExtractor::kNumBasicFeatures];
  full.Extract(probe, a);
  partial.Extract(probe, b);
  for (int i = 0; i < FeatureExtractor::kNumBasicFeatures; ++i) {
    EXPECT_EQ(a[i], b[i]) << "feature " << FeatureExtractor::FeatureNames()[i]
                          << " leaked future data";
  }
}

TEST_F(CoreFixture, SnapshotMatchesExtractOnSharedSlots) {
  FeatureExtractor extractor(world_->log);
  extractor.FitCityStats(window_->network_records);

  // For a record on day D, a snapshot as of D holds the same kProfile
  // slots. It holds the same kHistory slots when the record is "clean":
  // the transferor has no earlier transfer that day, in or out, which
  // Extract would count and the snapshot would not. Every other source is
  // the Model Server's to fill, so the snapshot leaves it zero.
  int checked = 0;
  for (std::size_t k = 0; k < 200 && k < window_->test_records.size(); ++k) {
    const std::size_t idx = window_->test_records[k];
    const auto& rec = world_->log.records[idx];
    bool clean = true;
    for (std::size_t j = idx; j-- > 0 && world_->log.records[j].day == rec.day;) {
      const auto& earlier = world_->log.records[j];
      clean = clean && earlier.from_user != rec.from_user && earlier.to_user != rec.from_user;
    }
    float from_record[FeatureExtractor::kNumBasicFeatures];
    extractor.Extract(idx, from_record);
    float snapshot[FeatureExtractor::kNumBasicFeatures];
    float aux[2];
    extractor.ExtractUserSnapshot(rec.from_user, rec.day, snapshot, aux);
    for (int i = 0; i < FeatureExtractor::kNumBasicFeatures; ++i) {
      const FeatureSlot& slot = kFeatureSlots[i];
      if (slot.source == SlotSource::kProfile ||
          (slot.source == SlotSource::kHistory && clean)) {
        ASSERT_EQ(from_record[i], snapshot[i]) << slot.name << " diverged, record " << idx;
        ++checked;
      } else if (slot.source != SlotSource::kHistory) {
        ASSERT_EQ(snapshot[i], 0.0f) << slot.name << " is not a snapshot slot";
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST_F(CoreFixture, ExtractAndSnapshotMatchTheReferenceBitForBit) {
  constexpr int kWidth = FeatureExtractor::kNumBasicFeatures;
  static_assert(kWidth == ReferenceExtractor::kNumBasicFeatures);
  FeatureExtractor extractor(world_->log);
  ReferenceExtractor reference(world_->log);
  extractor.FitCityStats(window_->network_records);
  reference.FitCityStats(window_->network_records);

  float got[kWidth];
  float want[kWidth];
  for (std::size_t idx = 0; idx < world_->log.records.size(); ++idx) {
    extractor.Extract(idx, got);
    reference.Extract(idx, want);
    ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0) << "record " << idx;
  }

  // Every user's snapshot and aux cell as of the test day and as of a day
  // inside the network period (both days carry traffic the snapshot must
  // leave out), and as of the day after the log ends.
  const txn::Day test_day = window_->spec.test_day;
  for (const txn::Day as_of : {test_day, test_day - 45, world_->log.records.back().day + 1}) {
    for (txn::UserId user = 0; user < world_->log.num_users(); ++user) {
      float got_aux[2];
      float want_aux[2];
      extractor.ExtractUserSnapshot(user, as_of, got, got_aux);
      reference.ExtractUserSnapshot(user, as_of, want, want_aux);
      ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0) << "user " << user << ", day " << as_of;
      ASSERT_EQ(std::memcmp(got_aux, want_aux, sizeof(got_aux)), 0)
          << "user " << user << ", day " << as_of;
    }
  }
}

TEST_F(CoreFixture, TrainerBuildsAlignedMatrices) {
  PipelineOptions options;
  options.walks_per_node = 10;
  OfflineTrainer trainer(world_->log, *window_, options);
  ASSERT_TRUE(trainer.Prepare(FeatureSet::kBasicDWS2V).ok());

  const auto matrix = trainer.BuildMatrix(window_->test_records, FeatureSet::kBasicDWS2V);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->num_rows(), window_->test_records.size());
  EXPECT_EQ(matrix->num_cols(), FeatureExtractor::kNumBasicFeatures + 2 * 32);
  EXPECT_EQ(matrix->column_names().size(), static_cast<std::size_t>(matrix->num_cols()));
  ASSERT_TRUE(matrix->has_labels());
  for (std::size_t i = 0; i < matrix->num_rows(); ++i) {
    EXPECT_EQ(matrix->labels()[i],
              world_->log.records[window_->test_records[i]].is_fraud ? 1 : 0);
  }
  // Embedding block equals the transferee's embedding row.
  const auto* dw = trainer.dw_embeddings();
  ASSERT_NE(dw, nullptr);
  const auto& rec = world_->log.records[window_->test_records[0]];
  for (int j = 0; j < 32; ++j) {
    EXPECT_EQ(matrix->At(0, FeatureExtractor::kNumBasicFeatures + j), dw->Row(rec.to_user)[j]);
  }
}

TEST_F(CoreFixture, PrepareIsIncrementalAndIdempotent) {
  PipelineOptions options;
  options.walks_per_node = 5;
  OfflineTrainer trainer(world_->log, *window_, options);
  ASSERT_TRUE(trainer.Prepare(FeatureSet::kBasic).ok());
  EXPECT_EQ(trainer.dw_embeddings(), nullptr);
  EXPECT_FALSE(trainer.BuildMatrix(window_->test_records, FeatureSet::kBasicDW).ok());
  ASSERT_TRUE(trainer.Prepare(FeatureSet::kBasicDW).ok());
  const auto* dw = trainer.dw_embeddings();
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(trainer.Prepare(FeatureSet::kBasicDW).ok());
  EXPECT_EQ(trainer.dw_embeddings(), dw);  // Cached, not rebuilt.
}


TEST_F(CoreFixture, HeteroDwPipelineProducesUserEmbeddings) {
  PipelineOptions options;
  options.walks_per_node = 5;
  options.hetero_dw = true;  // §4.5 future-work mode.
  OfflineTrainer trainer(world_->log, *window_, options);
  ASSERT_TRUE(trainer.Prepare(FeatureSet::kBasicDW).ok());
  const auto* dw = trainer.dw_embeddings();
  ASSERT_NE(dw, nullptr);
  // Only user rows are retained (devices were auxiliary walk context).
  EXPECT_EQ(dw->rows(), world_->log.num_users());
  EXPECT_EQ(dw->dim(), 32);
  const auto matrix = trainer.BuildMatrix(window_->test_records, FeatureSet::kBasicDW);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->num_cols(), FeatureExtractor::kNumBasicFeatures + 32);
}

TEST_F(CoreFixture, ExperimentRunProducesSaneMetrics) {
  PipelineOptions options;
  options.walks_per_node = 10;
  options.gbdt.num_trees = 60;
  WeekExperiment experiment(world_->log, {*window_}, options);
  const auto result = experiment.Run(0, {FeatureSet::kBasic, ModelKind::kGbdt});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->f1, 0.0);
  EXPECT_LE(result->f1, 1.0);
  EXPECT_GT(result->train_rows, 0u);
  EXPECT_EQ(result->test_rows, window_->test_records.size());
  EXPECT_GE(result->classifier_train_seconds, 0.0);
  EXPECT_FALSE(experiment.Run(7, {}).ok());  // Out of range.
}

TEST(PipelineNamesTest, EnumsHaveNames) {
  EXPECT_STREQ(FeatureSetName(FeatureSet::kBasicDW), "Basic Features+DW");
  EXPECT_STREQ(ModelKindName(ModelKind::kC50), "C5.0");
  EXPECT_TRUE(FeatureSetUsesDw(FeatureSet::kBasicDWS2V));
  EXPECT_FALSE(FeatureSetUsesDw(FeatureSet::kBasicS2V));
  EXPECT_TRUE(FeatureSetUsesS2v(FeatureSet::kBasicS2V));
  for (ModelKind kind : {ModelKind::kIsolationForest, ModelKind::kId3, ModelKind::kC50,
                         ModelKind::kLr, ModelKind::kGbdt}) {
    EXPECT_NE(MakeModel(kind, PipelineOptions()), nullptr);
  }
}

}  // namespace
}  // namespace titant::core
