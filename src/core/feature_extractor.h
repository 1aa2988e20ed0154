#ifndef TITANT_CORE_FEATURE_EXTRACTOR_H_
#define TITANT_CORE_FEATURE_EXTRACTOR_H_

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "txn/types.h"

namespace titant::core {

/// Where a basic-feature slot's value comes from. Each source has one
/// writer, shared by every producer that fills it (DESIGN.md §17).
enum class SlotSource : uint8_t {
  kProfile,  // Transferor profile: Extract and the T+1 snapshot.
  kRequest,  // The transfer itself: Extract and the Model Server.
  kHistory,  // Transferor's 30 days before the transfer: Extract and the snapshot.
  kPayee,    // History with this payee: Extract; serving keeps cold defaults.
  kToday,    // Same-day velocity: Extract; serving reads the live counters.
  kRatio,    // Transfer against the 30-day means: Extract and the Model Server.
  kCity,     // Historical fraud statistics of the transfer city (CityStats).
};

/// One basic-feature slot: its column name and where its value comes from.
struct FeatureSlot {
  std::string_view name;
  SlotSource source;
};

/// The paper's "basic features" (§3.3: "about fifty features are carefully
/// engineered" — exactly 52 in §5.1), in column order. This table is the
/// only place a slot has a number; code names a slot with SlotOf.
inline constexpr FeatureSlot kFeatureSlots[] = {
    {"age", SlotSource::kProfile},
    {"is_male", SlotSource::kProfile},
    {"is_female", SlotSource::kProfile},
    {"home_city", SlotSource::kProfile},
    {"account_age_days", SlotSource::kProfile},
    {"log_account_age", SlotSource::kProfile},
    {"verification_level", SlotSource::kProfile},
    {"is_merchant", SlotSource::kProfile},
    {"amount", SlotSource::kRequest},
    {"log_amount", SlotSource::kRequest},
    {"is_round_amount", SlotSource::kRequest},
    {"amount_ge_500", SlotSource::kRequest},
    {"amount_ge_2000", SlotSource::kRequest},
    {"hour", SlotSource::kRequest},
    {"hour_sin", SlotSource::kRequest},
    {"hour_cos", SlotSource::kRequest},
    {"is_night", SlotSource::kRequest},
    {"is_evening", SlotSource::kRequest},
    {"day_of_week", SlotSource::kRequest},
    {"is_weekend", SlotSource::kRequest},
    {"channel_app", SlotSource::kRequest},
    {"channel_web", SlotSource::kRequest},
    {"channel_qr", SlotSource::kRequest},
    {"channel_api", SlotSource::kRequest},
    {"trans_city", SlotSource::kRequest},
    {"is_cross_city", SlotSource::kRequest},
    {"is_new_device", SlotSource::kRequest},
    {"out_cnt_7d", SlotSource::kHistory},
    {"out_cnt_30d", SlotSource::kHistory},
    {"log_out_amt_7d", SlotSource::kHistory},
    {"log_out_amt_30d", SlotSource::kHistory},
    {"log_out_amt_max_30d", SlotSource::kHistory},
    {"log_out_amt_avg_30d", SlotSource::kHistory},
    {"distinct_payees_30d", SlotSource::kHistory},
    {"payee_txn_cnt_30d", SlotSource::kPayee},
    {"is_new_payee", SlotSource::kPayee},
    {"in_cnt_30d", SlotSource::kHistory},
    {"log_in_amt_30d", SlotSource::kHistory},
    {"device_cnt_30d", SlotSource::kHistory},
    {"new_device_rate_30d", SlotSource::kHistory},
    {"night_rate_30d", SlotSource::kHistory},
    {"cross_city_rate_30d", SlotSource::kHistory},
    {"days_since_last_out", SlotSource::kHistory},
    {"cnt_today", SlotSource::kToday},
    {"log_amt_today", SlotSource::kToday},
    {"log_secs_since_prev", SlotSource::kToday},
    {"amount_over_avg", SlotSource::kRatio},
    {"hour_deviation", SlotSource::kRatio},
    {"city_fraud_rate_hist", SlotSource::kCity},
    {"log_city_fraud_cnt_hist", SlotSource::kCity},
    {"log_city_txn_cnt_hist", SlotSource::kCity},
    {"victim_reports_hist", SlotSource::kHistory},
};

/// Column of the slot named `name`. An unknown name does not compile.
consteval int SlotOf(std::string_view name) {
  for (int i = 0; i < static_cast<int>(std::size(kFeatureSlots)); ++i) {
    if (kFeatureSlots[i].name == name) return i;
  }
  throw "unknown feature slot";
}

/// Writes the kRequest slots of a transfer: a txn::TransactionRecord
/// offline, a serving::TransferRequest online. A request carries no
/// cross-city flag, so it is read against the home_city slot, which the
/// caller must have filled first.
template <class Transfer>
void WriteRequestSlots(const Transfer& t, float* out) {
  constexpr double kTwoPi = 6.283185307179586;
  const double hour = t.second_of_day / 3600.0;
  out[SlotOf("amount")] = static_cast<float>(t.amount);
  out[SlotOf("log_amount")] = std::log1p(static_cast<float>(t.amount));
  out[SlotOf("is_round_amount")] =
      (t.amount >= 100.0 && std::fmod(t.amount, 100.0) == 0.0) ? 1.0f : 0.0f;
  out[SlotOf("amount_ge_500")] = t.amount >= 500.0 ? 1.0f : 0.0f;
  out[SlotOf("amount_ge_2000")] = t.amount >= 2000.0 ? 1.0f : 0.0f;
  out[SlotOf("hour")] = static_cast<float>(hour);
  out[SlotOf("hour_sin")] = static_cast<float>(std::sin(kTwoPi * hour / 24.0));
  out[SlotOf("hour_cos")] = static_cast<float>(std::cos(kTwoPi * hour / 24.0));
  out[SlotOf("is_night")] = hour < 6.0 ? 1.0f : 0.0f;
  out[SlotOf("is_evening")] = (hour >= 19.0 && hour < 23.0) ? 1.0f : 0.0f;
  const int dow = ((t.day % 7) + 7) % 7;
  out[SlotOf("day_of_week")] = static_cast<float>(dow);
  out[SlotOf("is_weekend")] = dow >= 5 ? 1.0f : 0.0f;
  out[SlotOf("channel_app")] = t.channel == txn::Channel::kApp ? 1.0f : 0.0f;
  out[SlotOf("channel_web")] = t.channel == txn::Channel::kWeb ? 1.0f : 0.0f;
  out[SlotOf("channel_qr")] = t.channel == txn::Channel::kQrCode ? 1.0f : 0.0f;
  out[SlotOf("channel_api")] = t.channel == txn::Channel::kApi ? 1.0f : 0.0f;
  out[SlotOf("trans_city")] = t.trans_city;
  if constexpr (requires { t.is_cross_city; }) {
    out[SlotOf("is_cross_city")] = t.is_cross_city ? 1.0f : 0.0f;
  } else {
    // Compared as floats: the home city comes off a store cell and may be
    // any float, NaN included.
    out[SlotOf("is_cross_city")] =
        static_cast<float>(t.trans_city) != out[SlotOf("home_city")] ? 1.0f : 0.0f;
  }
  out[SlotOf("is_new_device")] = t.is_new_device ? 1.0f : 0.0f;
}

/// Writes the kRatio slots: the transfer's amount against the transferor's
/// 30-day mean amount, and its hour against their 30-day mean hour.
/// Extract passes the exact means; the Model Server passes the float32 aux
/// cell of the snapshot.
template <class Transfer>
void WriteRatioSlots(const Transfer& t, double mean_hour, double avg_amount, float* out) {
  out[SlotOf("amount_over_avg")] = static_cast<float>(t.amount / (1.0 + avg_amount));
  out[SlotOf("hour_deviation")] =
      static_cast<float>(std::fabs(t.second_of_day / 3600.0 - mean_hour));
}

/// Computes the basic features for a transaction record: transferor
/// profile, transfer environment (amount/time/city/device/channel) and the
/// transferor's recent behavioural aggregates.
///
/// Deliberately excluded: any aggregate of the *transferee's* history.
/// That topological/aggregated information is what the user node
/// embeddings contribute on top (§3.2), and keeping it out of the basic
/// set preserves the paper's Table-1 structure where "+DW"/"+S2V" add
/// signal beyond the basic features.
///
/// Usage: construct once per TransactionLog (builds a per-user history
/// index), call FitCityStats with the window's *network-period* records
/// (historical fraud rates per city — labels there are old enough to be
/// known), then Extract per record.
class FeatureExtractor {
 public:
  static constexpr int kNumBasicFeatures = static_cast<int>(std::size(kFeatureSlots));
  static constexpr int kHistoryDays = 30;  // Lookback for aggregates.

  /// `log.records` must be sorted by time, as txn::TransactionLog requires.
  explicit FeatureExtractor(const txn::TransactionLog& log);

  /// Fits per-city historical fraud-rate statistics from the given record
  /// indices (conventionally the 90-day network period, whose labels have
  /// all arrived by training time).
  void FitCityStats(const std::vector<std::size_t>& record_indices);

  /// Writes kNumBasicFeatures values for `log.records[record_idx]`.
  /// History aggregates only look at records strictly before the record's
  /// own timestamp (no leakage from the future).
  void Extract(std::size_t record_idx, float* out) const;

  /// Column names, aligned with Extract's output order.
  static std::vector<std::string> FeatureNames();

  /// Per-user feature snapshot for the online feature store (§4.4): the
  /// kProfile and kHistory slots of `user` as of the end of day
  /// `as_of - 1`, every other slot zero. The Model Server fills those from
  /// the live request. `aux` receives side values needed for request-time
  /// reconstruction of the kRatio slots: {mean_hour_30d, avg_amount_30d}.
  void ExtractUserSnapshot(txn::UserId user, txn::Day as_of, float* out,
                           float aux[2]) const;

  /// Historical fraud statistics of a city: the kCity slots {fraud_rate,
  /// log1p(fraud_cnt), log1p(txn_cnt)}, which the Model Server reads from
  /// the request's trans_city. Requires FitCityStats.
  void CityStats(uint16_t city, float out[3]) const;

 private:
  struct UserHistoryRef {
    // Indices into log_.records of this user's outgoing/incoming
    // transfers, in log order (time-sorted).
    std::vector<uint32_t> outgoing;
    std::vector<uint32_t> incoming;
  };

  const txn::TransactionLog& log_;
  std::vector<UserHistoryRef> history_;
  std::vector<float> city_fraud_rate_;
  std::vector<float> city_fraud_count_;
  std::vector<float> city_txn_count_;
};

}  // namespace titant::core

#endif  // TITANT_CORE_FEATURE_EXTRACTOR_H_
