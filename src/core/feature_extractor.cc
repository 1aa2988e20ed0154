#include "core/feature_extractor.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace titant::core {

FeatureExtractor::FeatureExtractor(const txn::TransactionLog& log) : log_(log) {
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

void FeatureExtractor::FitCityStats(const std::vector<std::size_t>& record_indices) {
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

namespace {

void WriteProfileSlots(const txn::UserProfile& profile, float* out) {
  out[SlotOf("age")] = profile.age;
  out[SlotOf("is_male")] = profile.gender == txn::Gender::kMale ? 1.0f : 0.0f;
  out[SlotOf("is_female")] = profile.gender == txn::Gender::kFemale ? 1.0f : 0.0f;
  out[SlotOf("home_city")] = profile.home_city;
  out[SlotOf("account_age_days")] = profile.account_age_days;
  out[SlotOf("log_account_age")] = std::log1p(static_cast<float>(profile.account_age_days));
  out[SlotOf("verification_level")] = profile.verification_level;
  out[SlotOf("is_merchant")] = profile.is_merchant ? 1.0f : 0.0f;
}

/// A user's transfers in the kHistoryDays before `day`, over the log
/// records before index `end`: the record itself for Extract, the first
/// record of the as-of day for the snapshot. Only Extract reads the payee,
/// same-day and last-second fields.
struct History {
  double cnt7 = 0, cnt30 = 0, amt7 = 0, amt30 = 0, amt_max30 = 0;
  double night30 = 0, cross30 = 0, newdev30 = 0, hour_sum = 0;
  double cnt_today = 0, amt_today = 0, payee_cnt30 = 0, victim_hist = 0;
  double in_cnt30 = 0, in_amt30 = 0;
  std::size_t num_payees = 0, num_devices = 0;
  txn::Day last_day = 0;
  uint32_t last_second = 0;
  bool have_prev = false;

  double avg30() const { return cnt30 > 0 ? amt30 / cnt30 : 0.0; }
  double mean_hour() const { return cnt30 > 0 ? hour_sum / cnt30 : 14.0; }

  /// The kHistory slots as of `day`.
  void Write(txn::Day day, float* out) const {
    out[SlotOf("out_cnt_7d")] = static_cast<float>(cnt7);
    out[SlotOf("out_cnt_30d")] = static_cast<float>(cnt30);
    out[SlotOf("log_out_amt_7d")] = std::log1p(static_cast<float>(amt7));
    out[SlotOf("log_out_amt_30d")] = std::log1p(static_cast<float>(amt30));
    out[SlotOf("log_out_amt_max_30d")] = std::log1p(static_cast<float>(amt_max30));
    out[SlotOf("log_out_amt_avg_30d")] = std::log1p(static_cast<float>(avg30()));
    out[SlotOf("distinct_payees_30d")] = static_cast<float>(num_payees);
    out[SlotOf("in_cnt_30d")] = static_cast<float>(in_cnt30);
    out[SlotOf("log_in_amt_30d")] = std::log1p(static_cast<float>(in_amt30));
    out[SlotOf("device_cnt_30d")] = static_cast<float>(num_devices);
    out[SlotOf("new_device_rate_30d")] = static_cast<float>(cnt30 > 0 ? newdev30 / cnt30 : 0.0);
    out[SlotOf("night_rate_30d")] = static_cast<float>(cnt30 > 0 ? night30 / cnt30 : 0.0);
    out[SlotOf("cross_city_rate_30d")] = static_cast<float>(cnt30 > 0 ? cross30 / cnt30 : 0.0);
    out[SlotOf("days_since_last_out")] = have_prev ? static_cast<float>(day - last_day) : 60.0f;
    out[SlotOf("victim_reports_hist")] = static_cast<float>(victim_hist);
  }
};

History Accumulate(const txn::TransactionLog& log, const std::vector<uint32_t>& outgoing,
                   const std::vector<uint32_t>& incoming, txn::Day day, std::size_t end,
                   txn::UserId payee) {
  const auto before_end = [end](const std::vector<uint32_t>& list) {
    return std::lower_bound(list.begin(), list.end(), static_cast<uint32_t>(end));
  };
  History h;
  std::unordered_set<txn::UserId> payees;
  std::unordered_set<uint32_t> devices;
  for (auto it = outgoing.begin(), stop = before_end(outgoing); it != stop; ++it) {
    const auto& r = log.records[*it];
    if (r.day < day - FeatureExtractor::kHistoryDays) continue;
    ++h.cnt30;
    h.amt30 += r.amount;
    h.amt_max30 = std::max(h.amt_max30, r.amount);
    payees.insert(r.to_user);
    devices.insert(r.device_id);
    if (r.to_user == payee) ++h.payee_cnt30;
    if (r.second_of_day < 6 * 3600) ++h.night30;
    if (r.is_cross_city) ++h.cross30;
    if (r.is_new_device) ++h.newdev30;
    h.hour_sum += r.second_of_day / 3600.0;
    if (r.day >= day - 7) {
      ++h.cnt7;
      h.amt7 += r.amount;
    }
    if (r.day == day) {
      ++h.cnt_today;
      h.amt_today += r.amount;
    }
    if (r.is_fraud && r.label_available_day <= day) ++h.victim_hist;
    if (!h.have_prev || r.day > h.last_day ||
        (r.day == h.last_day && r.second_of_day > h.last_second)) {
      h.last_day = r.day;
      h.last_second = r.second_of_day;
      h.have_prev = true;
    }
  }
  h.num_payees = payees.size();
  h.num_devices = devices.size();
  for (auto it = incoming.begin(), stop = before_end(incoming); it != stop; ++it) {
    const auto& r = log.records[*it];
    if (r.day < day - FeatureExtractor::kHistoryDays) continue;
    ++h.in_cnt30;
    h.in_amt30 += r.amount;
  }
  return h;
}

}  // namespace

void FeatureExtractor::Extract(std::size_t record_idx, float* out) const {
  const auto& rec = log_.records[record_idx];
  WriteProfileSlots(log_.profiles[rec.from_user], out);
  WriteRequestSlots(rec, out);
  const auto& refs = history_[rec.from_user];
  const History h =
      Accumulate(log_, refs.outgoing, refs.incoming, rec.day, record_idx, rec.to_user);
  h.Write(rec.day, out);
  out[SlotOf("payee_txn_cnt_30d")] = static_cast<float>(h.payee_cnt30);
  out[SlotOf("is_new_payee")] = h.payee_cnt30 == 0 ? 1.0f : 0.0f;
  out[SlotOf("cnt_today")] = static_cast<float>(h.cnt_today);
  out[SlotOf("log_amt_today")] = std::log1p(static_cast<float>(h.amt_today));
  const double secs_since_prev =
      h.have_prev ? (static_cast<double>(rec.day - h.last_day) * 86400.0 + rec.second_of_day) -
                        h.last_second
                  : 86400.0 * 60.0;
  out[SlotOf("log_secs_since_prev")] =
      std::log1p(static_cast<float>(std::max(0.0, secs_since_prev)));
  WriteRatioSlots(rec, h.mean_hour(), h.avg30(), out);
  CityStats(rec.trans_city, out + SlotOf("city_fraud_rate_hist"));
}

void FeatureExtractor::CityStats(uint16_t city, float out[3]) const {
  const std::size_t c = std::min<std::size_t>(city, city_fraud_rate_.size() - 1);
  out[0] = city_fraud_rate_[c];
  out[1] = std::log1p(city_fraud_count_[c]);
  out[2] = std::log1p(city_txn_count_[c]);
}

void FeatureExtractor::ExtractUserSnapshot(txn::UserId user, txn::Day as_of, float* out,
                                           float aux[2]) const {
  std::fill(out, out + kNumBasicFeatures, 0.0f);
  WriteProfileSlots(log_.profiles[user], out);
  // The log is time-sorted, so "before day as_of" is "before one index".
  const std::size_t end =
      std::partition_point(log_.records.begin(), log_.records.end(),
                           [as_of](const txn::TransactionRecord& r) { return r.day < as_of; }) -
      log_.records.begin();
  const History h =
      Accumulate(log_, history_[user].outgoing, history_[user].incoming, as_of, end,
                 txn::kInvalidUser);
  h.Write(as_of, out);
  aux[0] = static_cast<float>(h.mean_hour());
  aux[1] = static_cast<float>(h.avg30());
}

std::vector<std::string> FeatureExtractor::FeatureNames() {
  std::vector<std::string> names;
  for (const FeatureSlot& slot : kFeatureSlots) names.emplace_back(slot.name);
  return names;
}

}  // namespace titant::core
