#ifndef TITANT_STREAMING_AGGREGATOR_H_
#define TITANT_STREAMING_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "serving/request.h"
#include "txn/types.h"

namespace titant::streaming {

/// Sliding windows the aggregator maintains per user: 1h, 6h, 24h. The
/// paper's same-day velocity features (txn count, amount sum) are T+1 in
/// the batch store; these are their streaming replacements, fresh within
/// seconds of the scored transaction (§4.5 drift motivation).
inline constexpr int kNumWindows = 3;
inline constexpr int64_t kWindowSeconds[kNumWindows] = {3600, 21600, 86400};

/// Sub-buckets per window ring. Expiry is O(1) compaction: advancing the
/// ring head evicts one bucket (subtracting its running totals), never a
/// rescan of the window.
inline constexpr int kSubBuckets = 12;

/// Distinct-payee tracking per sub-bucket saturates at this many ids;
/// bursts fanning wider than kSubBuckets * kMerchantSlots payees report a
/// (still huge) lower bound rather than growing without bound.
inline constexpr int kMerchantSlots = 8;

/// Column family/qualifier of the published live-counter cell in the
/// online feature table. The streaming side owns this schema (it is the
/// producer); serving's feature table declares the family and the Model
/// Server decodes the blob on its read path.
inline constexpr char kFamilyRealtime[] = "rt";
inline constexpr char kQualWindow[] = "win";

/// Layout of the published cell value, kCounterFloats float32s
/// (EncodeCounters): {count, amount_sum, distinct_merchants} per window in
/// kWindowSeconds order, then the last event's day index and second-of-day
/// (two floats so both stay exact — one epoch-seconds float would round to
/// ~2 minutes by 2085). A day of -1 means no event yet.
inline constexpr int kCounterFloatsPerWindow = 3;
inline constexpr int kCounter24hCount = kCounterFloatsPerWindow * 2;
inline constexpr int kCounter24hAmount = kCounter24hCount + 1;
inline constexpr int kCounterLastDay = kCounterFloatsPerWindow * kNumWindows;
inline constexpr int kCounterLastSecond = kCounterLastDay + 1;
inline constexpr int kCounterFloats = kCounterLastSecond + 1;
static_assert(kWindowSeconds[2] == 86400, "kCounter24h* name window 2");

/// Event time on the simulated clock: seconds since the 2017-01-01 epoch.
inline int64_t EventSeconds(const serving::TransferRequest& request) {
  return static_cast<int64_t>(request.day) * 86400 + request.second_of_day;
}

/// The last event stamp of a published cell in EventSeconds, or -1 when it
/// has none. Any gateway client can put the cell, so a stamp that is not a
/// day in [0, 2^24] with a second in [0, 86400) also reads as none.
inline int64_t LastEventSeconds(const float counters[kCounterFloats]) {
  const float day = counters[kCounterLastDay];
  const float second = counters[kCounterLastSecond];
  if (!(day >= 0.0f && day <= 16777216.0f && second >= 0.0f && second < 86400.0f)) return -1;
  return static_cast<int64_t>(day) * 86400 + static_cast<int64_t>(second);
}

/// One window's aggregate as seen at query time.
struct WindowCounters {
  uint32_t count = 0;
  double amount_sum = 0.0;
  uint32_t distinct_merchants = 0;
};

/// All windows for one user plus the last event stamp (-1 = none).
struct LiveCounters {
  WindowCounters window[kNumWindows];
  int64_t last_event_s = -1;
};

struct AggregatorStats {
  /// Events folded into at least one window.
  uint64_t events_applied = 0;
  /// Events older than every window at apply time (dropped).
  uint64_t events_late = 0;
  /// Users with live window state.
  uint64_t active_users = 0;
};

/// Per-user sliding-window counters over scored transactions.
///
/// Each user keeps one ring of kSubBuckets sub-bucket counters per
/// window. An event lands in the sub-bucket covering its timestamp;
/// advancing the ring head (on newer events or queries) evicts expired
/// buckets by subtracting their running totals — O(1) amortized per
/// event, O(kSubBuckets) worst case per query, independent of event
/// rate. Counts and amounts are therefore exact over the ring's span;
/// the window edge is quantized to one sub-bucket (1h window: 5-minute
/// granularity). Out-of-order events within the ring's span land in
/// their correct bucket; older ones are counted as late and dropped.
///
/// Thread-safe: users are hash-striped over independent mutexes, so the
/// single ingest worker and concurrent Query callers only contend when
/// they collide on a stripe.
class Aggregator {
 public:
  Aggregator() = default;
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Folds one scored transaction into the transferor's windows. Returns
  /// false when the event is older than every window (counted as late).
  bool Apply(const serving::TransferRequest& event);

  /// Reads `user`'s counters as of `now_s`, advancing the rings so
  /// expired buckets fall out even when the user has gone quiet. Returns
  /// false (and leaves `*out` untouched) for a user with no state.
  bool Query(txn::UserId user, int64_t now_s, LiveCounters* out);

  /// Serializes counters into the kCounterFloats-float layout of the
  /// published "rt"/"win" cell (raw little-endian float32s — the same
  /// blob format as every other feature-table value).
  static void EncodeCounters(const LiveCounters& counters, float out[kCounterFloats]);

  AggregatorStats stats() const;

 private:
  static constexpr int64_t kNoBucket = -1;
  static constexpr int kStripes = 16;

  struct Bucket {
    int64_t start = kNoBucket;  // Inclusive start second; kNoBucket = empty.
    uint32_t count = 0;
    double amount = 0.0;
    uint8_t num_merchants = 0;  // Saturates at kMerchantSlots.
    txn::UserId merchants[kMerchantSlots] = {};
  };

  struct Ring {
    Bucket buckets[kSubBuckets];
    int64_t head = kNoBucket;  // Start of the newest bucket seen.
    // Running totals over live buckets, maintained on add/evict so a
    // query never rescans the ring for counts or sums.
    uint32_t total_count = 0;
    double total_amount = 0.0;

    void AdvanceTo(int64_t bucket_width, int64_t to_start);
    uint32_t DistinctMerchants() const;
  };

  struct UserState {
    Ring rings[kNumWindows];
    int64_t last_event_s = -1;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<txn::UserId, UserState> users;
  };

  Stripe stripes_[kStripes];
  std::atomic<uint64_t> events_applied_{0};
  std::atomic<uint64_t> events_late_{0};
};

}  // namespace titant::streaming

#endif  // TITANT_STREAMING_AGGREGATOR_H_
