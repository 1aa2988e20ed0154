#include "streaming/aggregator.h"

#include <algorithm>

namespace titant::streaming {

namespace {

int SlotOf(int64_t bucket_start, int64_t bucket_width) {
  return static_cast<int>((bucket_start / bucket_width) % kSubBuckets);
}

int64_t BucketStart(int64_t t, int64_t bucket_width) { return t - t % bucket_width; }

}  // namespace

void Aggregator::Ring::AdvanceTo(int64_t bucket_width, int64_t to_start) {
  if (head == kNoBucket) {
    head = to_start;
    return;
  }
  if (to_start <= head) return;
  const int64_t steps = (to_start - head) / bucket_width;
  if (steps >= kSubBuckets) {
    // The whole ring expired while the user was quiet: one wholesale
    // reset instead of stepping bucket by bucket through the gap.
    for (Bucket& bucket : buckets) bucket = Bucket{};
    total_count = 0;
    total_amount = 0.0;
    head = to_start;
    return;
  }
  for (int64_t step = 0; step < steps; ++step) {
    head += bucket_width;
    // The slot the new head claims held the bucket from exactly one ring
    // span ago; evict it by subtracting its totals — O(1) per step, and
    // each bucket is evicted at most once per pass over the ring.
    Bucket& expired = buckets[SlotOf(head, bucket_width)];
    total_count -= expired.count;
    total_amount -= expired.amount;
    expired = Bucket{};
  }
}

uint32_t Aggregator::Ring::DistinctMerchants() const {
  // Bounded union over the live buckets' saturating id lists; at most
  // kSubBuckets * kMerchantSlots entries, scanned linearly.
  txn::UserId seen[kSubBuckets * kMerchantSlots];
  uint32_t n = 0;
  for (const Bucket& bucket : buckets) {
    if (bucket.start == kNoBucket) continue;
    for (int j = 0; j < bucket.num_merchants; ++j) {
      const txn::UserId id = bucket.merchants[j];
      bool dup = false;
      for (uint32_t k = 0; k < n; ++k) {
        if (seen[k] == id) {
          dup = true;
          break;
        }
      }
      if (!dup) seen[n++] = id;
    }
  }
  return n;
}

bool Aggregator::Apply(const serving::TransferRequest& event) {
  const int64_t t = EventSeconds(event);
  Stripe& stripe = stripes_[event.from_user % kStripes];
  bool any = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    UserState& user = stripe.users[event.from_user];
    for (int w = 0; w < kNumWindows; ++w) {
      const int64_t bucket_width = kWindowSeconds[w] / kSubBuckets;
      const int64_t bs = BucketStart(t, bucket_width);
      Ring& ring = user.rings[w];
      ring.AdvanceTo(bucket_width, bs);
      if (bs <= ring.head - static_cast<int64_t>(kSubBuckets) * bucket_width) {
        continue;  // Older than this window's ring (out-of-order straggler).
      }
      Bucket& bucket = ring.buckets[SlotOf(bs, bucket_width)];
      if (bucket.start != bs) {
        // Evicted slots are always zeroed, so claiming one is just
        // stamping the start (an in-window start can only match).
        bucket = Bucket{};
        bucket.start = bs;
      }
      ++bucket.count;
      bucket.amount += event.amount;
      bool seen = false;
      for (int j = 0; j < bucket.num_merchants; ++j) {
        if (bucket.merchants[j] == event.to_user) {
          seen = true;
          break;
        }
      }
      if (!seen && bucket.num_merchants < kMerchantSlots) {
        bucket.merchants[bucket.num_merchants++] = event.to_user;
      }
      ++ring.total_count;
      ring.total_amount += event.amount;
      any = true;
    }
    if (any) user.last_event_s = std::max(user.last_event_s, t);
  }
  (any ? events_applied_ : events_late_).fetch_add(1, std::memory_order_relaxed);
  return any;
}

bool Aggregator::Query(txn::UserId user_id, int64_t now_s, LiveCounters* out) {
  Stripe& stripe = stripes_[user_id % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.users.find(user_id);
  if (it == stripe.users.end()) return false;
  UserState& user = it->second;
  for (int w = 0; w < kNumWindows; ++w) {
    const int64_t bucket_width = kWindowSeconds[w] / kSubBuckets;
    Ring& ring = user.rings[w];
    // Advance to the query stamp so a quiet user's expired buckets fall
    // out of the totals even though no new event touched the ring.
    ring.AdvanceTo(bucket_width, BucketStart(now_s, bucket_width));
    out->window[w].count = ring.total_count;
    out->window[w].amount_sum = ring.total_amount;
    out->window[w].distinct_merchants = ring.DistinctMerchants();
  }
  out->last_event_s = user.last_event_s;
  return true;
}

void Aggregator::EncodeCounters(const LiveCounters& counters, float out[kCounterFloats]) {
  for (int w = 0; w < kNumWindows; ++w) {
    float* window = out + kCounterFloatsPerWindow * w;
    window[0] = static_cast<float>(counters.window[w].count);
    window[1] = static_cast<float>(counters.window[w].amount_sum);
    window[2] = static_cast<float>(counters.window[w].distinct_merchants);
  }
  if (counters.last_event_s >= 0) {
    out[kCounterLastDay] = static_cast<float>(counters.last_event_s / 86400);
    out[kCounterLastSecond] = static_cast<float>(counters.last_event_s % 86400);
  } else {
    out[kCounterLastDay] = -1.0f;
    out[kCounterLastSecond] = 0.0f;
  }
}

AggregatorStats Aggregator::stats() const {
  AggregatorStats stats;
  stats.events_applied = events_applied_.load(std::memory_order_relaxed);
  stats.events_late = events_late_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stats.active_users += stripe.users.size();
  }
  return stats;
}

}  // namespace titant::streaming
