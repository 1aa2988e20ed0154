#ifndef TITANT_SERVING_REQUEST_H_
#define TITANT_SERVING_REQUEST_H_

#include <cstdint>

#include "txn/types.h"

namespace titant::serving {

/// The live transfer request the Alipay server forwards to the MS (Fig. 5).
///
/// Kept in its own leaf header (no store/model includes) so the wire codec
/// in src/net can serialize it without depending on the serving library.
struct TransferRequest {
  txn::TxnId txn_id = 0;
  txn::UserId from_user = txn::kInvalidUser;
  txn::UserId to_user = txn::kInvalidUser;
  double amount = 0.0;
  txn::Day day = 0;
  uint32_t second_of_day = 0;
  txn::Channel channel = txn::Channel::kApp;
  uint16_t trans_city = 0;
  bool is_new_device = false;
};

/// The request for a logged transfer, as the Alipay server would send it.
inline TransferRequest RequestOf(const txn::TransactionRecord& rec) {
  TransferRequest request;
  request.txn_id = rec.txn_id;
  request.from_user = rec.from_user;
  request.to_user = rec.to_user;
  request.amount = rec.amount;
  request.day = rec.day;
  request.second_of_day = rec.second_of_day;
  request.channel = rec.channel;
  request.trans_city = rec.trans_city;
  request.is_new_device = rec.is_new_device;
  return request;
}

/// The MS verdict returned to the Alipay server.
struct Verdict {
  double fraud_probability = 0.0;
  bool interrupt = false;   // True -> the on-going transaction is stopped.
  /// True when the score was computed from default features because the
  /// feature fetch failed or ran out of deadline budget (§4.4 resilience:
  /// a degraded answer inside the latency budget beats a failed
  /// transaction). Callers may treat degraded verdicts more cautiously.
  bool degraded = false;
  int64_t latency_us = 0;   // End-to-end MS latency (fetch + featurize + score).
  uint64_t model_version = 0;
};

}  // namespace titant::serving

#endif  // TITANT_SERVING_REQUEST_H_
