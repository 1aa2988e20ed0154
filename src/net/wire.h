#ifndef TITANT_NET_WIRE_H_
#define TITANT_NET_WIRE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "kvstore/cell.h"
#include "serving/request.h"

namespace titant::net {

/// The Model-Server wire protocol (§4.4: the Alipay server talks to the MS
/// fleet over the network). Frames are length-prefixed binary with a fixed
/// little-endian header:
///
///   offset 0   uint32  magic          (kWireMagic, 'TiT1')
///   offset 4   uint8   version        (kWireVersion)
///   offset 5   uint8   type           (FrameType)
///   offset 6   uint16  method         (Method)
///   offset 8   uint64  request_id     (echoed verbatim in the response)
///   offset 16  uint32  deadline_ms    (remaining client budget; 0 = none)
///   offset 20  uint32  payload_size   (bytes following the header)
///
/// `deadline_ms` is the caller's remaining per-request budget at the
/// moment the frame was encoded (since version 2). The server anchors it
/// to the frame's local receive stamp and refuses to start work on an
/// already-expired request — scoring a transfer whose caller has given up
/// wastes the fleet's capacity exactly when it is scarcest. Responses
/// carry 0.
///
/// Version 3 adds the kScoreBatch method: the request payload carries a
/// vector of TransferRequests, the response a vector of per-item
/// (status, Verdict) pairs, all under the same single deadline header —
/// one budget for the batch, one degraded/failed outcome per item.
///
/// Version 4 adds the streaming write path: kPutBatch carries a count-
/// capped vector of feature cells, turning the protocol from read-only
/// into a closed loop (scored transactions fold their counters back into
/// the feature store). It shares kScoreBatch's hostile-count validation
/// and the same deadline/admission semantics. A single put is a kPutBatch
/// of one cell.
///
/// Version 5 adds the replication plane between kvstore nodes: a primary
/// streams committed writes to a warm standby as kReplAppend frames (a
/// contiguous run of commit records, ack'd with the standby's replicated-
/// seq watermark) and pushes a full store snapshot as chunked kReplCatchup
/// frames when the standby reports a sequence gap (fresh join, restart,
/// or shipper overflow). Both carry kvstore's cell record (the one the WAL
/// and SSTables hold) and reuse kPutBatch's hostile-count validation.
///
/// Response payloads additionally carry the handler's Status ahead of the
/// body: int32 code, uint32 message length, message bytes, body bytes.
/// Oversized or malformed frames decode to InvalidArgument; torn frames
/// (header or payload split across reads) simply wait for more bytes.
///
/// Every field is written and read with common/bytes.h. Each encoder
/// appends to a caller-owned buffer (a reused send buffer, outbox or
/// handler body), so a warm encode allocates nothing.

inline constexpr uint32_t kWireMagic = 0x54695431;  // "TiT1"
inline constexpr uint8_t kWireVersion = 5;
inline constexpr std::size_t kHeaderBytes = 24;

/// Hard cap on a single frame's payload. Covers model blobs (a few MB)
/// with room to spare; anything larger is a protocol error, not traffic.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;

/// Direction of a frame.
enum class FrameType : uint8_t { kRequest = 0, kResponse = 1 };

/// RPC methods the gateway serves.
enum Method : uint16_t {
  kScore = 1,       // TransferRequest -> Verdict.
  kLoadModel = 2,   // (version, model blob) -> empty.
  kHealth = 3,      // empty -> HealthInfo.
  kStats = 4,       // empty -> GatewayStats.
  kScoreBatch = 5,  // vector<TransferRequest> -> vector<(Status, Verdict)>.
  // 6 is reserved (it was the single-cell put) and answered Unimplemented.
  kPutBatch = 7,    // vector<kvstore::Cell> -> empty.
  kReplAppend = 8,  // Contiguous commit records -> replicated watermark.
  kReplCatchup = 9, // Snapshot chunk (+ final watermark) -> watermark.
};

/// Hard cap on items in one kScoreBatch/kPutBatch frame: far above any
/// sane micro-batch, low enough that a hostile count can't drive
/// allocation.
inline constexpr uint32_t kMaxBatchItems = 4096;

/// Validates a batch frame's declared item count against the cap and the
/// bytes actually present, before any item is decoded or allocated for.
/// `item_bytes` is the per-item wire size: exact for fixed-width items
/// (`fixed_width` true — a disagreeing payload size is a protocol error)
/// or the minimum encoded size for variable-width items (`fixed_width`
/// false — the payload merely has to be large enough). Shared by the
/// kScoreBatch and kPutBatch decode paths.
Status CheckBatchItemCount(std::string_view what, uint32_t count, std::size_t payload_bytes,
                           std::size_t item_bytes, bool fixed_width);

/// A decoded frame (header fields + owned payload bytes).
struct Frame {
  FrameType type = FrameType::kRequest;
  uint16_t method = 0;
  uint64_t request_id = 0;
  /// Remaining caller budget when the frame was encoded (0 = none).
  uint32_t deadline_ms = 0;
  std::string payload;
  /// Monotonic receive stamp (MonotonicMicros). The server sets the
  /// kernel's receive time of the read that completed the frame, so a
  /// wait in the socket buffer counts; FrameDecoder::Feed sets the decode
  /// time. Anchors the deadline and the wire-latency histogram.
  int64_t received_at_us = 0;

  bool has_deadline() const { return deadline_ms != 0; }
  /// Absolute local-monotonic deadline, anchored at the receive stamp
  /// (INT64_MAX when the request carries no budget).
  int64_t deadline_us() const {
    return has_deadline() ? received_at_us + static_cast<int64_t>(deadline_ms) * 1000
                          : INT64_MAX;
  }
};

/// Steady-clock timestamp in microseconds (for wire-latency stamps).
inline int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Framing.

/// Appends a request frame carrying `payload` to `*out` (the client's
/// per-connection send buffer). `deadline_ms` is the caller's remaining
/// budget (0 = no deadline propagated).
void EncodeRequestFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                          std::string_view payload, uint32_t deadline_ms = 0);

/// Appends a response frame to `*out` (the server's per-connection
/// outbox): `status` travels in-band ahead of `body` (which is dropped for
/// error responses). The payload size is computed up front, so the frame
/// is written in one pass with no intermediate payload string.
void EncodeResponseFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                           const Status& status, std::string_view body);

/// Splits a response frame's payload back into the handler Status and the
/// body. Returns the transported status; `*body` is filled only when it
/// is OK. Malformed payloads return InvalidArgument.
Status DecodeResponsePayload(const Frame& frame, std::string* body);
/// The same, with `*body` viewing `frame.payload`.
Status DecodeResponsePayload(const Frame& frame, std::string_view* body);

/// Incremental frame decoder: feed raw socket bytes in any fragmentation,
/// complete frames are appended to `out`. A non-OK return (bad magic,
/// unsupported version, payload over kMaxPayloadBytes) is unrecoverable —
/// the connection must be closed. The cap is checked at the header, before
/// any of the payload is buffered.
class FrameDecoder {
 public:
  /// Appends each completed frame to `out`, stamped with the decode time.
  Status Feed(const char* data, std::size_t size, std::vector<Frame>* out);

  /// The server's form of Feed: completed frames overwrite
  /// `(*frames)[0, *count)` and carry `received_at_us`. The vector only
  /// grows and each slot keeps its payload capacity, so a warm decoder
  /// allocates nothing.
  Status FeedInto(const char* data, std::size_t size, int64_t received_at_us,
                  std::vector<Frame>* frames, std::size_t* count);

  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending_bytes() const { return buffer_.size(); }

  /// Drops any partially buffered frame (connection reset).
  void Reset() { buffer_.clear(); }

 private:
  /// Shared body of Feed and FeedInto: `next_frame()` returns the slot the
  /// next completed frame is decoded into.
  template <typename NextFrame>
  Status Decode(const char* data, std::size_t size, NextFrame next_frame);

  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Method payload serializers.

/// kScore request payload.
void EncodeTransferRequestTo(std::string* out, const serving::TransferRequest& request);
Status DecodeTransferRequest(std::string_view payload, serving::TransferRequest* request);

/// kScore response body.
void EncodeVerdictTo(std::string* out, const serving::Verdict& verdict);
Status DecodeVerdict(std::string_view payload, serving::Verdict* verdict);

/// kScoreBatch request payload: uint32 item count + that many fixed-width
/// TransferRequest records. Decode validates the declared count against
/// the actual payload size (and the kMaxBatchItems cap) before touching
/// any item; it decodes into the vector's existing slots.
void EncodeScoreBatchRequestTo(std::string* out,
                               const std::vector<serving::TransferRequest>& requests);
Status DecodeScoreBatchRequest(std::string_view payload,
                               std::vector<serving::TransferRequest>* requests);

/// kScoreBatch response body: uint32 item count, then per item the
/// transported Status (int32 code + length-prefixed message) followed by
/// the Verdict fields when — and only when — the status is OK. A span, so
/// handlers encode straight from their result scratch.
void EncodeScoreBatchResponseTo(std::string* out, const StatusOr<serving::Verdict>* items,
                                std::size_t count);
Status DecodeScoreBatchResponse(std::string_view payload,
                                std::vector<StatusOr<serving::Verdict>>* items);

/// kPutBatch request payload: uint32 item count + that many kvstore cell
/// records (kvstore::EncodeCellTo), bound for AliHBase::PutBatch. Decode
/// validates the declared count against the payload's minimum possible
/// size (and the kMaxBatchItems cap) before touching any item, decodes
/// into the vector's existing slots, and rejects a cell with an empty row
/// or family. The response body is empty — the transported Status is the
/// outcome.
void EncodePutBatchRequestTo(std::string* out, const std::vector<kvstore::Cell>& cells);
Status DecodePutBatchRequest(std::string_view payload, std::vector<kvstore::Cell>* cells);

/// One replication record: the cells of one primary shard commit. Its
/// commit sequence is implicit — record i of a kReplAppend frame carries
/// seq `first_seq + i`.
struct ReplRecord {
  std::vector<kvstore::Cell> cells;
};

/// Minimum encoded size of one replication record: the u32 cell count
/// plus at least one minimum-size cell (empty commits are never shipped).
inline constexpr std::size_t kReplRecordMinBytes = 4 + kvstore::kCellMinBytes;

/// Appends one commit record (u32 cell count + cell records) to `*out` —
/// called from the primary's commit sink, so it appends to a reused
/// buffer and allocates nothing once warm.
void EncodeReplRecordTo(std::string* out, const kvstore::Cell* const* cells, std::size_t n);

/// kReplAppend request payload: u64 first_seq, u32 record count, then the
/// pre-encoded records blob covering seqs [first_seq, first_seq+count).
void EncodeReplAppendTo(std::string* out, uint64_t first_seq, uint32_t record_count,
                        std::string_view records);
Status DecodeReplAppend(std::string_view payload, uint64_t* first_seq,
                        std::vector<ReplRecord>* records);

/// kReplAppend/kReplCatchup response body: the replica's watermark — the
/// highest commit seq it has durably applied.
void EncodeReplAckTo(std::string* out, uint64_t watermark);
Status DecodeReplAck(std::string_view payload, uint64_t* watermark);

/// kReplCatchup request payload: u64 watermark (the commit seq the full
/// snapshot covers — the same value in every chunk), u8 done flag (set on
/// the final chunk; the replica adopts the watermark only then, so a
/// half-delivered catch-up is simply retried from scratch), u32 cell
/// count, cells. Catch-up is additive: stale cells a diverged replica
/// already holds are shadowed by version order, not deleted.
void EncodeReplCatchupTo(std::string* out, uint64_t watermark, bool done,
                         const kvstore::Cell* cells, std::size_t n);
Status DecodeReplCatchup(std::string_view payload, uint64_t* watermark, bool* done,
                         std::vector<kvstore::Cell>* cells);

/// kLoadModel request payload: version + the serialized model blob.
void EncodeLoadModelTo(std::string* out, uint64_t version, std::string_view blob);
Status DecodeLoadModel(std::string_view payload, uint64_t* version, std::string* blob);

/// kHealth response body.
struct HealthInfo {
  uint32_t num_instances = 0;
  uint32_t healthy_instances = 0;
  uint64_t model_version = 0;
};
void EncodeHealthInfoTo(std::string* out, const HealthInfo& info);
Status DecodeHealthInfo(std::string_view payload, HealthInfo* info);

/// kStats response body: the gateway's wire-latency histogram next to the
/// router's in-process one (both microseconds), plus the fault-tolerance
/// counters (admission control, deadline enforcement, degraded scoring,
/// circuit breaking).
struct GatewayStats {
  uint64_t requests_served = 0;
  double wire_p50_us = 0.0;
  double wire_p95_us = 0.0;
  double wire_p99_us = 0.0;
  double wire_p999_us = 0.0;
  double wire_max_us = 0.0;
  double inproc_p50_us = 0.0;
  double inproc_p99_us = 0.0;
  /// Requests refused with ResourceExhausted by admission control.
  uint64_t requests_shed = 0;
  /// Requests answered Timeout because their budget, anchored at the
  /// kernel's receive time, expired before the handler ran.
  uint64_t requests_expired = 0;
  /// Verdicts served from default features (degraded=true).
  uint64_t degraded_verdicts = 0;
  /// Circuit-breaker trips across the fleet since start.
  uint64_t breaker_trips = 0;
  /// Instances currently held out of rotation by an open breaker.
  uint64_t open_instances = 0;
  /// Router dispatches made for kScore frames and the rows they carried.
  /// Each kScore frame is one single-row dispatch on the reactor that read
  /// it, so rows/batches reads 1; explicit kScoreBatch frames are not
  /// counted here. The names stay as they are on the wire and in readers.
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_rows = 0;
  /// Streaming ingestion (version 4): cells written through kPutBatch.
  uint64_t puts_applied = 0;
  /// Scored events accepted into the ingest queue, shed from it under
  /// backpressure (shed-oldest), folded into the aggregator, and dropped
  /// (too old for every window, or an injected `streaming.ingest` fault).
  uint64_t ingest_enqueued = 0;
  uint64_t ingest_shed = 0;
  uint64_t ingest_applied = 0;
  uint64_t ingest_dropped = 0;
  /// Live counter cells published back to the feature store ("rt"/"win").
  uint64_t counter_cells_published = 0;
  /// Users with live sliding-window state in the aggregator.
  uint64_t aggregator_users = 0;
  /// Replication (version 5). On a primary: the highest commit seq handed
  /// to the shipper and the highest the standby has acknowledged — their
  /// difference is the shipping lag in commits (the staleness bound a
  /// failover inherits). On a replica: acked_seq is its own watermark.
  uint64_t repl_shipped_seq = 0;
  uint64_t repl_acked_seq = 0;
  uint64_t repl_lag = 0;
  /// Reads flipped primary->standby by the serving tier's failover store.
  uint64_t repl_failovers = 0;
  /// Cells and bytes pushed through snapshot catch-up (gap recovery).
  uint64_t repl_catchup_cells = 0;
  uint64_t repl_catchup_bytes = 0;
  /// KV store engine (the "kvstore" metrics provider): block-cache
  /// traffic and the background maintenance loop. kv_stall_us is wall
  /// time writers spent in hard-cap inline flushes — the backpressure
  /// signal that maintenance is not keeping up.
  uint64_t kv_cache_hits = 0;
  uint64_t kv_cache_misses = 0;
  uint64_t kv_cache_bytes = 0;
  uint64_t kv_flushes = 0;
  uint64_t kv_compactions = 0;
  uint64_t kv_compaction_backlog = 0;
  uint64_t kv_maintenance_bytes_written = 0;
  uint64_t kv_stall_us = 0;
};
void EncodeGatewayStatsTo(std::string* out, const GatewayStats& stats);
Status DecodeGatewayStats(std::string_view payload, GatewayStats* stats);

}  // namespace titant::net

#endif  // TITANT_NET_WIRE_H_
