#include "net/wire.h"

#include "common/bytes.h"

namespace titant::net {

namespace {

Status Truncated() { return Status::InvalidArgument("truncated wire payload"); }

/// InvalidArgument unless `r` consumed every byte (catches trailing junk).
Status ExpectDone(const ByteReader& r) {
  if (!r.done()) return Status::InvalidArgument("trailing bytes after wire payload");
  return Status::OK();
}

/// Reads a transported Status: int32 code + u32-prefixed message.
Status ReadStatus(ByteReader& r, std::string_view what, Status* status) {
  int32_t code = 0;
  std::string_view message;
  if (!r.I32(&code) || !r.Str(&message)) return Truncated();
  if (!StatusCodeIsValid(code)) {
    return Status::InvalidArgument(std::string(what) + " carries unknown status code " +
                                   std::to_string(code));
  }
  *status = Status(static_cast<StatusCode>(code), std::string(message));
  return Status::OK();
}

void WriteStatus(ByteWriter& w, const Status& status) {
  w.I32(static_cast<int32_t>(status.code()));
  w.Str(status.message());
}

/// Writes the fixed frame header, declaring `payload_size` bytes to follow.
void EncodeFrameHeaderTo(std::string* out, FrameType type, uint16_t method,
                         uint64_t request_id, uint32_t deadline_ms, std::size_t payload_size) {
  ByteWriter w(out);
  w.U32(kWireMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U16(method);
  w.U64(request_id);
  w.U32(deadline_ms);
  w.U32(static_cast<uint32_t>(payload_size));
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing.

void EncodeRequestFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                          std::string_view payload, uint32_t deadline_ms) {
  EncodeFrameHeaderTo(out, FrameType::kRequest, method, request_id, deadline_ms,
                      payload.size());
  out->append(payload);
}

void EncodeResponseFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                           const Status& status, std::string_view body) {
  // The status + body sizes are known up front, so the whole frame is
  // written in one pass — no intermediate payload string to build, copy,
  // and free per response.
  const std::string_view carried_body = status.ok() ? body : std::string_view();
  const std::size_t payload_size = 4 + 4 + status.message().size() + carried_body.size();
  EncodeFrameHeaderTo(out, FrameType::kResponse, method, request_id, /*deadline_ms=*/0,
                      payload_size);
  ByteWriter w(out);
  WriteStatus(w, status);
  w.Bytes(carried_body);
}

Status DecodeResponsePayload(const Frame& frame, std::string* body) {
  std::string_view view;
  TITANT_RETURN_IF_ERROR(DecodeResponsePayload(frame, &view));
  body->assign(view);
  return Status::OK();
}

Status DecodeResponsePayload(const Frame& frame, std::string_view* body) {
  if (frame.type != FrameType::kResponse) {
    return Status::InvalidArgument("frame is not a response");
  }
  ByteReader r(frame.payload);
  Status transported;
  TITANT_RETURN_IF_ERROR(ReadStatus(r, "response", &transported));
  if (!transported.ok()) return transported;
  *body = r.Rest();
  return Status::OK();
}

Status FrameDecoder::Feed(const char* data, std::size_t size, std::vector<Frame>* out) {
  return Decode(data, size, [out]() -> Frame& {
    Frame& frame = out->emplace_back();
    frame.received_at_us = MonotonicMicros();
    return frame;
  });
}

Status FrameDecoder::FeedInto(const char* data, std::size_t size, int64_t received_at_us,
                              std::vector<Frame>* frames, std::size_t* count) {
  *count = 0;
  return Decode(data, size, [&]() -> Frame& {
    if (*count == frames->size()) frames->emplace_back();
    Frame& frame = (*frames)[(*count)++];
    frame.received_at_us = received_at_us;
    return frame;
  });
}

template <typename NextFrame>
Status FrameDecoder::Decode(const char* data, std::size_t size, NextFrame next_frame) {
  buffer_.append(data, size);
  std::size_t consumed = 0;
  while (buffer_.size() - consumed >= kHeaderBytes) {
    ByteReader header(std::string_view(buffer_).substr(consumed, kHeaderBytes));
    uint32_t magic = 0, deadline_ms = 0, payload_size = 0;
    uint8_t version = 0, type = 0;
    uint16_t method = 0;
    uint64_t request_id = 0;
    header.U32(&magic);
    header.U8(&version);
    header.U8(&type);
    header.U16(&method);
    header.U64(&request_id);
    header.U32(&deadline_ms);
    header.U32(&payload_size);
    if (magic != kWireMagic) {
      return Status::InvalidArgument("bad frame magic");
    }
    if (version != kWireVersion) {
      return Status::InvalidArgument("unsupported wire version " + std::to_string(version));
    }
    if (type > static_cast<uint8_t>(FrameType::kResponse)) {
      return Status::InvalidArgument("unknown frame type " + std::to_string(type));
    }
    if (payload_size > kMaxPayloadBytes) {
      return Status::InvalidArgument("frame payload of " + std::to_string(payload_size) +
                                     " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                                     "-byte cap");
    }
    if (buffer_.size() - consumed < kHeaderBytes + payload_size) break;  // Torn: wait.

    Frame& frame = next_frame();
    frame.type = static_cast<FrameType>(type);
    frame.method = method;
    frame.request_id = request_id;
    frame.deadline_ms = deadline_ms;
    frame.payload.assign(buffer_, consumed + kHeaderBytes, payload_size);
    consumed += kHeaderBytes + payload_size;
  }
  buffer_.erase(0, consumed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Method payloads.

namespace {

/// Size of one TransferRequest record on the wire — fixed so a kScoreBatch
/// decoder can cross-check the declared item count against the payload.
constexpr std::size_t kTransferRequestBytes = 36;

void WriteTransferRequest(ByteWriter& w, const serving::TransferRequest& request) {
  w.U64(request.txn_id);
  w.U32(request.from_user);
  w.U32(request.to_user);
  w.F64(request.amount);
  w.I32(request.day);
  w.U32(request.second_of_day);
  w.U8(static_cast<uint8_t>(request.channel));
  w.U16(request.trans_city);
  w.U8(request.is_new_device ? 1 : 0);
}

Status ReadTransferRequest(ByteReader& r, serving::TransferRequest* request) {
  uint8_t channel = 0;
  if (!r.U64(&request->txn_id) || !r.U32(&request->from_user) || !r.U32(&request->to_user) ||
      !r.F64(&request->amount) || !r.I32(&request->day) || !r.U32(&request->second_of_day) ||
      !r.U8(&channel) || !r.U16(&request->trans_city) || !r.Bool(&request->is_new_device)) {
    return Truncated();
  }
  if (channel > static_cast<uint8_t>(txn::Channel::kApi)) {
    return Status::InvalidArgument("unknown channel " + std::to_string(channel));
  }
  request->channel = static_cast<txn::Channel>(channel);
  return Status::OK();
}

void WriteVerdict(ByteWriter& w, const serving::Verdict& verdict) {
  w.F64(verdict.fraud_probability);
  w.U8(verdict.interrupt ? 1 : 0);
  w.U8(verdict.degraded ? 1 : 0);
  w.I64(verdict.latency_us);
  w.U64(verdict.model_version);
}

Status ReadVerdict(ByteReader& r, serving::Verdict* verdict) {
  if (!r.F64(&verdict->fraud_probability) || !r.Bool(&verdict->interrupt) ||
      !r.Bool(&verdict->degraded) || !r.I64(&verdict->latency_us) ||
      !r.U64(&verdict->model_version)) {
    return Truncated();
  }
  return Status::OK();
}

}  // namespace

void EncodeTransferRequestTo(std::string* out, const serving::TransferRequest& request) {
  ByteWriter w(out);
  WriteTransferRequest(w, request);
}

Status DecodeTransferRequest(std::string_view payload, serving::TransferRequest* request) {
  ByteReader r(payload);
  TITANT_RETURN_IF_ERROR(ReadTransferRequest(r, request));
  return ExpectDone(r);
}

void EncodeVerdictTo(std::string* out, const serving::Verdict& verdict) {
  ByteWriter w(out);
  WriteVerdict(w, verdict);
}

Status DecodeVerdict(std::string_view payload, serving::Verdict* verdict) {
  ByteReader r(payload);
  TITANT_RETURN_IF_ERROR(ReadVerdict(r, verdict));
  return ExpectDone(r);
}

void EncodeScoreBatchRequestTo(std::string* out,
                               const std::vector<serving::TransferRequest>& requests) {
  ByteWriter w(out);
  w.U32(static_cast<uint32_t>(requests.size()));
  for (const serving::TransferRequest& request : requests) WriteTransferRequest(w, request);
}

Status CheckBatchItemCount(std::string_view what, uint32_t count, std::size_t payload_bytes,
                           std::size_t item_bytes, bool fixed_width) {
  if (count == 0) return Status::InvalidArgument("empty " + std::string(what));
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(std::string(what) + " of " + std::to_string(count) +
                                   " items exceeds the " + std::to_string(kMaxBatchItems) +
                                   "-item cap");
  }
  // Fixed-width items: a declared count that disagrees with the bytes
  // actually present is a protocol error, caught before any item decodes.
  // Variable-width items: the payload must at least fit `count` items at
  // their minimum encoded size, so a hostile count can't drive a huge
  // reserve() off a tiny frame.
  const bool fits = fixed_width ? CountIs(count, item_bytes, payload_bytes)
                                : CountFits(count, item_bytes, payload_bytes);
  if (!fits) {
    return Status::InvalidArgument(std::string(what) + " declares " + std::to_string(count) +
                                   (fixed_width ? " items of " : " items of at least ") +
                                   std::to_string(item_bytes) + " bytes but carries " +
                                   std::to_string(payload_bytes) + " payload bytes");
  }
  return Status::OK();
}

Status DecodeScoreBatchRequest(std::string_view payload,
                               std::vector<serving::TransferRequest>* requests) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Truncated();
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("score batch", count, r.remaining(),
                                             kTransferRequestBytes, /*fixed_width=*/true));
  requests->resize(count);
  for (serving::TransferRequest& request : *requests) {
    TITANT_RETURN_IF_ERROR(ReadTransferRequest(r, &request));
  }
  return ExpectDone(r);
}

void EncodeScoreBatchResponseTo(std::string* out, const StatusOr<serving::Verdict>* items,
                                std::size_t count) {
  ByteWriter w(out);
  w.U32(static_cast<uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    WriteStatus(w, items[i].status());
    if (items[i].ok()) WriteVerdict(w, *items[i]);
  }
}

Status DecodeScoreBatchResponse(std::string_view payload,
                                std::vector<StatusOr<serving::Verdict>>* items) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Truncated();
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument("score batch response of " + std::to_string(count) +
                                   " items exceeds the " + std::to_string(kMaxBatchItems) +
                                   "-item cap");
  }
  // An item takes at least its status code and message length.
  if (!r.Fits(count, 4 + 4)) return Truncated();
  items->clear();
  items->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Status transported;
    TITANT_RETURN_IF_ERROR(ReadStatus(r, "batch item", &transported));
    if (transported.ok()) {
      serving::Verdict verdict;
      TITANT_RETURN_IF_ERROR(ReadVerdict(r, &verdict));
      items->emplace_back(verdict);
    } else {
      items->emplace_back(std::move(transported));
    }
  }
  return ExpectDone(r);
}

namespace {

/// Decodes `count` cell records into `(*cells)[0, count)`. Slots that
/// already exist keep their strings' capacity, so a warm reused vector
/// decodes without allocating. A cell must name a row and a family.
Status ReadCells(ByteReader& r, uint32_t count, std::vector<kvstore::Cell>* cells) {
  cells->resize(count);
  for (kvstore::Cell& cell : *cells) {
    if (!kvstore::DecodeCell(&r, &cell)) return Truncated();
    if (cell.key.row.empty()) return Status::InvalidArgument("put cell with empty row key");
    if (cell.key.family.empty()) {
      return Status::InvalidArgument("put cell with empty column family");
    }
  }
  return Status::OK();
}

}  // namespace

void EncodePutBatchRequestTo(std::string* out, const std::vector<kvstore::Cell>& cells) {
  ByteWriter(out).U32(static_cast<uint32_t>(cells.size()));
  for (const kvstore::Cell& cell : cells) {
    kvstore::EncodeCellTo(out, cell.key, cell.tombstone, cell.value);
  }
}

Status DecodePutBatchRequest(std::string_view payload, std::vector<kvstore::Cell>* cells) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Truncated();
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("put batch", count, r.remaining(),
                                             kvstore::kCellMinBytes, /*fixed_width=*/false));
  TITANT_RETURN_IF_ERROR(ReadCells(r, count, cells));
  return ExpectDone(r);
}

void EncodeReplRecordTo(std::string* out, const kvstore::Cell* const* cells, std::size_t n) {
  ByteWriter(out).U32(static_cast<uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    kvstore::EncodeCellTo(out, cells[i]->key, cells[i]->tombstone, cells[i]->value);
  }
}

void EncodeReplAppendTo(std::string* out, uint64_t first_seq, uint32_t record_count,
                        std::string_view records) {
  ByteWriter w(out);
  w.U64(first_seq);
  w.U32(record_count);
  w.Bytes(records);
}

Status DecodeReplAppend(std::string_view payload, uint64_t* first_seq,
                        std::vector<ReplRecord>* records) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U64(first_seq) || !r.U32(&count)) return Truncated();
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl append", count, r.remaining(),
                                             kReplRecordMinBytes, /*fixed_width=*/false));
  if (*first_seq == 0) return Status::InvalidArgument("repl append starts at seq 0");
  records->resize(count);
  for (ReplRecord& record : *records) {
    uint32_t cell_count = 0;
    if (!r.U32(&cell_count)) return Truncated();
    TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl record", cell_count, r.remaining(),
                                               kvstore::kCellMinBytes, /*fixed_width=*/false));
    TITANT_RETURN_IF_ERROR(ReadCells(r, cell_count, &record.cells));
  }
  return ExpectDone(r);
}

void EncodeReplAckTo(std::string* out, uint64_t watermark) { ByteWriter(out).U64(watermark); }

Status DecodeReplAck(std::string_view payload, uint64_t* watermark) {
  ByteReader r(payload);
  if (!r.U64(watermark)) return Truncated();
  return ExpectDone(r);
}

void EncodeReplCatchupTo(std::string* out, uint64_t watermark, bool done,
                         const kvstore::Cell* cells, std::size_t n) {
  ByteWriter w(out);
  w.U64(watermark);
  w.U8(done ? 1 : 0);
  w.U32(static_cast<uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    kvstore::EncodeCellTo(out, cells[i].key, cells[i].tombstone, cells[i].value);
  }
}

Status DecodeReplCatchup(std::string_view payload, uint64_t* watermark, bool* done,
                         std::vector<kvstore::Cell>* cells) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U64(watermark) || !r.Bool(done) || !r.U32(&count)) return Truncated();
  cells->clear();
  // An empty final chunk is legal (an empty store still hands over its
  // watermark), so the zero-count rejection inside CheckBatchItemCount
  // only applies to non-empty chunks.
  if (count == 0) return ExpectDone(r);
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl catchup", count, r.remaining(),
                                             kvstore::kCellMinBytes, /*fixed_width=*/false));
  TITANT_RETURN_IF_ERROR(ReadCells(r, count, cells));
  return ExpectDone(r);
}

void EncodeLoadModelTo(std::string* out, uint64_t version, std::string_view blob) {
  ByteWriter w(out);
  w.U64(version);
  w.Bytes(blob);
}

Status DecodeLoadModel(std::string_view payload, uint64_t* version, std::string* blob) {
  ByteReader r(payload);
  if (!r.U64(version)) return Truncated();
  blob->assign(r.Rest());
  return Status::OK();
}

void EncodeHealthInfoTo(std::string* out, const HealthInfo& info) {
  ByteWriter w(out);
  w.U32(info.num_instances);
  w.U32(info.healthy_instances);
  w.U64(info.model_version);
}

Status DecodeHealthInfo(std::string_view payload, HealthInfo* info) {
  ByteReader r(payload);
  if (!r.U32(&info->num_instances) || !r.U32(&info->healthy_instances) ||
      !r.U64(&info->model_version)) {
    return Truncated();
  }
  return ExpectDone(r);
}

namespace {

/// Visits every GatewayStats field in wire order, so the encoder and the
/// decoder share one field list.
template <typename Stats, typename U64, typename F64>
bool VisitStats(Stats& s, U64 u64, F64 f64) {
  return u64(s.requests_served) && f64(s.wire_p50_us) && f64(s.wire_p95_us) &&
         f64(s.wire_p99_us) && f64(s.wire_p999_us) && f64(s.wire_max_us) &&
         f64(s.inproc_p50_us) && f64(s.inproc_p99_us) && u64(s.requests_shed) &&
         u64(s.requests_expired) && u64(s.degraded_verdicts) && u64(s.breaker_trips) &&
         u64(s.open_instances) && u64(s.coalesced_batches) && u64(s.coalesced_rows) &&
         u64(s.puts_applied) && u64(s.ingest_enqueued) && u64(s.ingest_shed) &&
         u64(s.ingest_applied) && u64(s.ingest_dropped) && u64(s.counter_cells_published) &&
         u64(s.aggregator_users) && u64(s.repl_shipped_seq) && u64(s.repl_acked_seq) &&
         u64(s.repl_lag) && u64(s.repl_failovers) && u64(s.repl_catchup_cells) &&
         u64(s.repl_catchup_bytes) && u64(s.kv_cache_hits) && u64(s.kv_cache_misses) &&
         u64(s.kv_cache_bytes) && u64(s.kv_flushes) && u64(s.kv_compactions) &&
         u64(s.kv_compaction_backlog) && u64(s.kv_maintenance_bytes_written) &&
         u64(s.kv_stall_us);
}

}  // namespace

void EncodeGatewayStatsTo(std::string* out, const GatewayStats& stats) {
  ByteWriter w(out);
  VisitStats(
      stats,
      [&w](uint64_t v) {
        w.U64(v);
        return true;
      },
      [&w](double v) {
        w.F64(v);
        return true;
      });
}

Status DecodeGatewayStats(std::string_view payload, GatewayStats* stats) {
  ByteReader r(payload);
  if (!VisitStats(
          *stats, [&r](uint64_t& v) { return r.U64(&v); },
          [&r](double& v) { return r.F64(&v); })) {
    return Truncated();
  }
  return ExpectDone(r);
}

}  // namespace titant::net
