#include "net/wire.h"

#include <cstring>

namespace titant::net {

namespace {

/// Reads a little-endian unsigned integer of `bytes` width at `p`.
uint64_t LoadLe(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter.

void WireWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v));
  U8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->append(s);
}

// ---------------------------------------------------------------------------
// WireReader.

namespace {
Status Truncated() { return Status::InvalidArgument("truncated wire payload"); }
}  // namespace

Status WireReader::U8(uint8_t* v) {
  if (remaining() < 1) return Truncated();
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::U16(uint16_t* v) {
  if (remaining() < 2) return Truncated();
  *v = static_cast<uint16_t>(LoadLe(data_.data() + pos_, 2));
  pos_ += 2;
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  if (remaining() < 4) return Truncated();
  *v = static_cast<uint32_t>(LoadLe(data_.data() + pos_, 4));
  pos_ += 4;
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  if (remaining() < 8) return Truncated();
  *v = LoadLe(data_.data() + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

Status WireReader::I32(int32_t* v) {
  uint32_t raw = 0;
  TITANT_RETURN_IF_ERROR(U32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status WireReader::I64(int64_t* v) {
  uint64_t raw = 0;
  TITANT_RETURN_IF_ERROR(U64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireReader::F64(double* v) {
  uint64_t bits = 0;
  TITANT_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::Str(std::string* v) {
  uint32_t size = 0;
  TITANT_RETURN_IF_ERROR(U32(&size));
  if (remaining() < size) return Truncated();
  v->assign(data_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

std::string_view WireReader::Rest() {
  std::string_view rest = data_.substr(pos_);
  pos_ = data_.size();
  return rest;
}

Status WireReader::ExpectDone() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument("trailing bytes after wire payload");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Framing.

namespace {

/// Writes the fixed frame header, declaring `payload_size` bytes to follow.
void EncodeFrameHeaderTo(std::string* out, FrameType type, uint16_t method,
                         uint64_t request_id, uint32_t deadline_ms, std::size_t payload_size) {
  WireWriter w(out);
  w.U32(kWireMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U16(method);
  w.U64(request_id);
  w.U32(deadline_ms);
  w.U32(static_cast<uint32_t>(payload_size));
}

}  // namespace

void EncodeRequestFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                          std::string_view payload, uint32_t deadline_ms) {
  EncodeFrameHeaderTo(out, FrameType::kRequest, method, request_id, deadline_ms,
                      payload.size());
  out->append(payload);
}

std::string EncodeRequestFrame(uint16_t method, uint64_t request_id, std::string_view payload,
                               uint32_t deadline_ms) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  EncodeRequestFrameTo(&out, method, request_id, payload, deadline_ms);
  return out;
}

void EncodeResponseFrameTo(std::string* out, uint16_t method, uint64_t request_id,
                           const Status& status, std::string_view body) {
  // The status + body sizes are known up front, so the whole frame is
  // written in one pass — no intermediate payload string to build, copy,
  // and free per response.
  const std::string_view message = status.message();
  const std::string_view carried_body = status.ok() ? body : std::string_view();
  const std::size_t payload_size = 4 + 4 + message.size() + carried_body.size();
  EncodeFrameHeaderTo(out, FrameType::kResponse, method, request_id, /*deadline_ms=*/0,
                      payload_size);
  WireWriter w(out);
  w.I32(static_cast<int32_t>(status.code()));
  w.Str(message);
  w.Bytes(carried_body);
}

std::string EncodeResponseFrame(uint16_t method, uint64_t request_id, const Status& status,
                                std::string_view body) {
  std::string out;
  EncodeResponseFrameTo(&out, method, request_id, status, body);
  return out;
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
  WireReader r(frame.payload);
  int32_t code = 0;
  std::string message;
  TITANT_RETURN_IF_ERROR(r.I32(&code));
  TITANT_RETURN_IF_ERROR(r.Str(&message));
  if (!StatusCodeIsValid(code)) {
    return Status::InvalidArgument("response carries unknown status code " + std::to_string(code));
  }
  const Status transported(static_cast<StatusCode>(code), std::move(message));
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
    const char* header = buffer_.data() + consumed;
    const uint32_t magic = static_cast<uint32_t>(LoadLe(header, 4));
    if (magic != kWireMagic) {
      return Status::InvalidArgument("bad frame magic");
    }
    const uint8_t version = static_cast<uint8_t>(header[4]);
    if (version != kWireVersion) {
      return Status::InvalidArgument("unsupported wire version " + std::to_string(version));
    }
    const uint8_t type = static_cast<uint8_t>(header[5]);
    if (type > static_cast<uint8_t>(FrameType::kResponse)) {
      return Status::InvalidArgument("unknown frame type " + std::to_string(type));
    }
    const std::size_t payload_size = static_cast<std::size_t>(LoadLe(header + 20, 4));
    if (payload_size > max_payload_bytes_) {
      return Status::InvalidArgument("frame payload of " + std::to_string(payload_size) +
                                     " bytes exceeds the " +
                                     std::to_string(max_payload_bytes_) + "-byte cap");
    }
    if (buffer_.size() - consumed < kHeaderBytes + payload_size) break;  // Torn: wait.

    Frame& frame = next_frame();
    frame.type = static_cast<FrameType>(type);
    frame.method = static_cast<uint16_t>(LoadLe(header + 6, 2));
    frame.request_id = LoadLe(header + 8, 8);
    frame.deadline_ms = static_cast<uint32_t>(LoadLe(header + 16, 4));
    frame.payload.assign(header + kHeaderBytes, payload_size);
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

void WriteTransferRequestFields(WireWriter& w, const serving::TransferRequest& request) {
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

Status ReadTransferRequestFields(WireReader& r, serving::TransferRequest* request) {
  uint8_t channel = 0, new_device = 0;
  TITANT_RETURN_IF_ERROR(r.U64(&request->txn_id));
  TITANT_RETURN_IF_ERROR(r.U32(&request->from_user));
  TITANT_RETURN_IF_ERROR(r.U32(&request->to_user));
  TITANT_RETURN_IF_ERROR(r.F64(&request->amount));
  TITANT_RETURN_IF_ERROR(r.I32(&request->day));
  TITANT_RETURN_IF_ERROR(r.U32(&request->second_of_day));
  TITANT_RETURN_IF_ERROR(r.U8(&channel));
  TITANT_RETURN_IF_ERROR(r.U16(&request->trans_city));
  TITANT_RETURN_IF_ERROR(r.U8(&new_device));
  if (channel > static_cast<uint8_t>(txn::Channel::kApi)) {
    return Status::InvalidArgument("unknown channel " + std::to_string(channel));
  }
  request->channel = static_cast<txn::Channel>(channel);
  request->is_new_device = new_device != 0;
  return Status::OK();
}

void WriteVerdictFields(WireWriter& w, const serving::Verdict& verdict) {
  w.F64(verdict.fraud_probability);
  w.U8(verdict.interrupt ? 1 : 0);
  w.U8(verdict.degraded ? 1 : 0);
  w.I64(verdict.latency_us);
  w.U64(verdict.model_version);
}

Status ReadVerdictFields(WireReader& r, serving::Verdict* verdict) {
  uint8_t interrupt = 0, degraded = 0;
  TITANT_RETURN_IF_ERROR(r.F64(&verdict->fraud_probability));
  TITANT_RETURN_IF_ERROR(r.U8(&interrupt));
  TITANT_RETURN_IF_ERROR(r.U8(&degraded));
  TITANT_RETURN_IF_ERROR(r.I64(&verdict->latency_us));
  TITANT_RETURN_IF_ERROR(r.U64(&verdict->model_version));
  verdict->interrupt = interrupt != 0;
  verdict->degraded = degraded != 0;
  return Status::OK();
}

}  // namespace

std::string EncodeTransferRequest(const serving::TransferRequest& request) {
  WireWriter w;
  WriteTransferRequestFields(w, request);
  return w.Take();
}

void EncodeTransferRequestTo(std::string* out, const serving::TransferRequest& request) {
  WireWriter w(out);
  WriteTransferRequestFields(w, request);
}

Status DecodeTransferRequest(std::string_view payload, serving::TransferRequest* request) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(ReadTransferRequestFields(r, request));
  return r.ExpectDone();
}

std::string EncodeVerdict(const serving::Verdict& verdict) {
  WireWriter w;
  WriteVerdictFields(w, verdict);
  return w.Take();
}

void EncodeVerdictTo(std::string* out, const serving::Verdict& verdict) {
  WireWriter w(out);
  WriteVerdictFields(w, verdict);
}

Status DecodeVerdict(std::string_view payload, serving::Verdict* verdict) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(ReadVerdictFields(r, verdict));
  return r.ExpectDone();
}

std::string EncodeScoreBatchRequest(const std::vector<serving::TransferRequest>& requests) {
  std::string out;
  out.reserve(4 + requests.size() * kTransferRequestBytes);
  EncodeScoreBatchRequestTo(&out, requests);
  return out;
}

void EncodeScoreBatchRequestTo(std::string* out,
                               const std::vector<serving::TransferRequest>& requests) {
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(requests.size()));
  for (const serving::TransferRequest& request : requests) {
    WriteTransferRequestFields(w, request);
  }
}

Status CheckBatchItemCount(std::string_view what, uint32_t count, std::size_t payload_bytes,
                           std::size_t item_bytes, bool fixed_width) {
  if (count == 0) return Status::InvalidArgument("empty " + std::string(what));
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(std::string(what) + " of " + std::to_string(count) +
                                   " items exceeds the " + std::to_string(kMaxBatchItems) +
                                   "-item cap");
  }
  const std::size_t declared = static_cast<std::size_t>(count) * item_bytes;
  // Fixed-width items: a declared count that disagrees with the bytes
  // actually present is a protocol error, caught before any item decodes.
  // Variable-width items: the payload must at least fit `count` items at
  // their minimum encoded size, so a hostile count can't drive a huge
  // reserve() off a tiny frame.
  if (fixed_width ? payload_bytes != declared : payload_bytes < declared) {
    return Status::InvalidArgument(
        std::string(what) + " declares " + std::to_string(count) + " items (" +
        std::to_string(declared) + (fixed_width ? " bytes) but carries " : " bytes minimum) but carries ") +
        std::to_string(payload_bytes) + " payload bytes");
  }
  return Status::OK();
}

Status DecodeScoreBatchRequest(std::string_view payload,
                               std::vector<serving::TransferRequest>* requests) {
  WireReader r(payload);
  uint32_t count = 0;
  TITANT_RETURN_IF_ERROR(r.U32(&count));
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("score batch", count, r.remaining(),
                                             kTransferRequestBytes, /*fixed_width=*/true));
  requests->clear();
  requests->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    serving::TransferRequest request;
    TITANT_RETURN_IF_ERROR(ReadTransferRequestFields(r, &request));
    requests->push_back(request);
  }
  return r.ExpectDone();
}

std::string EncodeScoreBatchResponse(const std::vector<StatusOr<serving::Verdict>>& items) {
  std::string out;
  EncodeScoreBatchResponseTo(&out, items.data(), items.size());
  return out;
}

void EncodeScoreBatchResponseTo(std::string* out, const StatusOr<serving::Verdict>* items,
                                std::size_t count) {
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const StatusOr<serving::Verdict>& item = items[i];
    w.I32(static_cast<int32_t>(item.status().code()));
    w.Str(item.status().message());
    if (item.ok()) WriteVerdictFields(w, *item);
  }
}

Status DecodeScoreBatchResponse(std::string_view payload,
                                std::vector<StatusOr<serving::Verdict>>* items) {
  WireReader r(payload);
  uint32_t count = 0;
  TITANT_RETURN_IF_ERROR(r.U32(&count));
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument("score batch response of " + std::to_string(count) +
                                   " items exceeds the " + std::to_string(kMaxBatchItems) +
                                   "-item cap");
  }
  items->clear();
  items->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t code = 0;
    std::string message;
    TITANT_RETURN_IF_ERROR(r.I32(&code));
    TITANT_RETURN_IF_ERROR(r.Str(&message));
    if (!StatusCodeIsValid(code)) {
      return Status::InvalidArgument("batch item carries unknown status code " +
                                     std::to_string(code));
    }
    const Status transported(static_cast<StatusCode>(code), std::move(message));
    if (transported.ok()) {
      serving::Verdict verdict;
      TITANT_RETURN_IF_ERROR(ReadVerdictFields(r, &verdict));
      items->emplace_back(verdict);
    } else {
      items->emplace_back(transported);
    }
  }
  return r.ExpectDone();
}

namespace {

void WritePutCellFields(WireWriter& w, const kvstore::Cell& cell) {
  w.Str(cell.key.row);
  w.Str(cell.key.family);
  w.Str(cell.key.qualifier);
  w.U64(cell.key.version);
  w.U8(cell.tombstone ? 1 : 0);
  w.Str(cell.value);
}

Status ReadPutCellFields(WireReader& r, kvstore::Cell* cell) {
  uint8_t tombstone = 0;
  TITANT_RETURN_IF_ERROR(r.Str(&cell->key.row));
  TITANT_RETURN_IF_ERROR(r.Str(&cell->key.family));
  TITANT_RETURN_IF_ERROR(r.Str(&cell->key.qualifier));
  TITANT_RETURN_IF_ERROR(r.U64(&cell->key.version));
  TITANT_RETURN_IF_ERROR(r.U8(&tombstone));
  TITANT_RETURN_IF_ERROR(r.Str(&cell->value));
  cell->tombstone = tombstone != 0;
  if (cell->key.row.empty()) return Status::InvalidArgument("put cell with empty row key");
  if (cell->key.family.empty()) {
    return Status::InvalidArgument("put cell with empty column family");
  }
  return Status::OK();
}

}  // namespace

std::string EncodePutRequest(const kvstore::Cell& cell) {
  std::string out;
  EncodePutRequestTo(&out, cell);
  return out;
}

void EncodePutRequestTo(std::string* out, const kvstore::Cell& cell) {
  WireWriter w(out);
  WritePutCellFields(w, cell);
}

Status DecodePutRequest(std::string_view payload, kvstore::Cell* cell) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(ReadPutCellFields(r, cell));
  return r.ExpectDone();
}

std::string EncodePutBatchRequest(const std::vector<kvstore::Cell>& cells) {
  std::string out;
  EncodePutBatchRequestTo(&out, cells);
  return out;
}

void EncodePutBatchRequestTo(std::string* out, const std::vector<kvstore::Cell>& cells) {
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(cells.size()));
  for (const kvstore::Cell& cell : cells) WritePutCellFields(w, cell);
}

Status DecodePutBatchRequest(std::string_view payload, std::vector<kvstore::Cell>* cells) {
  WireReader r(payload);
  uint32_t count = 0;
  TITANT_RETURN_IF_ERROR(r.U32(&count));
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("put batch", count, r.remaining(),
                                             kPutCellMinBytes, /*fixed_width=*/false));
  cells->clear();
  cells->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kvstore::Cell cell;
    TITANT_RETURN_IF_ERROR(ReadPutCellFields(r, &cell));
    cells->push_back(std::move(cell));
  }
  return r.ExpectDone();
}

void EncodeReplRecordTo(std::string* out, const kvstore::Cell* const* cells, std::size_t n) {
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) WritePutCellFields(w, *cells[i]);
}

void EncodeReplAppendTo(std::string* out, uint64_t first_seq, uint32_t record_count,
                        std::string_view records) {
  WireWriter w(out);
  w.U64(first_seq);
  w.U32(record_count);
  w.Bytes(records);
}

Status DecodeReplAppend(std::string_view payload, uint64_t* first_seq,
                        std::vector<ReplRecord>* records) {
  WireReader r(payload);
  uint32_t count = 0;
  TITANT_RETURN_IF_ERROR(r.U64(first_seq));
  TITANT_RETURN_IF_ERROR(r.U32(&count));
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl append", count, r.remaining(),
                                             kReplRecordMinBytes, /*fixed_width=*/false));
  if (*first_seq == 0) return Status::InvalidArgument("repl append starts at seq 0");
  records->clear();
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t cell_count = 0;
    TITANT_RETURN_IF_ERROR(r.U32(&cell_count));
    TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl record", cell_count, r.remaining(),
                                               kPutCellMinBytes, /*fixed_width=*/false));
    ReplRecord record;
    record.cells.reserve(cell_count);
    for (uint32_t c = 0; c < cell_count; ++c) {
      kvstore::Cell cell;
      TITANT_RETURN_IF_ERROR(ReadPutCellFields(r, &cell));
      record.cells.push_back(std::move(cell));
    }
    records->push_back(std::move(record));
  }
  return r.ExpectDone();
}

std::string EncodeReplAck(uint64_t watermark) {
  WireWriter w;
  w.U64(watermark);
  return w.Take();
}

Status DecodeReplAck(std::string_view payload, uint64_t* watermark) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(r.U64(watermark));
  return r.ExpectDone();
}

void EncodeReplCatchupTo(std::string* out, uint64_t watermark, bool done,
                         const kvstore::Cell* cells, std::size_t n) {
  WireWriter w(out);
  w.U64(watermark);
  w.U8(done ? 1 : 0);
  w.U32(static_cast<uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) WritePutCellFields(w, cells[i]);
}

Status DecodeReplCatchup(std::string_view payload, uint64_t* watermark, bool* done,
                         std::vector<kvstore::Cell>* cells) {
  WireReader r(payload);
  uint8_t done_flag = 0;
  uint32_t count = 0;
  TITANT_RETURN_IF_ERROR(r.U64(watermark));
  TITANT_RETURN_IF_ERROR(r.U8(&done_flag));
  TITANT_RETURN_IF_ERROR(r.U32(&count));
  *done = done_flag != 0;
  cells->clear();
  // An empty final chunk is legal (an empty store still hands over its
  // watermark), so the zero-count rejection inside CheckBatchItemCount
  // only applies to non-empty chunks.
  if (count == 0) return r.ExpectDone();
  TITANT_RETURN_IF_ERROR(CheckBatchItemCount("repl catchup", count, r.remaining(),
                                             kPutCellMinBytes, /*fixed_width=*/false));
  cells->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kvstore::Cell cell;
    TITANT_RETURN_IF_ERROR(ReadPutCellFields(r, &cell));
    cells->push_back(std::move(cell));
  }
  return r.ExpectDone();
}

std::string EncodeLoadModel(uint64_t version, std::string_view blob) {
  WireWriter w;
  w.U64(version);
  w.Bytes(blob);
  return w.Take();
}

Status DecodeLoadModel(std::string_view payload, uint64_t* version, std::string* blob) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(r.U64(version));
  blob->assign(r.Rest());
  return Status::OK();
}

std::string EncodeHealthInfo(const HealthInfo& info) {
  WireWriter w;
  w.U32(info.num_instances);
  w.U32(info.healthy_instances);
  w.U64(info.model_version);
  return w.Take();
}

Status DecodeHealthInfo(std::string_view payload, HealthInfo* info) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(r.U32(&info->num_instances));
  TITANT_RETURN_IF_ERROR(r.U32(&info->healthy_instances));
  TITANT_RETURN_IF_ERROR(r.U64(&info->model_version));
  return r.ExpectDone();
}

std::string EncodeGatewayStats(const GatewayStats& stats) {
  WireWriter w;
  w.U64(stats.requests_served);
  w.F64(stats.wire_p50_us);
  w.F64(stats.wire_p95_us);
  w.F64(stats.wire_p99_us);
  w.F64(stats.wire_p999_us);
  w.F64(stats.wire_max_us);
  w.F64(stats.inproc_p50_us);
  w.F64(stats.inproc_p99_us);
  w.U64(stats.requests_shed);
  w.U64(stats.requests_expired);
  w.U64(stats.degraded_verdicts);
  w.U64(stats.breaker_trips);
  w.U64(stats.open_instances);
  w.U64(stats.coalesced_batches);
  w.U64(stats.coalesced_rows);
  w.U64(stats.puts_applied);
  w.U64(stats.ingest_enqueued);
  w.U64(stats.ingest_shed);
  w.U64(stats.ingest_applied);
  w.U64(stats.ingest_dropped);
  w.U64(stats.counter_cells_published);
  w.U64(stats.aggregator_users);
  w.U64(stats.repl_shipped_seq);
  w.U64(stats.repl_acked_seq);
  w.U64(stats.repl_lag);
  w.U64(stats.repl_failovers);
  w.U64(stats.repl_catchup_cells);
  w.U64(stats.repl_catchup_bytes);
  w.U64(stats.kv_cache_hits);
  w.U64(stats.kv_cache_misses);
  w.U64(stats.kv_cache_bytes);
  w.U64(stats.kv_flushes);
  w.U64(stats.kv_compactions);
  w.U64(stats.kv_compaction_backlog);
  w.U64(stats.kv_maintenance_bytes_written);
  w.U64(stats.kv_stall_us);
  return w.Take();
}

Status DecodeGatewayStats(std::string_view payload, GatewayStats* stats) {
  WireReader r(payload);
  TITANT_RETURN_IF_ERROR(r.U64(&stats->requests_served));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->wire_p50_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->wire_p95_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->wire_p99_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->wire_p999_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->wire_max_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->inproc_p50_us));
  TITANT_RETURN_IF_ERROR(r.F64(&stats->inproc_p99_us));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->requests_shed));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->requests_expired));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->degraded_verdicts));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->breaker_trips));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->open_instances));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->coalesced_batches));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->coalesced_rows));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->puts_applied));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->ingest_enqueued));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->ingest_shed));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->ingest_applied));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->ingest_dropped));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->counter_cells_published));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->aggregator_users));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_shipped_seq));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_acked_seq));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_lag));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_failovers));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_catchup_cells));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->repl_catchup_bytes));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_cache_hits));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_cache_misses));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_cache_bytes));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_flushes));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_compactions));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_compaction_backlog));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_maintenance_bytes_written));
  TITANT_RETURN_IF_ERROR(r.U64(&stats->kv_stall_us));
  return r.ExpectDone();
}

}  // namespace titant::net
