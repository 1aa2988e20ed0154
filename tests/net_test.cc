// Tests for the src/net serving transport: wire framing (round trips, torn
// and oversized frames), the epoll event loop, server/client request flow
// (echo, status transport, deadlines, graceful-shutdown drain), reactor
// isolation, and a live serving::Gateway under concurrent clients.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "ml/decision_tree.h"
#include "ml/model.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"

namespace titant::net {
namespace {

serving::TransferRequest SampleRequest() {
  serving::TransferRequest request;
  request.txn_id = 0x1122334455667788ull;
  request.from_user = 7;
  request.to_user = 4'000'000'000u;
  request.amount = 1234.56;
  request.day = -3;
  request.second_of_day = 86399;
  request.channel = txn::Channel::kQrCode;
  request.trans_city = 513;
  request.is_new_device = true;
  return request;
}

/// The frame encoders append to a caller buffer; these return the bytes.
std::string RequestFrame(uint16_t method, uint64_t request_id, std::string_view payload,
                         uint32_t deadline_ms = 0) {
  std::string out;
  EncodeRequestFrameTo(&out, method, request_id, payload, deadline_ms);
  return out;
}

/// The header of a request frame that declares one byte over
/// kMaxPayloadBytes (the length is the header's last four bytes).
std::string OversizedHeader(uint16_t method) {
  std::string header = RequestFrame(method, 1, "");
  const uint32_t declared = static_cast<uint32_t>(kMaxPayloadBytes + 1);
  std::memcpy(&header[kHeaderBytes - sizeof(declared)], &declared, sizeof(declared));
  return header;
}

std::string ResponseFrame(uint16_t method, uint64_t request_id, const Status& status,
                          std::string_view body) {
  std::string out;
  EncodeResponseFrameTo(&out, method, request_id, status, body);
  return out;
}

std::string ScoreBatchPayload(const std::vector<serving::TransferRequest>& requests) {
  std::string out;
  EncodeScoreBatchRequestTo(&out, requests);
  return out;
}

std::string ScoreBatchResponse(const std::vector<StatusOr<serving::Verdict>>& items) {
  std::string out;
  EncodeScoreBatchResponseTo(&out, items.data(), items.size());
  return out;
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(WireTest, TransferRequestRoundTrip) {
  const serving::TransferRequest request = SampleRequest();
  std::string payload;
  EncodeTransferRequestTo(&payload, request);
  serving::TransferRequest decoded;
  ASSERT_TRUE(DecodeTransferRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.txn_id, request.txn_id);
  EXPECT_EQ(decoded.from_user, request.from_user);
  EXPECT_EQ(decoded.to_user, request.to_user);
  EXPECT_EQ(decoded.amount, request.amount);
  EXPECT_EQ(decoded.day, request.day);
  EXPECT_EQ(decoded.second_of_day, request.second_of_day);
  EXPECT_EQ(decoded.channel, request.channel);
  EXPECT_EQ(decoded.trans_city, request.trans_city);
  EXPECT_EQ(decoded.is_new_device, request.is_new_device);
}

TEST(WireTest, VerdictRoundTrip) {
  serving::Verdict verdict;
  verdict.fraud_probability = 0.93;
  verdict.interrupt = true;
  verdict.degraded = true;
  verdict.latency_us = -1;  // Sign survives.
  verdict.model_version = 20170410;
  std::string payload;
  EncodeVerdictTo(&payload, verdict);
  serving::Verdict decoded;
  ASSERT_TRUE(DecodeVerdict(payload, &decoded).ok());
  EXPECT_EQ(decoded.fraud_probability, verdict.fraud_probability);
  EXPECT_EQ(decoded.interrupt, verdict.interrupt);
  EXPECT_EQ(decoded.degraded, verdict.degraded);
  EXPECT_EQ(decoded.latency_us, verdict.latency_us);
  EXPECT_EQ(decoded.model_version, verdict.model_version);
}

TEST(WireTest, LoadModelRoundTrip) {
  const std::string blob(10000, '\x7f');
  uint64_t version = 0;
  std::string decoded_blob;
  std::string payload;
  EncodeLoadModelTo(&payload, 42, blob);
  ASSERT_TRUE(DecodeLoadModel(payload, &version, &decoded_blob).ok());
  EXPECT_EQ(version, 42u);
  EXPECT_EQ(decoded_blob, blob);
}

TEST(WireTest, HealthAndStatsRoundTrip) {
  HealthInfo info;
  info.num_instances = 4;
  info.healthy_instances = 3;
  info.model_version = 99;
  std::string payload;
  EncodeHealthInfoTo(&payload, info);
  HealthInfo decoded_info;
  ASSERT_TRUE(DecodeHealthInfo(payload, &decoded_info).ok());
  EXPECT_EQ(decoded_info.num_instances, 4u);
  EXPECT_EQ(decoded_info.healthy_instances, 3u);
  EXPECT_EQ(decoded_info.model_version, 99u);

  GatewayStats stats;
  stats.requests_served = 1000;
  stats.wire_p50_us = 120.5;
  stats.wire_p999_us = 4800.0;
  stats.inproc_p99_us = 90.0;
  stats.requests_shed = 17;
  stats.requests_expired = 3;
  stats.degraded_verdicts = 5;
  stats.breaker_trips = 2;
  stats.open_instances = 1;
  payload.clear();
  EncodeGatewayStatsTo(&payload, stats);
  GatewayStats decoded_stats;
  ASSERT_TRUE(DecodeGatewayStats(payload, &decoded_stats).ok());
  EXPECT_EQ(decoded_stats.requests_served, 1000u);
  EXPECT_EQ(decoded_stats.wire_p50_us, 120.5);
  EXPECT_EQ(decoded_stats.wire_p999_us, 4800.0);
  EXPECT_EQ(decoded_stats.inproc_p99_us, 90.0);
  EXPECT_EQ(decoded_stats.requests_shed, 17u);
  EXPECT_EQ(decoded_stats.requests_expired, 3u);
  EXPECT_EQ(decoded_stats.degraded_verdicts, 5u);
  EXPECT_EQ(decoded_stats.breaker_trips, 2u);
  EXPECT_EQ(decoded_stats.open_instances, 1u);
}

TEST(WireTest, EveryMethodPayloadRejectsTruncation) {
  serving::TransferRequest request;
  serving::Verdict verdict;
  HealthInfo info;
  GatewayStats stats;
  std::string score;
  EncodeTransferRequestTo(&score, SampleRequest());
  EXPECT_TRUE(DecodeTransferRequest(score.substr(0, score.size() - 1), &request)
                  .IsInvalidArgument());
  std::string v;
  EncodeVerdictTo(&v, verdict);
  EXPECT_TRUE(DecodeVerdict(v.substr(0, v.size() - 1), &verdict).IsInvalidArgument());
  EXPECT_TRUE(DecodeHealthInfo("xy", &info).IsInvalidArgument());
  EXPECT_TRUE(DecodeGatewayStats("xy", &stats).IsInvalidArgument());
  // Trailing junk is rejected too (a frame must be exactly one message).
  EXPECT_TRUE(DecodeVerdict(v + "junk", &verdict).IsInvalidArgument());
}

TEST(WireTest, RequestFrameRoundTrip) {
  const std::string bytes = RequestFrame(kScore, 77, "payload-bytes");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size(), &frames).ok());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kRequest);
  EXPECT_EQ(frames[0].method, kScore);
  EXPECT_EQ(frames[0].request_id, 77u);
  EXPECT_EQ(frames[0].payload, "payload-bytes");
  EXPECT_GT(frames[0].received_at_us, 0);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  // No budget in the header: no deadline.
  EXPECT_FALSE(frames[0].has_deadline());
  EXPECT_EQ(frames[0].deadline_us(), INT64_MAX);
}

TEST(WireTest, RequestDeadlineRidesTheHeader) {
  const std::string bytes = RequestFrame(kScore, 5, "x", /*deadline_ms=*/250);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size(), &frames).ok());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].deadline_ms, 250u);
  ASSERT_TRUE(frames[0].has_deadline());
  // The absolute deadline is anchored at the local receive stamp, so a
  // clock skew between peers cannot shift it.
  EXPECT_EQ(frames[0].deadline_us(), frames[0].received_at_us + 250 * 1000);
}

TEST(WireTest, ResponseFrameCarriesStatus) {
  const std::string ok_bytes = ResponseFrame(kScore, 5, Status::OK(), "verdict");
  const std::string err_bytes =
      ResponseFrame(kScore, 6, Status::NotFound("no snapshot"), "ignored");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(decoder.Feed(ok_bytes.data(), ok_bytes.size(), &frames).ok());
  ASSERT_TRUE(decoder.Feed(err_bytes.data(), err_bytes.size(), &frames).ok());
  ASSERT_EQ(frames.size(), 2u);

  std::string body;
  ASSERT_TRUE(DecodeResponsePayload(frames[0], &body).ok());
  EXPECT_EQ(body, "verdict");

  const Status transported = DecodeResponsePayload(frames[1], &body);
  EXPECT_TRUE(transported.IsNotFound());
  EXPECT_EQ(transported.message(), "no snapshot");
}

TEST(WireTest, TornFramesDeliveredByteAtATime) {
  // Two frames, delivered one byte at a time: nothing surfaces until each
  // final byte, then the frames come out intact and in order.
  const std::string bytes = RequestFrame(kScore, 1, "first-payload") +
                            RequestFrame(kHealth, 2, "");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(bytes.data() + i, 1, &frames).ok());
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_EQ(frames[0].payload, "first-payload");
  EXPECT_EQ(frames[1].method, kHealth);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(WireTest, ManyFramesInOneFeed) {
  std::string bytes;
  for (uint64_t id = 0; id < 50; ++id) {
    bytes += RequestFrame(kScore, id, std::string(id, 'x'));
  }
  bytes += RequestFrame(kScore, 999, "tail");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  // Feed all but the last byte, then the final byte.
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size() - 1, &frames).ok());
  EXPECT_EQ(frames.size(), 50u);
  ASSERT_TRUE(decoder.Feed(bytes.data() + bytes.size() - 1, 1, &frames).ok());
  ASSERT_EQ(frames.size(), 51u);
  EXPECT_EQ(frames[50].payload, "tail");
}

TEST(WireTest, OversizedFrameIsInvalidArgument) {
  // The header alone is enough: the decoder refuses a declared payload
  // over the cap before it buffers a byte of it.
  FrameDecoder decoder;
  const std::string bytes = OversizedHeader(kScore);
  std::vector<Frame> frames;
  const Status status = decoder.Feed(bytes.data(), bytes.size(), &frames);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(frames.empty());
}

TEST(WireTest, ScoreBatchRequestRoundTrip) {
  std::vector<serving::TransferRequest> batch;
  for (int i = 0; i < 5; ++i) {
    serving::TransferRequest request = SampleRequest();
    request.txn_id = static_cast<uint64_t>(i);
    request.from_user = static_cast<uint32_t>(100 + i);
    batch.push_back(request);
  }
  std::vector<serving::TransferRequest> decoded;
  ASSERT_TRUE(DecodeScoreBatchRequest(ScoreBatchPayload(batch), &decoded).ok());
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].txn_id, batch[i].txn_id);
    EXPECT_EQ(decoded[i].from_user, batch[i].from_user);
    EXPECT_EQ(decoded[i].amount, batch[i].amount);
  }
  // An empty batch is a protocol misuse, rejected at decode.
  EXPECT_TRUE(
      DecodeScoreBatchRequest(ScoreBatchPayload({}), &decoded).IsInvalidArgument());
}

TEST(WireTest, ScoreBatchResponseCarriesPerItemStatus) {
  std::vector<StatusOr<serving::Verdict>> items;
  serving::Verdict ok_verdict;
  ok_verdict.fraud_probability = 0.25;
  ok_verdict.degraded = true;
  ok_verdict.model_version = 7;
  items.emplace_back(ok_verdict);
  items.emplace_back(Status::NotFound("no snapshot for user"));
  ok_verdict.interrupt = true;
  items.emplace_back(ok_verdict);

  std::vector<StatusOr<serving::Verdict>> decoded;
  ASSERT_TRUE(DecodeScoreBatchResponse(ScoreBatchResponse(items), &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  ASSERT_TRUE(decoded[0].ok());
  EXPECT_EQ(decoded[0]->fraud_probability, 0.25);
  EXPECT_TRUE(decoded[0]->degraded);
  EXPECT_EQ(decoded[0]->model_version, 7u);
  EXPECT_TRUE(decoded[1].status().IsNotFound());
  EXPECT_EQ(decoded[1].status().message(), "no snapshot for user");
  ASSERT_TRUE(decoded[2].ok());
  EXPECT_TRUE(decoded[2]->interrupt);
}

TEST(WireTest, ScoreBatchDecodeRejectsCountPayloadDisagreement) {
  std::vector<serving::TransferRequest> two = {SampleRequest(), SampleRequest()};
  std::string payload = ScoreBatchPayload(two);
  std::vector<serving::TransferRequest> decoded;

  // Declared count raised to 3 while the payload still holds 2 records.
  std::string overcounted = payload;
  overcounted[0] = 3;  // Little-endian uint32 count lives in the first bytes.
  EXPECT_TRUE(DecodeScoreBatchRequest(overcounted, &decoded).IsInvalidArgument());

  // Declared count lowered to 1: trailing record bytes must be rejected,
  // not silently ignored.
  std::string undercounted = payload;
  undercounted[0] = 1;
  EXPECT_TRUE(DecodeScoreBatchRequest(undercounted, &decoded).IsInvalidArgument());

  // Truncation anywhere in the payload fails closed.
  for (const std::size_t cut : {payload.size() - 1, payload.size() - 17, std::size_t{3}}) {
    EXPECT_TRUE(
        DecodeScoreBatchRequest(std::string_view(payload).substr(0, cut), &decoded)
            .IsInvalidArgument())
        << "cut=" << cut;
  }

  // A hostile count far beyond the cap is rejected before any allocation.
  std::string hostile(sizeof(uint32_t), '\0');
  const uint32_t huge = kMaxBatchItems + 1;
  std::memcpy(hostile.data(), &huge, sizeof(huge));
  EXPECT_TRUE(DecodeScoreBatchRequest(hostile, &decoded).IsInvalidArgument());

  // The response decoder applies the same count discipline.
  std::vector<StatusOr<serving::Verdict>> verdicts;
  const std::string response = ScoreBatchResponse({serving::Verdict{}});
  EXPECT_TRUE(DecodeScoreBatchResponse(std::string_view(response).substr(0, response.size() - 2),
                                       &verdicts)
                  .IsInvalidArgument());
  EXPECT_TRUE(DecodeScoreBatchResponse(response + "x", &verdicts).IsInvalidArgument());
}

TEST(WireTest, TornAndOversizedBatchFrames) {
  // A v3 batch frame split at every byte boundary reassembles intact.
  std::vector<serving::TransferRequest> batch(3, SampleRequest());
  const std::string bytes = RequestFrame(kScoreBatch, 42, ScoreBatchPayload(batch));
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(bytes.data() + i, 1, &frames).ok());
    if (i + 1 < bytes.size()) {
      ASSERT_TRUE(frames.empty()) << "frame surfaced early at " << i;
    }
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].method, kScoreBatch);
  std::vector<serving::TransferRequest> decoded;
  ASSERT_TRUE(DecodeScoreBatchRequest(frames[0].payload, &decoded).ok());
  EXPECT_EQ(decoded.size(), 3u);

  // A batch frame over the payload cap is rejected at the header, before
  // the payload is buffered.
  FrameDecoder capped;
  const std::string oversized = OversizedHeader(kScoreBatch);
  std::vector<Frame> none;
  EXPECT_TRUE(capped.Feed(oversized.data(), oversized.size(), &none).IsInvalidArgument());
  EXPECT_TRUE(none.empty());
}

TEST(WireTest, BadMagicAndVersionAreInvalidArgument) {
  std::vector<Frame> frames;
  {
    FrameDecoder decoder;
    const std::string garbage(kHeaderBytes, 'Z');
    EXPECT_TRUE(decoder.Feed(garbage.data(), garbage.size(), &frames).IsInvalidArgument());
  }
  {
    FrameDecoder decoder;
    std::string bytes = RequestFrame(kScore, 1, "x");
    bytes[4] = 9;  // Unsupported version.
    EXPECT_TRUE(decoder.Feed(bytes.data(), bytes.size(), &frames).IsInvalidArgument());
  }
}

// ---------------------------------------------------------------------------
// Event loop.

TEST(EventLoopTest, PostedTasksRunOnTheLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&loop] { loop.Run(); });
  while (!loop.running()) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::thread::id task_thread;
  loop.Post([&] {
    task_thread = std::this_thread::get_id();
    ran.fetch_add(1);
  });
  for (int i = 0; i < 1000 && ran.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(task_thread, runner.get_id());

  loop.Stop();
  runner.join();
}

// ---------------------------------------------------------------------------
// Server + client.

// Methods understood by the echo test server.
constexpr uint16_t kEcho = 10;
constexpr uint16_t kFail = 11;
constexpr uint16_t kSlow = 12;

struct EchoServer {
  explicit EchoServer(std::atomic<int>* slow_started = nullptr,
                      ServerOptions options = DefaultOptions()) {
    server = std::make_unique<Server>(
        options, [slow_started](const Frame& frame, std::string* body) -> Status {
          switch (frame.method) {
            case kEcho:
              body->append(frame.payload);
              return Status::OK();
            case kFail:
              return Status::NotFound("nothing here");
            case kSlow:
              if (slow_started != nullptr) slow_started->fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(200));
              body->append(frame.payload);
              return Status::OK();
            default:
              return Status::Unimplemented("unknown method");
          }
        });
  }
  static ServerOptions DefaultOptions() {
    ServerOptions options;
    options.worker_threads = 4;
    return options;
  }
  std::unique_ptr<Server> server;
};

TEST(ServerTest, EchoWithConnectionReuseAndLargePayloads) {
  EchoServer fixture;
  ASSERT_TRUE(fixture.server->Start().ok());
  Client client("127.0.0.1", fixture.server->port());

  for (int i = 0; i < 100; ++i) {
    const std::string payload(static_cast<std::size_t>(i) * 1000, static_cast<char>('a' + i % 26));
    const auto body = client.Call(kEcho, payload);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(*body, payload);
  }
  EXPECT_EQ(fixture.server->frames_dispatched(), 100u);
  EXPECT_TRUE(client.connected());  // One connection served all 100 calls.
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

TEST(ServerTest, HandlerErrorsTravelAsStatusNotExceptions) {
  EchoServer fixture;
  ASSERT_TRUE(fixture.server->Start().ok());
  Client client("127.0.0.1", fixture.server->port());

  const auto body = client.Call(kFail, "");
  EXPECT_TRUE(body.status().IsNotFound());
  EXPECT_EQ(body.status().message(), "nothing here");
  // The connection survives an application-level error.
  EXPECT_TRUE(client.Call(kEcho, "still-alive").ok());
  const auto unknown = client.Call(77, "");
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnimplemented);
}

TEST(ServerTest, ClientDeadlineExpiryIsTimeoutAndRecoverable) {
  EchoServer fixture;
  ASSERT_TRUE(fixture.server->Start().ok());
  Client client("127.0.0.1", fixture.server->port());

  const auto slow = client.Call(kSlow, "late", /*timeout_ms=*/50);
  EXPECT_EQ(slow.status().code(), StatusCode::kTimeout) << slow.status().ToString();
  EXPECT_FALSE(client.connected());  // Timed-out stream is abandoned.

  // The next call reconnects and succeeds.
  const auto ok = client.Call(kEcho, "hello-again");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, "hello-again");
}

TEST(ServerTest, ConnectToClosedPortIsUnavailable) {
  uint16_t dead_port = 0;
  {
    EchoServer fixture;
    ASSERT_TRUE(fixture.server->Start().ok());
    dead_port = fixture.server->port();
    ASSERT_TRUE(fixture.server->Shutdown().ok());
  }
  Client client("127.0.0.1", dead_port);
  const Status status = client.Connect();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST(ServerTest, ProtocolGarbageClosesTheConnection) {
  EchoServer fixture;
  ASSERT_TRUE(fixture.server->Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string garbage(64, 'Z');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  char buffer[16];
  EXPECT_EQ(::read(fd, buffer, sizeof(buffer)), 0);  // Server closed on us.
  ::close(fd);
  EXPECT_EQ(fixture.server->protocol_errors(), 1u);
}

TEST(ServerTest, GracefulShutdownDrainsInFlightRequests) {
  std::atomic<int> slow_started{0};
  EchoServer fixture(&slow_started);
  ASSERT_TRUE(fixture.server->Start().ok());
  const uint16_t port = fixture.server->port();

  // Four clients park a slow request each, so shutdown arrives with four
  // requests genuinely in flight.
  constexpr int kClients = 4;
  std::atomic<int> replies_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", port);
      const auto body =
          client.Call(kSlow, "drain-" + std::to_string(t), /*timeout_ms=*/5000);
      if (body.ok() && *body == "drain-" + std::to_string(t)) replies_ok.fetch_add(1);
    });
  }
  while (slow_started.load() < kClients) std::this_thread::yield();

  // Shutdown must block until every dispatched request got its reply.
  ASSERT_TRUE(fixture.server->Shutdown().ok());
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(replies_ok.load(), kClients) << "graceful shutdown lost in-flight replies";

  // After drain the port no longer accepts.
  Client late("127.0.0.1", port);
  EXPECT_EQ(late.Connect().code(), StatusCode::kUnavailable);
}

TEST(ServerTest, SurvivesPeerThatDiesBeforeReadingTheReply) {
  // Regression: replying to a dead peer must surface as EPIPE/ECONNRESET on
  // the send (MSG_NOSIGNAL), never as a process-killing SIGPIPE.
  std::atomic<int> slow_started{0};
  EchoServer fixture(&slow_started);
  ASSERT_TRUE(fixture.server->Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Pipeline three slow requests, then die with an RST (SO_LINGER 0) so the
  // server's replies hit a hard-closed socket.
  std::string bytes;
  for (uint64_t id = 1; id <= 3; ++id) bytes += RequestFrame(kSlow, id, "doomed");
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  while (slow_started.load() < 3) std::this_thread::yield();
  linger hard_close{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close)), 0);
  ::close(fd);

  // The server must absorb the failed replies and keep serving others.
  Client client("127.0.0.1", fixture.server->port());
  for (int i = 0; i < 5; ++i) {
    const auto body = client.Call(kEcho, "alive", /*timeout_ms=*/2000);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
  }
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

TEST(ServerTest, AdmissionControlShedsBeyondMaxInFlight) {
  std::atomic<int> slow_started{0};
  ServerOptions options = EchoServer::DefaultOptions();
  options.max_in_flight = 1;
  EchoServer fixture(&slow_started, options);
  ASSERT_TRUE(fixture.server->Start().ok());
  const uint16_t port = fixture.server->port();

  // One slow request occupies the only admission slot...
  std::thread holder([port] {
    Client client("127.0.0.1", port);
    const auto body = client.Call(kSlow, "slot-holder", /*timeout_ms=*/5000);
    EXPECT_TRUE(body.ok()) << body.status().ToString();
  });
  while (slow_started.load() < 1) std::this_thread::yield();

  // ...so the next request is shed immediately with ResourceExhausted (the
  // reply comes from the loop thread, well before the slow handler ends).
  Client client("127.0.0.1", port);
  const auto shed = client.Call(kEcho, "overload", /*timeout_ms=*/2000);
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status().ToString();
  EXPECT_EQ(fixture.server->requests_shed(), 1u);
  // The connection survives shedding: once capacity frees, it serves.
  holder.join();
  const auto after = client.Call(kEcho, "after", /*timeout_ms=*/2000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

TEST(ServerTest, CallRetryingRidesOutInjectedTransportFaults) {
  Failpoints::DisarmAll();
  EchoServer fixture;
  ASSERT_TRUE(fixture.server->Start().ok());
  Client client("127.0.0.1", fixture.server->port());

  // First attempt dies on an injected torn write; the retry reconnects.
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.max_hits = 1;
  Failpoints::Arm("net.client.write", spec);
  const auto body = client.CallRetrying(kEcho, "eventually");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(*body, "eventually");
  EXPECT_EQ(client.retries(), 1u);

  // Non-retryable application errors return without another attempt.
  const auto not_found = client.CallRetrying(kFail, "");
  EXPECT_TRUE(not_found.status().IsNotFound());
  EXPECT_EQ(client.retries(), 1u);
  Failpoints::DisarmAll();
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

TEST(ServerTest, CallRetryingWaitsOutAnOverloadedServer) {
  std::atomic<int> slow_started{0};
  ServerOptions options = EchoServer::DefaultOptions();
  options.max_in_flight = 1;
  EchoServer fixture(&slow_started, options);
  ASSERT_TRUE(fixture.server->Start().ok());
  const uint16_t port = fixture.server->port();

  std::thread holder([port] {
    Client client("127.0.0.1", port);
    EXPECT_TRUE(client.Call(kSlow, "hold", /*timeout_ms=*/5000).ok());
  });
  while (slow_started.load() < 1) std::this_thread::yield();

  // Shed replies are retryable: backoff outlasts the 200ms slow request.
  ClientOptions client_options;
  client_options.retry.max_attempts = 100;
  client_options.retry.initial_backoff_ms = 8;
  client_options.retry.max_backoff_ms = 32;
  Client client("127.0.0.1", port, client_options);
  const auto body = client.CallRetrying(kEcho, "patient", /*timeout_ms=*/5000);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(fixture.server->requests_shed(), 1u);
  holder.join();
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

TEST(ServerTest, DeadlineExpiredInQueueIsRejectedWithoutRunning) {
  std::atomic<int> slow_started{0};
  ServerOptions options = EchoServer::DefaultOptions();
  options.worker_threads = 1;  // One lane: the echo queues behind the slow call.
  EchoServer fixture(&slow_started, options);
  ASSERT_TRUE(fixture.server->Start().ok());
  const uint16_t port = fixture.server->port();

  std::thread holder([port] {
    Client client("127.0.0.1", port);
    EXPECT_TRUE(client.Call(kSlow, "head-of-line", /*timeout_ms=*/5000).ok());
  });
  while (slow_started.load() < 1) std::this_thread::yield();

  // 50ms budget, ~200ms queue wait: by pickup the deadline is gone, so the
  // server answers Timeout without invoking the handler.
  Client client("127.0.0.1", port);
  const auto body = client.Call(kEcho, "expired", /*timeout_ms=*/50);
  EXPECT_TRUE(body.status().IsTimeout()) << body.status().ToString();
  holder.join();
  // The worker counts the expiry when it picks the queued echo up, which
  // can trail the slow call's reply by a beat: wait for it.
  const auto wait_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.server->requests_expired() == 0 &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::yield();
  }
  // 2 dispatched (slow + echo), but only the slow one reached the handler.
  EXPECT_EQ(fixture.server->requests_expired(), 1u);
  EXPECT_EQ(fixture.server->frames_dispatched(), 2u);
  ASSERT_TRUE(fixture.server->Shutdown().ok());
}

// ---------------------------------------------------------------------------
// Reactors: each connection's requests run on the reactor that owns it.

constexpr uint16_t kBlock = 13;

/// Holds the kBlock handler running until the test opens it, so a test
/// controls exactly how long a reactor stays busy.
struct Gate {
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiting;
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  int Waiting() {
    std::lock_guard<std::mutex> lock(mu);
    return waiting;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int waiting = 0;
};

/// An echo server whose kBlock requests wait on `gate` before echoing.
std::unique_ptr<Server> GatedEchoServer(Gate* gate, std::size_t reactors) {
  ServerOptions options;
  options.worker_threads = reactors;
  return std::make_unique<Server>(options, [gate](const Frame& frame, std::string* body) {
    if (frame.method == kBlock) gate->Wait();
    body->append(frame.payload);
    return Status::OK();
  });
}

/// True once `n` kBlock handlers are waiting at the gate; false after 10 s
/// (the requests never reached `n` different reactors at once).
bool AwaitWaiting(Gate& gate, int n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gate.Waiting() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ReactorTest, AcceptIsNeverBlockedByARunningHandler) {
  Gate gate;
  auto server = GatedEchoServer(&gate, /*reactors=*/2);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  // The first connection's handler holds its reactor until the gate opens.
  std::thread holder([port] {
    Client client("127.0.0.1", port);
    EXPECT_TRUE(client.Call(kBlock, "held", /*timeout_ms=*/10000).ok());
  });
  EXPECT_TRUE(AwaitWaiting(gate, 1));

  // A client that connects now is accepted and served by the other
  // reactor while that handler is still running.
  Client client("127.0.0.1", port);
  const auto body = client.Call(kEcho, "accepted", /*timeout_ms=*/5000);
  gate.Open();
  holder.join();
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(*body, "accepted");
  ASSERT_TRUE(server->Shutdown().ok());
}

TEST(ReactorTest, SlowHandlerDelaysOnlyItsOwnReactor) {
  Gate gate;
  auto server = GatedEchoServer(&gate, /*reactors=*/2);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  // Connections go to reactors round-robin: this one to the first...
  Client quick("127.0.0.1", port);
  ASSERT_TRUE(quick.Call(kEcho, "warm").ok());
  // ...and the blocked one to the second.
  std::thread holder([port] {
    Client client("127.0.0.1", port);
    EXPECT_TRUE(client.Call(kBlock, "held", /*timeout_ms=*/10000).ok());
  });
  EXPECT_TRUE(AwaitWaiting(gate, 1));

  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string payload = "quick-" + std::to_string(i);
    const auto body = quick.Call(kEcho, payload, /*timeout_ms=*/5000);
    if (!body.ok() || *body != payload) break;
    ++answered;
  }
  gate.Open();
  holder.join();
  EXPECT_EQ(answered, 50) << "a blocked handler on one reactor stalled another's connection";
  ASSERT_TRUE(server->Shutdown().ok());
}

TEST(ReactorTest, ShutdownAnswersSlowRequestsOnEveryReactor) {
  constexpr int kReactors = 3;
  constexpr int kConns = 2 * kReactors;  // Round-robin: two per reactor.
  Gate gate;
  auto server = GatedEchoServer(&gate, kReactors);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  int fds[kConns];
  for (int c = 0; c < kConns; ++c) {
    fds[c] = ConnectTo(port);
    ASSERT_GE(fds[c], 0);
  }
  // One blocked request per reactor, on its first connection.
  for (int c = 0; c < kReactors; ++c) {
    const std::string first = RequestFrame(kBlock, 1, "first-" + std::to_string(c));
    ASSERT_EQ(::send(fds[c], first.data(), first.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(first.size()));
  }
  EXPECT_TRUE(AwaitWaiting(gate, kReactors));

  // Shutdown starts while every reactor is inside a handler: the listener
  // closes at once, and each reactor's drain waits behind its handler.
  Status stopped = Status::Internal("not stopped");
  std::thread stopper([&] { stopped = server->Shutdown(); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int probe = ConnectTo(port); probe >= 0; probe = ConnectTo(port)) {
    ::close(probe);
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::yield();
  }
  EXPECT_LT(ConnectTo(port), 0) << "the listener still accepts during shutdown";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // Drains posted.

  // Every connection now sends a request that lands in its socket before
  // its reactor gets to the drain: behind the blocked one on the first
  // connections, alone on the idle second ones. The drain must read and
  // answer each.
  for (int c = 0; c < kConns; ++c) {
    const std::string second = RequestFrame(kEcho, 2, "second-" + std::to_string(c));
    ASSERT_EQ(::send(fds[c], second.data(), second.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(second.size()));
  }
  gate.Open();
  stopper.join();
  EXPECT_TRUE(stopped.ok()) << stopped.ToString();

  for (int c = 0; c < kConns; ++c) {
    FrameDecoder decoder;
    std::vector<Frame> frames;
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::read(fds[c], buffer, sizeof(buffer))) > 0) {
      ASSERT_TRUE(decoder.Feed(buffer, static_cast<std::size_t>(n), &frames).ok());
    }
    EXPECT_EQ(n, 0) << "connection " << c << " was not closed cleanly";
    ::close(fds[c]);
    const bool blocked = c < kReactors;
    ASSERT_EQ(frames.size(), blocked ? 2u : 1u)
        << "connection " << c << " lost a reply in shutdown";
    std::string body;
    if (blocked) {
      EXPECT_EQ(frames[0].request_id, 1u);
      ASSERT_TRUE(DecodeResponsePayload(frames[0], &body).ok());
      EXPECT_EQ(body, "first-" + std::to_string(c));
    }
    EXPECT_EQ(frames.back().request_id, 2u);
    ASSERT_TRUE(DecodeResponsePayload(frames.back(), &body).ok());
    EXPECT_EQ(body, "second-" + std::to_string(c));
  }
}

// ---------------------------------------------------------------------------
// Gateway end to end.

// A live gateway over a 2-instance router: empty in-memory feature store
// populated with one scorable user pair, a width-84 tree model loaded over
// the wire.
class GatewayTest : public ::testing::Test {
 protected:
  static constexpr int kWidth = 84;  // 52 basic + 32 embedding.

  void SetUp() override {
    auto store_options = serving::FeatureTableOptions();
    store_options.durable = false;
    auto store = kvstore::AliHBase::Open(std::move(store_options));
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);

    // One scorable (from=1, to=2) pair: snapshot + aux for the transferor,
    // an embedding for the transferee.
    std::vector<float> snapshot(52, 0.5f);
    std::vector<float> aux = {14.0f, 80.0f};
    std::vector<float> embedding(32, 0.25f);
    ASSERT_TRUE(store_->Put(serving::UserRowKey(1), serving::kFamilyBasic,
                            serving::kQualSnapshot,
                            serving::EncodeFloats(snapshot.data(), snapshot.size()), 1)
                    .ok());
    ASSERT_TRUE(store_->Put(serving::UserRowKey(1), serving::kFamilyBasic, serving::kQualAux,
                            serving::EncodeFloats(aux.data(), aux.size()), 1)
                    .ok());
    ASSERT_TRUE(store_->Put(serving::UserRowKey(2), serving::kFamilyEmbedding,
                            serving::kQualVector,
                            serving::EncodeFloats(embedding.data(), embedding.size()), 1)
                    .ok());

    router_ = std::make_unique<serving::ModelServerRouter>(
        store_.get(), serving::ModelServerOptions(), /*num_instances=*/2);
    gateway_ = std::make_unique<serving::Gateway>(router_.get());
    ASSERT_TRUE(gateway_->Start().ok());
  }

  void TearDown() override { EXPECT_TRUE(gateway_->Shutdown().ok()); }

  static std::string TinyModelBlob() {
    ml::DataMatrix train(20, kWidth);
    train.mutable_labels().assign(20, 0);
    for (std::size_t row = 0; row < 10; ++row) {
      train.mutable_labels()[row] = 1;
      train.Set(row, core::SlotOf("amount"), 1000.0f);  // Give the tree a split to find.
    }
    auto model = ml::MakeId3();
    EXPECT_TRUE(model->Train(train).ok());
    return ml::SerializeModel(*model);
  }

  static serving::TransferRequest ScorableRequest() {
    serving::TransferRequest request;
    request.from_user = 1;
    request.to_user = 2;
    request.amount = 250.0;
    request.day = 100;
    request.second_of_day = 43'200;
    return request;
  }

  std::unique_ptr<kvstore::AliHBase> store_;
  std::unique_ptr<serving::ModelServerRouter> router_;
  std::unique_ptr<serving::Gateway> gateway_;
};

TEST_F(GatewayTest, RemoteLoadModelHealthScoreAndStats) {
  serving::GatewayClient client("127.0.0.1", gateway_->port());

  // Health before any model: both instances up, version 0.
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->num_instances, 2u);
  EXPECT_EQ(health->healthy_instances, 2u);
  EXPECT_EQ(health->model_version, 0u);

  // Scoring without a model is FailedPrecondition — transported verbatim.
  EXPECT_EQ(client.Score(ScorableRequest()).status().code(),
            StatusCode::kFailedPrecondition);

  // Remote rollout, then score.
  ASSERT_TRUE(client.LoadModel(TinyModelBlob(), 20170410).ok());
  EXPECT_EQ(client.Health()->model_version, 20170410u);

  auto verdict = client.Score(ScorableRequest());
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_GE(verdict->fraud_probability, 0.0);
  EXPECT_LE(verdict->fraud_probability, 1.0);
  EXPECT_EQ(verdict->model_version, 20170410u);

  // Request-level errors keep their code across the wire.
  serving::TransferRequest unknown = ScorableRequest();
  unknown.from_user = 777;
  EXPECT_TRUE(client.Score(unknown).status().IsNotFound());

  // A corrupt model blob is rejected remotely without killing the gateway.
  EXPECT_FALSE(client.LoadModel("corrupt-model-bytes", 3).ok());
  EXPECT_TRUE(client.Score(ScorableRequest()).ok());

  // Stats reflect traffic and carry both latency series.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->requests_served, 7u);
  EXPECT_GT(stats->wire_p50_us, 0.0);
  EXPECT_GE(stats->wire_p99_us, stats->wire_p50_us);
  EXPECT_GT(stats->inproc_p50_us, 0.0);
  // No ordering assertion between the two series: the wire histogram spans
  // every method (cheap Health/Stats frames included) while the in-process
  // one records successful Scores only, so their medians aren't comparable.
}

TEST_F(GatewayTest, ConcurrentClientsAgainstALiveGateway) {
  {
    serving::GatewayClient admin("127.0.0.1", gateway_->port());
    ASSERT_TRUE(admin.LoadModel(TinyModelBlob(), 7).ok());
  }

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serving::GatewayClient client("127.0.0.1", gateway_->port());
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (i % 10 == 9) {
          if (!client.Health().ok()) failures.fetch_add(1);
          continue;
        }
        serving::TransferRequest request = ScorableRequest();
        request.txn_id = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
        const auto verdict = client.Score(request);
        if (!verdict.ok() || verdict->model_version != 7) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // +1 for the admin LoadModel call.
  EXPECT_EQ(gateway_->requests_served(),
            static_cast<uint64_t>(kThreads) * kCallsPerThread + 1);
  EXPECT_EQ(gateway_->WireLatencySnapshot().count(),
            static_cast<uint64_t>(kThreads) * kCallsPerThread + 1);
  // Both router instances shared the scoring load.
  EXPECT_GT(router_->requests_served(0), 0u);
  EXPECT_GT(router_->requests_served(1), 0u);
}

TEST_F(GatewayTest, ScoreBatchOverTheWireKeepsPerItemOutcomes) {
  serving::GatewayClient client("127.0.0.1", gateway_->port());
  ASSERT_TRUE(client.LoadModel(TinyModelBlob(), 20170410).ok());

  // A mixed batch: two scorable rows bracketing one with no KV snapshot.
  std::vector<serving::TransferRequest> batch(3, ScorableRequest());
  batch[0].txn_id = 1;
  batch[1].txn_id = 2;
  batch[1].from_user = 777;  // Unknown transferor.
  batch[2].txn_id = 3;

  const auto items = client.ScoreBatch(batch);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items->size(), batch.size());
  ASSERT_TRUE((*items)[0].ok()) << (*items)[0].status().ToString();
  EXPECT_EQ((*items)[0]->model_version, 20170410u);
  EXPECT_TRUE((*items)[1].status().IsNotFound());
  ASSERT_TRUE((*items)[2].ok());
  EXPECT_EQ((*items)[2]->fraud_probability, (*items)[0]->fraud_probability);

  // A batch-of-0 is refused at the server's decode; a batch-of-1 is a
  // legal frame, not a special case.
  EXPECT_TRUE(client.ScoreBatch({}).status().IsInvalidArgument());
  const auto single = client.ScoreBatch({ScorableRequest()});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_EQ(single->size(), 1u);
  EXPECT_EQ((*single)[0]->fraud_probability, (*items)[0]->fraud_probability);
}

TEST_F(GatewayTest, ShutdownIsIdempotentAndStopsServing) {
  const uint16_t port = gateway_->port();
  ASSERT_TRUE(gateway_->Shutdown().ok());
  ASSERT_TRUE(gateway_->Shutdown().ok());  // Idempotent.
  Client client("127.0.0.1", port);
  EXPECT_EQ(client.Connect().code(), StatusCode::kUnavailable);
  // TearDown's Shutdown is a third no-op call.
}

}  // namespace
}  // namespace titant::net
