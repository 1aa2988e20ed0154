// Chaos tests for the serving path: scripted failpoint schedules drive
// store outages, torn connections, injected latency, and overload against
// a live Gateway, asserting the fault-tolerance invariants end to end:
//
//   * availability — Score keeps returning verdicts (degraded if need be)
//     while faults fire, and client retries absorb transport tears;
//   * bounded latency — no call outlives its deadline budget; expired
//     work is refused instead of executed;
//   * overload safety — admission control sheds the excess with a fast
//     ResourceExhausted rather than queueing without bound.
//
// Every schedule is deterministic: failpoint probability draws come from
// fixed seeds, triggers are count-based, and nothing synchronizes on
// sleeps.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "ml/decision_tree.h"
#include "ml/model.h"
#include "net/client.h"
#include "net/wire.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"

namespace titant::serving {
namespace {

/// A live gateway over a 2-instance router with one scorable (1 -> 2)
/// user pair, mirroring the net_test Gateway fixture. Failpoints are
/// disarmed around every test so schedules cannot leak across cases.
class ChaosTest : public ::testing::Test {
 protected:
  static constexpr int kWidth = 84;  // 52 basic + 32 embedding.

  void SetUp() override {
    Failpoints::DisarmAll();
    auto store_options = FeatureTableOptions();
    store_options.durable = false;
    auto store = kvstore::AliHBase::Open(std::move(store_options));
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);

    std::vector<float> snapshot(52, 0.5f);
    std::vector<float> aux = {14.0f, 80.0f};
    std::vector<float> embedding(32, 0.25f);
    ASSERT_TRUE(store_->Put(UserRowKey(1), kFamilyBasic, kQualSnapshot,
                            EncodeFloats(snapshot.data(), snapshot.size()), 1)
                    .ok());
    ASSERT_TRUE(store_->Put(UserRowKey(1), kFamilyBasic, kQualAux,
                            EncodeFloats(aux.data(), aux.size()), 1)
                    .ok());
    ASSERT_TRUE(store_->Put(UserRowKey(2), kFamilyEmbedding, kQualVector,
                            EncodeFloats(embedding.data(), embedding.size()), 1)
                    .ok());
  }

  void TearDown() override {
    Failpoints::DisarmAll();
    if (gateway_ != nullptr) {
      EXPECT_TRUE(gateway_->Shutdown().ok());
    }
  }

  /// Builds the router + gateway with the given serving knobs.
  void StartGateway(GatewayOptions options = GatewayOptions()) {
    router_ = std::make_unique<ModelServerRouter>(store_.get(), ModelServerOptions(),
                                                  /*num_instances=*/2);
    ASSERT_TRUE(router_->LoadModel(TinyModelBlob(), 1).ok());
    gateway_ = std::make_unique<Gateway>(router_.get(), std::move(options));
    ASSERT_TRUE(gateway_->Start().ok());
  }

  static std::string TinyModelBlob() {
    ml::DataMatrix train(20, kWidth);
    train.mutable_labels().assign(20, 0);
    for (std::size_t row = 0; row < 10; ++row) {
      train.mutable_labels()[row] = 1;
      train.Set(row, core::SlotOf("amount"), 1000.0f);
    }
    auto model = ml::MakeId3();
    EXPECT_TRUE(model->Train(train).ok());
    return ml::SerializeModel(*model);
  }

  static TransferRequest ScorableRequest() {
    TransferRequest request;
    request.from_user = 1;
    request.to_user = 2;
    request.amount = 250.0;
    request.day = 100;
    request.second_of_day = 43'200;
    return request;
  }

  std::unique_ptr<kvstore::AliHBase> store_;
  std::unique_ptr<ModelServerRouter> router_;
  std::unique_ptr<Gateway> gateway_;
};

// The headline invariant: under a running schedule of store outages,
// instance faults, and torn connections on both sides of the wire, at
// least 99.9% of Score calls still return a verdict and none outlives its
// deadline budget.
TEST_F(ChaosTest, ScoresStayAvailableUnderFaultSchedule) {
  StartGateway();
  ASSERT_TRUE(Failpoints::ArmFromSpec("kvstore.get,error:Unavailable,p:0.05,seed:101;"
                                      "net.client.write,error:Unavailable,p:0.02,seed:202;"
                                      "net.server.read,error:Unavailable,p:0.01,seed:303;"
                                      "serving.score,error:Unavailable,p:0.01,seed:404")
                  .ok());

  constexpr int kCalls = 1000;
  constexpr int kBudgetMs = 2000;
  net::ClientOptions client_options;
  client_options.retry.max_attempts = 6;
  client_options.retry.initial_backoff_ms = 2;
  client_options.retry.max_backoff_ms = 16;
  client_options.call_timeout_ms = kBudgetMs;
  GatewayClient client("127.0.0.1", gateway_->port(), client_options);

  int verdicts = 0;
  int degraded_seen = 0;
  int64_t worst_call_us = 0;
  for (int i = 0; i < kCalls; ++i) {
    Stopwatch call_timer;
    const auto verdict = client.Score(ScorableRequest());
    worst_call_us = std::max(worst_call_us, call_timer.ElapsedMicros());
    if (verdict.ok()) {
      ++verdicts;
      degraded_seen += verdict->degraded ? 1 : 0;
    }
  }

  // Availability: >= 99.9% of calls produced a verdict.
  EXPECT_GE(verdicts, kCalls - kCalls / 1000)
      << "only " << verdicts << "/" << kCalls << " calls returned a verdict";
  // Bounded latency: nothing hung past its deadline budget (generous
  // scheduling slack on top of the 2s budget).
  EXPECT_LT(worst_call_us, (kBudgetMs + 500) * 1000LL)
      << "a call outlived its deadline budget";
  // The schedule actually fired, and degraded mode carried the outages.
  EXPECT_GT(Failpoints::hits("kvstore.get"), 0u);
  EXPECT_GT(degraded_seen, 0);

  Failpoints::DisarmAll();
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Server-side degraded count can exceed the client-observed one (a
  // retried call may have been scored more than once), never trail it.
  EXPECT_GE(stats->degraded_verdicts, static_cast<uint64_t>(degraded_seen));
  // Transport tears forced at least one reconnect-and-retry.
  EXPECT_GT(client.transport().retries(), 0u);
  // Faults over: the path is clean again.
  const auto after = client.Score(ScorableRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->degraded);
}

// Admission control under injected latency: with max_in_flight=2, the
// third of three pipelined requests is deterministically shed with
// ResourceExhausted while the first two (slowed by the failpoint) finish.
TEST_F(ChaosTest, OverloadShedsTheExcessDeterministically) {
  GatewayOptions options;
  options.server.max_in_flight = 2;
  StartGateway(std::move(options));
  // Latency-only failpoint: every Score stalls 50ms, pinning the first
  // two requests in flight while the third arrives.
  ASSERT_TRUE(Failpoints::ArmFromSpec("serving.score,delay:50").ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(gateway_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string payload;
  net::EncodeTransferRequestTo(&payload, ScorableRequest());
  std::string bytes;
  for (uint64_t id = 1; id <= 3; ++id) net::EncodeRequestFrameTo(&bytes, net::kScore, id, payload);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  // Collect all three responses (the shed one overtakes the slow two).
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  char buffer[64 * 1024];
  while (frames.size() < 3) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    ASSERT_GT(n, 0) << "gateway closed before all replies arrived";
    ASSERT_TRUE(decoder.Feed(buffer, static_cast<std::size_t>(n), &frames).ok());
  }
  ::close(fd);

  int shed = 0;
  int served = 0;
  for (const auto& frame : frames) {
    std::string body;
    const Status transported = net::DecodeResponsePayload(frame, &body);
    if (transported.IsResourceExhausted()) {
      EXPECT_EQ(frame.request_id, 3u);  // Exactly the over-limit request.
      ++shed;
    } else {
      ASSERT_TRUE(transported.ok()) << transported.ToString();
      ++served;
    }
  }
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(gateway_->StatsSnapshot().requests_shed, 1u);
}

// Deadline propagation end to end: a request whose wire budget expires
// while it queues behind slow work is answered Timeout by the server
// without ever reaching the model.
TEST_F(ChaosTest, ExpiredQueuedRequestNeverReachesTheModel) {
  GatewayOptions options;
  options.server.worker_threads = 1;  // One lane: request B queues behind A.
  StartGateway(std::move(options));
  ASSERT_TRUE(Failpoints::ArmFromSpec("serving.score,delay:100").ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(gateway_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A: no deadline, stalls 100ms in the handler. B: 40ms budget, expires
  // in the queue.
  std::string payload;
  net::EncodeTransferRequestTo(&payload, ScorableRequest());
  std::string bytes;
  net::EncodeRequestFrameTo(&bytes, net::kScore, 1, payload);
  net::EncodeRequestFrameTo(&bytes, net::kScore, 2, payload, /*deadline_ms=*/40);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  char buffer[64 * 1024];
  while (frames.size() < 2) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    ASSERT_GT(n, 0) << "gateway closed before all replies arrived";
    ASSERT_TRUE(decoder.Feed(buffer, static_cast<std::size_t>(n), &frames).ok());
  }
  ::close(fd);

  std::string body;
  ASSERT_EQ(frames[0].request_id, 1u);  // Same connection: in-order replies.
  EXPECT_TRUE(net::DecodeResponsePayload(frames[0], &body).ok());
  EXPECT_TRUE(net::DecodeResponsePayload(frames[1], &body).IsTimeout());

  const auto stats = gateway_->StatsSnapshot();
  EXPECT_EQ(stats.requests_expired, 1u);
  // Only request A was ever scored: the expired one never ran the model.
  EXPECT_EQ(router_->AggregateLatency().count(), 1u);
}

// The circuit breaker protects a fleet with one black-holed instance: after
// the trip, traffic flows around it without per-call failover cost, and
// count-based probes close the breaker once the instance heals.
TEST_F(ChaosTest, BreakerRoutesAroundABlackholedInstance) {
  StartGateway();
  // The default breaker threshold is 5: 10 injected instance failures are
  // enough to trip both instances' streaks... but calls alternate, so arm
  // a bounded outage and drive calls until the trip shows in stats.
  ASSERT_TRUE(
      Failpoints::ArmFromSpec("serving.score,error:Unavailable,hits:10").ok());

  net::ClientOptions client_options;
  client_options.retry.max_attempts = 4;
  client_options.retry.initial_backoff_ms = 1;
  client_options.retry.max_backoff_ms = 8;
  GatewayClient client("127.0.0.1", gateway_->port(), client_options);

  int verdicts = 0;
  for (int i = 0; i < 200; ++i) {
    verdicts += client.Score(ScorableRequest()).ok() ? 1 : 0;
  }
  // The outage burns out after 10 instance-level failures; the breaker
  // absorbs them and the overwhelming majority of calls still land.
  EXPECT_GE(verdicts, 195);
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->breaker_trips, 1u);
  // Probes close the breakers once the injections stop.
  EXPECT_EQ(stats->open_instances, 0u);
  EXPECT_TRUE(router_->instance_healthy(0));
  EXPECT_TRUE(router_->instance_healthy(1));
}

// Blast-radius invariant for the batched path: a KV fault that hits
// exactly one row of a wire batch degrades that row alone — its batch
// siblings come back at full quality, and the batch itself succeeds.
TEST_F(ChaosTest, BatchFaultDegradesOnlyTheRowItHit) {
  StartGateway();
  GatewayClient client("127.0.0.1", gateway_->port());

  std::vector<TransferRequest> batch(4, ScorableRequest());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].txn_id = i + 1;

  // The Model Server issues five probes per row (snapshot, aux, city,
  // embedding, live counters) in request order, and MultiGetView evaluates
  // the kvstore.get failpoint per probe in that same order — so
  // "skip:10,hits:1" lands the injected outage on exactly row 2's
  // snapshot fetch, deterministically.
  ASSERT_TRUE(
      Failpoints::ArmFromSpec("kvstore.get,error:Unavailable,skip:10,hits:1").ok());
  const auto items = client.ScoreBatch(batch);
  EXPECT_EQ(Failpoints::hits("kvstore.get"), 1u);
  Failpoints::DisarmAll();

  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE((*items)[i].ok()) << "row " << i << ": " << (*items)[i].status().ToString();
    EXPECT_EQ((*items)[i]->degraded, i == 2) << "row " << i;
  }
  EXPECT_EQ(gateway_->StatsSnapshot().degraded_verdicts, 1u);

  // The fault burned out: the same batch now scores clean end to end.
  const auto clean = client.ScoreBatch(batch);
  ASSERT_TRUE(clean.ok());
  for (const auto& item : *clean) {
    ASSERT_TRUE(item.ok());
    EXPECT_FALSE(item->degraded);
  }
}

// The streaming schedule: a fraud ring drains an account with a burst of
// transfers that each look benign in isolation — the T+1 snapshot was
// taken before the ring woke up, so a batch-fed model can never flag
// them. The ring is caught only because the ingestor folds every scored
// transfer back into the live velocity counters mid-run, and the model is
// keyed off the 24h live txn count (cnt_today). A lossy ingest path (an
// injected fault dropping a fraction of events) must not break the
// detection: the surviving counters still cross the trained threshold.
TEST_F(ChaosTest, FraudRingCaughtOnlyByLiveCounterShift) {
  auto ingestor = streaming::Ingestor::Open(store_.get(), streaming::IngestorOptions());
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  GatewayOptions options;
  options.ingestor = ingestor->get();
  StartGateway(std::move(options));
  // Swap in a velocity-keyed model: fraud iff the live 24h txn count is
  // high. 40 rows so the root clears min_split_weight (24) and splits.
  {
    ml::DataMatrix train(40, kWidth);
    train.mutable_labels().assign(40, 0);
    for (std::size_t row = 0; row < 20; ++row) {
      train.mutable_labels()[row] = 1;
      train.Set(row, core::SlotOf("cnt_today"), 30.0f);
    }
    auto model = ml::MakeId3();
    ASSERT_TRUE(model->Train(train).ok());
    ASSERT_TRUE(router_->LoadModel(ml::SerializeModel(*model), 2).ok());
  }
  GatewayClient client("127.0.0.1", gateway_->port());

  // Before the ring wakes up: the same transfer shape scores cold.
  const auto before = client.Score(ScorableRequest());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->interrupt);

  // Chaos rider: 20% of ingested events are dropped on the floor.
  ASSERT_TRUE(
      Failpoints::ArmFromSpec("streaming.ingest,error:Unavailable,p:0.2,seed:707").ok());

  // The ring fires: 40 transfers inside ten minutes. Each one is scored
  // (and not interrupted — the counters are still climbing), then folded
  // back into the windows by the ingestor.
  std::vector<TransferRequest> burst(40, ScorableRequest());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    burst[i].txn_id = 100 + i;
    burst[i].second_of_day = 43'200 + static_cast<int32_t>(i) * 15;
  }
  const auto scored = client.ScoreBatch(burst);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  (*ingestor)->Drain();
  Failpoints::DisarmAll();

  // Even with a fifth of the burst lost to the fault, the surviving
  // velocity counters crossed the rule threshold: the next transfer in
  // the ring is interrupted. Nothing else about the request changed —
  // only the streaming counters moved.
  TransferRequest next = ScorableRequest();
  next.second_of_day = 43'200 + 660;
  const auto after = client.Score(next);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->fraud_probability, before->fraud_probability);
  EXPECT_TRUE(after->interrupt) << "fraud ring escaped: live counters never shifted the verdict";

  // The schedule really was lossy and the loop really closed.
  const auto stats = gateway_->StatsSnapshot();
  EXPECT_GT(stats.ingest_dropped, 0u);
  EXPECT_GE(stats.ingest_applied, 20u);
  EXPECT_GE(stats.counter_cells_published, 1u);

  // The gateway references the test-scoped ingestor; take it down first
  // (TearDown's Shutdown is idempotent).
  ASSERT_TRUE(gateway_->Shutdown().ok());
  ASSERT_TRUE((*ingestor)->Shutdown().ok());
}

}  // namespace
}  // namespace titant::serving
