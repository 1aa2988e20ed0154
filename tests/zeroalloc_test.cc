// Proves the zero-allocation invariant of the serving hot path: after a
// warm-up pass has sized every scratch buffer and the pin arena,
// ModelServer::ScoreSpan performs no heap allocations at all on the
// all-hits path, and neither does a live Gateway between a frame arriving
// on its socket and the verdict leaving it. The binary links
// titant_alloc_hook, which replaces the global operator new/delete with
// counting versions, so the assertion is exact — any std::string growth,
// vector reallocation, or stray `new` on the path trips it.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/alloc_hook.h"
#include "kvstore/store.h"
#include "common/random.h"
#include "core/feature_extractor.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"
#include "net/wire.h"
#include "serving/feature_store.h"
#include "serving/gateway.h"
#include "serving/model_server.h"
#include "serving/router.h"

namespace titant::serving {
namespace {

constexpr int kBasic = core::FeatureExtractor::kNumBasicFeatures;
constexpr int kUsers = 32;
constexpr int kCities = 4;

TEST(ZeroAllocTest, CountingAllocatorIsLinked) {
  EXPECT_TRUE(allochook::Active());
  const uint64_t before = allochook::ThreadAllocs();
  auto* p = new int(7);
  EXPECT_GT(allochook::ThreadAllocs(), before);
  delete p;
}

/// Feature store with snapshot/aux/city rows for kUsers users and kCities
/// cities, all resident in the memtable.
std::unique_ptr<kvstore::AliHBase> SeededStore() {
  auto options = FeatureTableOptions();
  options.durable = false;
  auto store = kvstore::AliHBase::Open(std::move(options));
  EXPECT_TRUE(store.ok());
  Rng rng(41);
  std::vector<float> snapshot(static_cast<std::size_t>(kBasic));
  for (int u = 0; u < kUsers; ++u) {
    for (float& v : snapshot) v = static_cast<float>(rng.NextDouble());
    EXPECT_TRUE((*store)
                    ->Put(UserRowKey(static_cast<txn::UserId>(u)), kFamilyBasic, kQualSnapshot,
                          EncodeFloats(snapshot.data(), snapshot.size()), 1)
                    .ok());
    const float aux[2] = {12.0f, 80.0f};
    EXPECT_TRUE((*store)
                    ->Put(UserRowKey(static_cast<txn::UserId>(u)), kFamilyBasic, kQualAux,
                          EncodeFloats(aux, 2), 1)
                    .ok());
  }
  for (int c = 0; c < kCities; ++c) {
    const float stats[3] = {0.01f, 2.0f, 3.0f};
    EXPECT_TRUE((*store)
                    ->Put(CityRowKey(static_cast<uint16_t>(c)), kFamilyCity, kQualStats,
                          EncodeFloats(stats, 3), 1)
                    .ok());
  }
  return std::move(*store);
}

/// A width-52 LR trained on a tiny synthetic matrix — the model itself is
/// irrelevant; what matters is that ScoreBatch runs the real vectorized
/// scoring code.
std::string TinyModelBlob() {
  ml::LogisticRegressionOptions lr;
  lr.discretize = false;  // Standardized raw features: cheap to train.
  lr.iterations = 3;
  ml::LogisticRegressionModel model(lr);
  ml::DataMatrix train(64, kBasic);
  Rng rng(7);
  train.mutable_labels().resize(64);
  for (std::size_t r = 0; r < train.num_rows(); ++r) {
    for (int c = 0; c < kBasic; ++c) train.Set(r, c, static_cast<float>(rng.NextDouble()));
    train.mutable_labels()[r] = static_cast<uint8_t>(r % 2);
  }
  EXPECT_TRUE(model.Train(train).ok());
  return ml::SerializeModel(model);
}

TEST(ZeroAllocTest, ScoreSpanSteadyStateAllocatesNothing) {
  std::unique_ptr<kvstore::AliHBase> store = SeededStore();
  ModelServerOptions options;
  options.embedding_dim = 0;  // 52-wide layout; no emb rows needed.
  ModelServer server(store.get(), options);
  ASSERT_TRUE(server.LoadModel(TinyModelBlob(), 1).ok());

  constexpr std::size_t kBatch = 8;
  TransferRequest requests[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    requests[i].txn_id = static_cast<txn::TxnId>(i + 1);
    requests[i].from_user = static_cast<txn::UserId>(i % kUsers);
    requests[i].to_user = static_cast<txn::UserId>((i + 1) % kUsers);
    requests[i].amount = 150.0 + static_cast<double>(i);
    requests[i].second_of_day = 3600u * static_cast<uint32_t>(i % 24);
    requests[i].trans_city = static_cast<uint16_t>(i % kCities);
  }

  ScoreScratch scratch;
  std::vector<StatusOr<Verdict>> out(kBatch, StatusOr<Verdict>(Status::Internal("unscored")));

  // Warm-up: grows every scratch vector to its high-water capacity and
  // lets the pin arena coalesce to one block. Its allocations don't count.
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(server.ScoreSpan(requests, kBatch, 0, out.data(), &scratch).ok());
    for (const auto& verdict : out) {
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_FALSE(verdict->degraded);
    }
  }

  const uint64_t before = allochook::ThreadAllocs();
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(server.ScoreSpan(requests, kBatch, 0, out.data(), &scratch).ok());
  }
  const uint64_t leaked = allochook::ThreadAllocs() - before;
  EXPECT_EQ(leaked, 0u) << leaked
                        << " heap allocations leaked into 100 steady-state ScoreSpan calls";
}

TEST(ZeroAllocTest, AllMissMultiGetViewAllocatesNothing) {
  // The miss path is as hot as the hit path under cold-start traffic:
  // NotFound (and fault) Statuses come back message-free and canonical,
  // so an all-misses batch must be exactly as allocation-free as an
  // all-hits one.
  std::unique_ptr<kvstore::AliHBase> store = SeededStore();

  constexpr std::size_t kProbes = 3 * 8;
  char keys[kProbes * kUserRowKeyLen];
  std::vector<kvstore::ColumnProbeView> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    // Users beyond kUsers were never uploaded: every probe misses.
    const std::string_view row = UserRowKeyTo(
        keys + i * kUserRowKeyLen, static_cast<txn::UserId>(kUsers + 1000 + i));
    probes.push_back({row, kFamilyBasic, kQualSnapshot});
  }
  kvstore::ReadPin pin;
  std::vector<StatusOr<std::string_view>> out(
      kProbes, StatusOr<std::string_view>(std::string_view()));

  for (int warm = 0; warm < 3; ++warm) {
    pin.Reset();
    store->MultiGetView(probes.data(), probes.size(), &pin, out.data());
    for (const auto& r : out) {
      ASSERT_TRUE(r.status().IsNotFound());
      ASSERT_TRUE(r.status().message().empty());
    }
  }

  const uint64_t before = allochook::ThreadAllocs();
  for (int round = 0; round < 100; ++round) {
    pin.Reset();
    store->MultiGetView(probes.data(), probes.size(), &pin, out.data());
  }
  const uint64_t leaked = allochook::ThreadAllocs() - before;
  EXPECT_EQ(leaked, 0u) << leaked
                        << " heap allocations leaked into 100 all-misses MultiGetView calls";
}

TEST(ZeroAllocTest, ScoreSpanAllMissesAllocatesNothing) {
  // End to end: a batch whose every feature fetch misses (unknown users)
  // surfaces per-row NotFound without touching the heap either.
  std::unique_ptr<kvstore::AliHBase> store = SeededStore();
  ModelServerOptions options;
  options.embedding_dim = 0;
  ModelServer server(store.get(), options);
  ASSERT_TRUE(server.LoadModel(TinyModelBlob(), 1).ok());

  constexpr std::size_t kBatch = 8;
  TransferRequest requests[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    requests[i].txn_id = static_cast<txn::TxnId>(i + 1);
    requests[i].from_user = static_cast<txn::UserId>(kUsers + 500 + i);  // Absent.
    requests[i].to_user = static_cast<txn::UserId>(kUsers + 600 + i);    // Absent.
    requests[i].amount = 10.0;
    requests[i].second_of_day = 1200;
    requests[i].trans_city = static_cast<uint16_t>(kCities + 9);  // Absent.
  }

  ScoreScratch scratch;
  std::vector<StatusOr<Verdict>> out(kBatch, StatusOr<Verdict>(Status::Internal("unscored")));
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(server.ScoreSpan(requests, kBatch, 0, out.data(), &scratch).ok());
    for (const auto& verdict : out) ASSERT_TRUE(verdict.status().IsNotFound());
  }

  const uint64_t before = allochook::ThreadAllocs();
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(server.ScoreSpan(requests, kBatch, 0, out.data(), &scratch).ok());
  }
  const uint64_t leaked = allochook::ThreadAllocs() - before;
  EXPECT_EQ(leaked, 0u) << leaked
                        << " heap allocations leaked into 100 all-misses ScoreSpan calls";
}

TEST(ZeroAllocTest, CacheHitSSTableReadsAllocateNothing) {
  // The LSM read path off disk: every memtable is flushed, so each probe
  // resolves through a bloom check and a block-cache lookup. A cache hit
  // is a hash find, an LRU splice, and a refcount bump — after the warm-up
  // rounds populate the cache and size the pin arena, 100 all-hits batches
  // must not allocate at all.
  const std::string dir = "/tmp/titant_zeroalloc_lsm";
  std::filesystem::remove_all(dir);
  kvstore::StoreOptions options;
  options.dir = dir;
  options.column_families = {"cf"};
  options.durable = true;
  options.num_shards = 2;
  options.block_cache_bytes = 4 * 1024 * 1024;
  auto store_or = kvstore::AliHBase::Open(std::move(options));
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(*store_or);

  constexpr uint32_t kRows = 64;
  std::vector<std::string> keys(kRows);
  for (uint32_t i = 0; i < kRows; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "r%06u", i);
    keys[i] = buf;  // 7 chars: inside SSO, like the feature row keys.
    ASSERT_TRUE(store->Put(keys[i], "cf", "q", std::string(64, 'v'), 1).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_EQ(store->memtable_cells(), 0u);  // All reads come off SSTables.

  std::vector<kvstore::ColumnProbeView> probes;
  probes.reserve(kRows);
  for (uint32_t i = 0; i < kRows; ++i) probes.push_back({keys[i], "cf", "q"});
  kvstore::ReadPin pin;
  std::vector<StatusOr<std::string_view>> out(
      kRows, StatusOr<std::string_view>(std::string_view()));

  for (int warm = 0; warm < 3; ++warm) {
    pin.Reset();
    store->MultiGetView(probes.data(), probes.size(), &pin, out.data());
    for (const auto& r : out) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->size(), 64u);
    }
  }
  ASSERT_GT(store->kv_stats().cache_hits, 0u);

  const uint64_t before = allochook::ThreadAllocs();
  for (int round = 0; round < 100; ++round) {
    pin.Reset();
    store->MultiGetView(probes.data(), probes.size(), &pin, out.data());
  }
  const uint64_t leaked = allochook::ThreadAllocs() - before;
  EXPECT_EQ(leaked, 0u) << leaked
                        << " heap allocations leaked into 100 cache-hit MultiGetView calls";
}

TEST(ZeroAllocTest, SingleRequestSteadyStateAllocatesNothing) {
  std::unique_ptr<kvstore::AliHBase> store = SeededStore();
  ModelServerOptions options;
  options.embedding_dim = 0;
  ModelServer server(store.get(), options);
  ASSERT_TRUE(server.LoadModel(TinyModelBlob(), 1).ok());

  TransferRequest request;
  request.txn_id = 1;
  request.from_user = 3;
  request.to_user = 4;
  request.amount = 99.5;
  request.second_of_day = 43200;
  request.trans_city = 2;

  ScoreScratch scratch;
  StatusOr<Verdict> verdict = Status::Internal("unscored");
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(server.ScoreSpan(&request, 1, 0, &verdict, &scratch).ok());
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  }

  const uint64_t before = allochook::ThreadAllocs();
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(server.ScoreSpan(&request, 1, 0, &verdict, &scratch).ok());
  }
  const uint64_t leaked = allochook::ThreadAllocs() - before;
  EXPECT_EQ(leaked, 0u) << leaked
                        << " heap allocations leaked into 100 steady-state batch-1 calls";
}

TEST(ZeroAllocTest, GatewayWireRoundTripAllocatesNothing) {
  // Frame in, verdict out, over a real socket: once warm, a reactor
  // receives, decodes, admits, scores, encodes and sends without touching
  // the heap. The client here allocates nothing either (one pre-encoded
  // frame, a fixed reply buffer), so the count is process-wide.
  std::unique_ptr<kvstore::AliHBase> store = SeededStore();
  ModelServerOptions options;
  options.embedding_dim = 0;
  ModelServerRouter router(store.get(), options, /*num_instances=*/2);
  ASSERT_TRUE(router.LoadModel(TinyModelBlob(), 1).ok());
  GatewayOptions gateway_options;
  gateway_options.server.worker_threads = 2;
  Gateway gateway(&router, gateway_options);
  ASSERT_TRUE(gateway.Start().ok());

  TransferRequest request;
  request.txn_id = 1;
  request.from_user = 3;
  request.to_user = 4;
  request.amount = 99.5;
  request.second_of_day = 43200;
  request.trans_city = 2;
  std::string payload;
  net::EncodeTransferRequestTo(&payload, request);
  std::string frame;
  net::EncodeRequestFrameTo(&frame, net::kScore, 1, payload, /*deadline_ms=*/1000);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(gateway.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  // One round trip: send the frame, read exactly one reply frame.
  char reply[256];
  std::size_t reply_size = 0;
  const auto round_trip = [&]() -> bool {
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      return false;
    }
    reply_size = 0;
    std::size_t want = net::kHeaderBytes;
    while (reply_size < want) {
      const ssize_t n = ::read(fd, reply + reply_size, sizeof(reply) - reply_size);
      if (n <= 0) return false;
      reply_size += static_cast<std::size_t>(n);
      if (reply_size >= net::kHeaderBytes) {
        const auto* size_le = reinterpret_cast<const unsigned char*>(reply + 20);
        want = net::kHeaderBytes + (size_le[0] | size_le[1] << 8 | size_le[2] << 16 |
                                    static_cast<std::size_t>(size_le[3]) << 24);
        if (want > sizeof(reply)) return false;
      }
    }
    return reply_size == want;
  };

  // Warm-up: both router instances, the reactor's decode slots, outbox and
  // body buffer, and the scoring scratch reach their working sizes.
  for (int warm = 0; warm < 100; ++warm) {
    ASSERT_TRUE(round_trip());
    net::FrameDecoder decoder;
    std::vector<net::Frame> frames;
    ASSERT_TRUE(decoder.Feed(reply, reply_size, &frames).ok());
    ASSERT_EQ(frames.size(), 1u);
    std::string body;
    ASSERT_TRUE(net::DecodeResponsePayload(frames[0], &body).ok());
    Verdict verdict;
    ASSERT_TRUE(net::DecodeVerdict(body, &verdict).ok());
    EXPECT_FALSE(verdict.degraded);
  }

  const uint64_t before = allochook::TotalAllocs();
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(round_trip()) << "round trip " << round;
  }
  const uint64_t allocs = allochook::TotalAllocs() - before;
  ::close(fd);
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations in 1,000 warm gateway round trips";
  EXPECT_EQ(gateway.StatsSnapshot().coalesced_batches, 1100u);
  ASSERT_TRUE(gateway.Shutdown().ok());
}

TEST(ZeroAllocTest, GbdtScoreBatchOnAFreshThreadAllocatesNothing) {
  // GBDT scores on raw values with no scratch memory at all: even a
  // thread's first call, with a batch far larger than any stack block,
  // must not touch the heap.
  constexpr int kWidth = kBasic + 32;  // The serving layout with embeddings.
  constexpr int kRows = 64;            // 5,376 feature values.
  ml::DataMatrix train(256, kWidth);
  Rng rng(17);
  train.mutable_labels().resize(train.num_rows());
  for (std::size_t r = 0; r < train.num_rows(); ++r) {
    for (int c = 0; c < kWidth; ++c) train.Set(r, c, static_cast<float>(rng.NextDouble()));
    train.mutable_labels()[r] = train.At(r, 3) > 0.5f ? 1 : 0;
  }
  ml::GbdtOptions gbdt;
  gbdt.num_trees = 20;
  ml::GbdtModel model(gbdt);
  ASSERT_TRUE(model.Train(train).ok());

  std::vector<double> out(kRows);
  uint64_t allocs = 0;
  std::thread([&] {
    const uint64_t before = allochook::ThreadAllocs();
    model.ScoreBatch(train.Row(0), kRows, out.data());
    allocs = allochook::ThreadAllocs() - before;
  }).join();
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations in a fresh thread's first ScoreBatch";
  for (std::size_t r = 0; r < kRows; ++r) EXPECT_EQ(out[r], model.Score(train.Row(r)));
}

}  // namespace
}  // namespace titant::serving
