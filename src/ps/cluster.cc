#include "ps/cluster.h"

#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace titant::ps {

namespace {

// Blocks until `pending` completions have been signaled.
class Latch {
 public:
  explicit Latch(std::size_t pending) : pending_(pending) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_;
};

}  // namespace

std::vector<float> PsClient::Pull(const std::vector<Key>& keys, int dim) {
  TITANT_CHECK(!servers_.empty());
  const std::size_t d = static_cast<std::size_t>(dim);
  std::vector<float> out(keys.size() * d, 0.0f);

  // Partition key positions by shard.
  std::vector<std::vector<std::size_t>> positions(servers_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    positions[keys[i] % servers_.size()].push_back(i);
  }

  Latch latch(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (positions[s].empty()) {
      latch.CountDown();
      continue;
    }
    std::vector<Key> shard_keys;
    shard_keys.reserve(positions[s].size());
    for (std::size_t pos : positions[s]) shard_keys.push_back(keys[pos]);
    // Copy of positions for the callback. Shards write disjoint slots of
    // `out`, so they need no lock; the callback must not touch this frame
    // after CountDown, which can let Pull return.
    servers_[s]->Pull(std::move(shard_keys), dim,
                      [&, pos = positions[s]](std::vector<float> values) {
                        for (std::size_t i = 0; i < pos.size(); ++i) {
                          std::copy(values.begin() + static_cast<std::ptrdiff_t>(i * d),
                                    values.begin() + static_cast<std::ptrdiff_t>((i + 1) * d),
                                    out.begin() + static_cast<std::ptrdiff_t>(pos[i] * d));
                        }
                        latch.CountDown();
                      });
  }
  latch.Wait();
  return out;
}

void PsClient::Push(const std::vector<Key>& keys, const std::vector<float>& values, int dim,
                    PushOp op) {
  TITANT_CHECK(!servers_.empty());
  const std::size_t d = static_cast<std::size_t>(dim);
  TITANT_CHECK(values.size() == keys.size() * d);

  std::vector<std::vector<std::size_t>> positions(servers_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    positions[keys[i] % servers_.size()].push_back(i);
  }

  Latch latch(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (positions[s].empty()) {
      latch.CountDown();
      continue;
    }
    std::vector<Key> shard_keys;
    std::vector<float> shard_values;
    shard_keys.reserve(positions[s].size());
    shard_values.reserve(positions[s].size() * d);
    for (std::size_t pos : positions[s]) {
      shard_keys.push_back(keys[pos]);
      shard_values.insert(shard_values.end(),
                          values.begin() + static_cast<std::ptrdiff_t>(pos * d),
                          values.begin() + static_cast<std::ptrdiff_t>((pos + 1) * d));
    }
    servers_[s]->Push(std::move(shard_keys), std::move(shard_values), dim, op,
                      [&latch] { latch.CountDown(); });
  }
  latch.Wait();
}

KunPengCluster::KunPengCluster(int num_servers, int num_workers)
    : num_workers_(num_workers) {
  TITANT_CHECK(num_servers > 0 && num_workers > 0);
  servers_.reserve(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) servers_.push_back(std::make_unique<ServerNode>(s));
}

KunPengCluster::~KunPengCluster() = default;

PsClient KunPengCluster::MakeClient() {
  std::vector<ServerNode*> raw;
  raw.reserve(servers_.size());
  for (auto& s : servers_) raw.push_back(s.get());
  return PsClient(std::move(raw));
}

void KunPengCluster::RunWorkers(const std::function<void(int, PsClient&)>& task) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads.emplace_back([this, w, &task] {
      PsClient client = MakeClient();
      task(w, client);
    });
  }
  for (auto& t : threads) t.join();
}

std::vector<std::unordered_map<Key, std::vector<float>>> KunPengCluster::Checkpoint() const {
  std::vector<std::unordered_map<Key, std::vector<float>>> state;
  state.reserve(servers_.size());
  for (const auto& s : servers_) state.push_back(s->Snapshot());
  return state;
}

void KunPengCluster::Restore(std::vector<std::unordered_map<Key, std::vector<float>>> state) {
  TITANT_CHECK(state.size() == servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) servers_[i]->Restore(std::move(state[i]));
}

uint64_t KunPengCluster::TotalPushedFloats() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s->pushed_floats();
  return total;
}

uint64_t KunPengCluster::TotalPulledFloats() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s->pulled_floats();
  return total;
}

}  // namespace titant::ps
