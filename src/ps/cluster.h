#ifndef TITANT_PS_CLUSTER_H_
#define TITANT_PS_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "ps/server.h"

namespace titant::ps {

/// Synchronous client facade a worker uses to talk to every server shard.
/// Keys are routed to shards by modulo; batched per shard per call.
class PsClient {
 public:
  explicit PsClient(std::vector<ServerNode*> servers) : servers_(std::move(servers)) {}

  /// Pulls `keys` (each a dim-wide vector) into a dense buffer aligned
  /// with `keys`. Blocks until every shard responds.
  std::vector<float> Pull(const std::vector<Key>& keys, int dim);

  /// Pushes values (dense, aligned with keys) and blocks for acks.
  void Push(const std::vector<Key>& keys, const std::vector<float>& values, int dim,
            PushOp op);

  std::size_t num_servers() const { return servers_.size(); }

 private:
  std::vector<ServerNode*> servers_;
};

/// The KunPeng-style cluster: a set of server-node threads plus a pool of
/// worker threads executing a user task function. Per §4.3, a typical
/// deployment assigns half the machines as servers and half as workers.
class KunPengCluster {
 public:
  /// Spawns `num_servers` server threads.
  KunPengCluster(int num_servers, int num_workers);
  ~KunPengCluster();

  KunPengCluster(const KunPengCluster&) = delete;
  KunPengCluster& operator=(const KunPengCluster&) = delete;

  int num_servers() const { return static_cast<int>(servers_.size()); }
  int num_workers() const { return num_workers_; }

  /// Runs `task(worker_id, client)` on every worker (worker threads are
  /// created per call) and blocks until all complete.
  void RunWorkers(const std::function<void(int, PsClient&)>& task);

  /// A client usable from the calling thread (e.g. a coordinator).
  PsClient MakeClient();

  /// Checkpoints / restores all shards — the single-point-of-failure
  /// recovery story the paper credits the PS architecture with.
  std::vector<std::unordered_map<Key, std::vector<float>>> Checkpoint() const;
  void Restore(std::vector<std::unordered_map<Key, std::vector<float>>> state);

  /// Total floats moved through Push/Pull across shards (communication
  /// volume diagnostics; the Fig. 10 simulator is calibrated to §5.1 and
  /// reads neither).
  uint64_t TotalPushedFloats() const;
  uint64_t TotalPulledFloats() const;

 private:
  std::vector<std::unique_ptr<ServerNode>> servers_;
  int num_workers_;
};

}  // namespace titant::ps

#endif  // TITANT_PS_CLUSTER_H_
