#include "serving/router.h"

#include "common/logging.h"

namespace titant::serving {

ModelServerRouter::ModelServerRouter(kvstore::KvTable* store, ModelServerOptions options,
                                     int num_instances)
    : healthy_(static_cast<std::size_t>(std::max(1, num_instances))),
      rollout_held_(static_cast<std::size_t>(std::max(1, num_instances))),
      breakers_(static_cast<std::size_t>(std::max(1, num_instances))),
      served_(static_cast<std::size_t>(std::max(1, num_instances))) {
  TITANT_CHECK(num_instances > 0);
  instances_.reserve(static_cast<std::size_t>(num_instances));
  for (int i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<ModelServer>(store, options));
    const std::size_t s = static_cast<std::size_t>(i);
    healthy_[s].store(true);
    rollout_held_[s].store(false);
    served_[s].store(0);
  }
}

Status ModelServerRouter::LoadModel(const std::string& blob, uint64_t version) {
  Status first_error = Status::OK();
  std::vector<bool> loaded(instances_.size(), false);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Status status = instances_[i]->LoadModel(blob, version);
    loaded[i] = status.ok();
    if (status.ok()) {
      ++successes;
    } else if (first_error.ok()) {
      first_error = status;
    }
  }
  if (successes == 0) return first_error;  // Fleet stays uniform on the old version.
  // Partial failure would leave a mixed-version fleet: instances still on
  // the stale model are held out of rotation until a later rollout
  // succeeds on them (or ops revives them via SetInstanceHealthy).
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (loaded[i]) {
      rollout_held_[i].store(false);  // Re-validated: on the fleet version.
    } else if (!rollout_held_[i].exchange(true)) {
      TITANT_WARN << "rollout of model v" << version << " failed on instance " << i
                  << "; holding the stale instance out of rotation";
    }
  }
  return first_error;
}

StatusOr<Verdict> ModelServerRouter::Score(const TransferRequest& request, int64_t deadline_us) {
  // The single-request path is the batch-of-1 special case of ScoreSpan
  // (stack-resident result slot — no vector round trip).
  StatusOr<Verdict> verdict = Status::Internal("unscored");
  TITANT_RETURN_IF_ERROR(ScoreSpan(&request, 1, deadline_us, &verdict));
  return verdict;
}

StatusOr<std::vector<StatusOr<Verdict>>> ModelServerRouter::ScoreBatch(
    const std::vector<TransferRequest>& requests, int64_t deadline_us) {
  std::vector<StatusOr<Verdict>> out(requests.size(),
                                     StatusOr<Verdict>(Status::Internal("unscored")));
  TITANT_RETURN_IF_ERROR(ScoreSpan(requests.data(), requests.size(), deadline_us, out.data()));
  return out;
}

Status ModelServerRouter::ScoreSpan(const TransferRequest* requests, std::size_t n,
                                    int64_t deadline_us, StatusOr<Verdict>* out,
                                    ScoreScratch* scratch) {
  const std::size_t fleet = instances_.size();
  const uint64_t start = cursor_.fetch_add(1);
  // The no-instance status is built only when it is returned: its message
  // is past the small-string size, so building it per dispatch allocated.
  Status last_unavailable = Status::OK();
  for (std::size_t attempt = 0; attempt < fleet; ++attempt) {
    const std::size_t i = static_cast<std::size_t>((start + attempt) % fleet);
    if (!healthy_[i].load() || rollout_held_[i].load()) continue;
    CircuitBreaker& breaker = breakers_[i];
    // Half-open probing: most traffic keeps failing over, but every 16th
    // request that lands on an open breaker goes through to test recovery.
    if (breaker.open() && !breaker.ProbeDue()) continue;
    const Status status = instances_[i]->ScoreSpan(requests, n, deadline_us, out, scratch);
    const bool instance_failure = !status.ok() && StatusCodeIsInstanceFailure(status.code());
    if (!instance_failure) {
      // The instance answered authoritatively (including request-level
      // errors like an unknown user, which travel per item): it is alive,
      // so close the breaker.
      if (breaker.Close()) {
        TITANT_INFO << "instance " << i << " breaker closed after successful probe";
      }
      if (!status.ok()) return status;
      std::size_t scored = 0;
      for (std::size_t item = 0; item < n; ++item) {
        if (out[item].ok()) ++scored;
      }
      served_[i].fetch_add(scored);
      return Status::OK();
    }
    // Instance-level outage: fail over the whole batch, and trip the
    // breaker once the failure streak reaches the threshold.
    last_unavailable = status;
    if (breaker.Fail()) {
      TITANT_WARN << "instance " << i << " breaker opened after "
                  << CircuitBreaker::kTripFailures
                  << " consecutive failures: " << status.ToString();
    }
  }
  return last_unavailable.ok() ? Status::Unavailable("no healthy Model Server instance")
                               : last_unavailable;
}

Status ModelServerRouter::SetInstanceHealthy(int instance, bool healthy) {
  if (instance < 0 || instance >= num_instances()) {
    return Status::OutOfRange("no such instance");
  }
  const std::size_t i = static_cast<std::size_t>(instance);
  healthy_[i].store(healthy);
  if (healthy) {  // Ops revival wipes automatic state: fresh start.
    rollout_held_[i].store(false);
    breakers_[i].Close();
  }
  return Status::OK();
}

int ModelServerRouter::open_instances() const {
  int open = 0;
  for (int i = 0; i < num_instances(); ++i) {
    if (!instance_healthy(i)) ++open;
  }
  return open;
}

uint64_t ModelServerRouter::breaker_trips() const {
  uint64_t trips = 0;
  for (const CircuitBreaker& breaker : breakers_) trips += breaker.trips();
  return trips;
}

uint64_t ModelServerRouter::degraded_total() const {
  uint64_t total = 0;
  for (const auto& instance : instances_) total += instance->degraded_scores();
  return total;
}

uint64_t ModelServerRouter::model_version() const {
  uint64_t version = 0;
  for (const auto& instance : instances_) {
    version = std::max(version, instance->model_version());
  }
  return version;
}

Histogram ModelServerRouter::AggregateLatency() const {
  Histogram merged;
  for (const auto& instance : instances_) {
    merged.Merge(instance->LatencySnapshot());
  }
  return merged;
}

}  // namespace titant::serving
