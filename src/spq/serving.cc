#include "spq/serving.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"
#include "spq/cell_store.h"

namespace spq::core {

namespace {

/// Process-wide mirrors of the per-door tallies (cross-door totals for
/// DumpMetrics/Prometheus; the door's own Counters keep stats() exact
/// per instance). Looked up once, cached for the process lifetime.
struct DoorRegistryMetrics {
  metrics::Counter& admitted;
  metrics::Counter& rejected;
  metrics::Counter& coalesced;
  metrics::Counter& batches;
  metrics::Counter& cold_routed;
  metrics::Gauge& queue_depth;
  metrics::Histogram& queue_wait_ns;
  metrics::Histogram& batch_size;

  static DoorRegistryMetrics& Get() {
    static auto& registry = metrics::MetricsRegistry::Global();
    static DoorRegistryMetrics metrics_{
        registry.counter("spq.serving.admitted"),
        registry.counter("spq.serving.rejected"),
        registry.counter("spq.serving.coalesced"),
        registry.counter("spq.serving.batches"),
        registry.counter("spq.serving.cold_routed"),
        registry.gauge("spq.serving.queue_depth"),
        registry.histogram("spq.serving.queue_wait_ns"),
        registry.histogram("spq.serving.batch_size")};
    return metrics_;
  }
};

/// Ceilings of the two batch-close knobs (documented on ServingOptions).
/// batch_size_hist_ holds max_batch + 1 counters, and the batch-close
/// deadline casts max_wait_ms to an integer clock duration.
constexpr uint32_t kMaxBatchCeiling = 4096;
constexpr double kMaxWaitMsCeiling = 60'000.0;

/// Defensive normalization so the executor loop can assume sane knobs.
ServingOptions Normalize(ServingOptions opts) {
  opts.max_batch = std::clamp<uint32_t>(opts.max_batch, 1, kMaxBatchCeiling);
  if (!(opts.max_wait_ms >= 0.0)) opts.max_wait_ms = 0.0;
  opts.max_wait_ms = std::min(opts.max_wait_ms, kMaxWaitMsCeiling);
  return opts;
}

/// The per-query view of one shared batch job: the query's own top-k
/// entries plus the batch job's stats (the aggregate counters are
/// batch-level — one shared map/shuffle cannot be attributed per query).
SpqResult MakeCoalescedResult(Algorithm algo, std::vector<ResultEntry> entries,
                              const SpqBatchResult& batch) {
  SpqResult result;
  result.entries = std::move(entries);
  SpqRunInfo& info = result.info;
  info.algorithm = algo;
  const mapreduce::Counters& counters = batch.job.counters;
  info.features_kept = counters.Get(counter::kFeaturesKept);
  info.features_pruned = counters.Get(counter::kFeaturesPruned);
  info.feature_duplicates = counters.Get(counter::kFeatureDuplicates);
  info.features_examined = counters.Get(counter::kFeaturesExamined);
  info.pairs_tested = counters.Get(counter::kPairsTested);
  info.early_terminations = counters.Get(counter::kEarlyTerminations);
  info.reduce_groups = counters.Get(counter::kGroups);
  info.warm_path = batch.warm_path;
  info.cold_fallback = batch.cold_fallback;
  info.job = batch.job;
  return result;
}

}  // namespace

SpqFrontDoor::SpqFrontDoor(const SpqEngine& engine)
    : engine_(engine),
      opts_(Normalize(engine.options().serving)),
      batch_size_hist_(opts_.max_batch + 1),
      executor_([this] { ExecutorLoop(); }) {}

SpqFrontDoor::~SpqFrontDoor() { Shutdown(); }

std::future<StatusOr<SpqResult>> SpqFrontDoor::Submit(const core::Query& query,
                                                      Algorithm algo) {
  TRACE_SPAN("door.admit");
  Pending pending;
  pending.query = query;
  pending.algo = algo;
  pending.admitted_at = metrics::Clock::now();
  std::future<StatusOr<SpqResult>> future = pending.promise.get_future();
  // An invalid query is answered here and never admitted: QueryBatch
  // rejects a whole batch on its first invalid query, so one admitted bad
  // query would fail every batchmate.
  if (Status status = ValidateQuery(query); !status.ok()) {
    rejected_.Increment();
    DoorRegistryMetrics::Get().rejected.Increment();
    pending.promise.set_value(std::move(status));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= opts_.queue_capacity) {
      // Backpressure is a loud, immediate, counted rejection — never an
      // unbounded buffer, never a silent drop.
      rejected_.Increment();
      DoorRegistryMetrics::Get().rejected.Increment();
      pending.promise.set_value(Status::Unavailable(
          stopping_ ? "serving front door is shut down"
                    : "admission queue full (" +
                          std::to_string(opts_.queue_capacity) + " waiting)"));
      return future;
    }
    queue_.push_back(std::move(pending));
  }
  admitted_.Increment();
  DoorRegistryMetrics::Get().admitted.Increment();
  DoorRegistryMetrics::Get().queue_depth.Add(1);
  queue_cv_.notify_one();
  return future;
}

StatusOr<SpqResult> SpqFrontDoor::Query(const core::Query& query,
                                        Algorithm algo) {
  return Submit(query, algo).get();
}

void SpqFrontDoor::ExecutorLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      // The batch-close span covers the coalescing window: from an
      // executor picking up queued work to the batch leaving the queue.
      TRACE_SPAN("door.batch_close");
      // Latency budget: hold the batch open until it fills or the OLDEST
      // admitted query has waited max_wait_ms. Shutdown closes it early —
      // admitted queries are served, just without further coalescing.
      if (opts_.max_wait_ms > 0.0) {
        const auto deadline =
            queue_.front().admitted_at +
            std::chrono::duration_cast<metrics::Clock::duration>(
                std::chrono::duration<double, std::milli>(opts_.max_wait_ms));
        queue_cv_.wait_until(lock, deadline, [this] {
          return stopping_ || queue_.size() >= opts_.max_batch;
        });
      }
      // One batch = one algorithm: drain the same-algorithm prefix so a
      // mixed queue closes at the algorithm boundary (order preserved).
      const Algorithm algo = queue_.front().algo;
      const auto drained_at = metrics::Clock::now();
      while (!queue_.empty() && batch.size() < opts_.max_batch &&
             queue_.front().algo == algo) {
        DoorRegistryMetrics::Get().queue_wait_ns.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                drained_at - queue_.front().admitted_at)
                .count()));
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      DoorRegistryMetrics::Get().queue_depth.Add(
          -static_cast<int64_t>(batch.size()));
    }
    ServeBatch(std::move(batch));
  }
}

void SpqFrontDoor::ServeBatch(std::vector<Pending> batch) {
  TRACE_SPAN("door.serve_batch");
  const Algorithm algo = batch.front().algo;
  // Oversized radii ride engine.Query()'s loud cold fallback individually,
  // so one out-of-contract query cannot drag its batchmates onto the cold
  // path. The fallback is snapshot-independent (see SpqEngine::Query), so
  // serving it from this executor is safe under concurrent traffic.
  const std::shared_ptr<const StoreSnapshot> snap = engine_.snapshot();
  const double max_radius =
      snap != nullptr ? snap->store->max_radius() : 0.0;
  std::vector<Pending> warm;
  warm.reserve(batch.size());
  for (Pending& pending : batch) {
    if (snap != nullptr && pending.query.radius > max_radius) {
      cold_routed_.Increment();
      DoorRegistryMetrics::Get().cold_routed.Increment();
      pending.promise.set_value(engine_.Query(pending.query, algo));
    } else {
      warm.push_back(std::move(pending));
    }
  }
  if (warm.empty()) return;

  batches_.Increment();
  batch_size_hist_[warm.size()].Increment();
  DoorRegistryMetrics::Get().batches.Increment();
  DoorRegistryMetrics::Get().batch_size.Record(warm.size());
  if (warm.size() == 1) {
    warm.front().promise.set_value(engine_.Query(warm.front().query, algo));
    return;
  }

  coalesced_.Increment(warm.size());
  DoorRegistryMetrics::Get().coalesced.Increment(warm.size());
  std::vector<core::Query> queries;
  queries.reserve(warm.size());
  for (const Pending& pending : warm) queries.push_back(pending.query);
  StatusOr<SpqBatchResult> result = engine_.QueryBatch(queries, algo);
  if (!result.ok()) {
    for (Pending& pending : warm) pending.promise.set_value(result.status());
    return;
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i].promise.set_value(MakeCoalescedResult(
        algo, std::move(result->per_query[i]), *result));
  }
}

void SpqFrontDoor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  if (executor_.joinable()) executor_.join();
}

ServingStats SpqFrontDoor::stats() const {
  ServingStats stats;
  stats.admitted = admitted_.Value();
  stats.rejected = rejected_.Value();
  // Derived, not stored: every Submit() bumps exactly one of the two
  // outcome counters, so this decomposition is consistent for any
  // interleaving — the old third `submitted` tally could be observed
  // incremented before either outcome was (the torn-read window).
  stats.submitted = stats.admitted + stats.rejected;
  stats.coalesced = coalesced_.Value();
  stats.batches = batches_.Value();
  stats.cold_routed = cold_routed_.Value();
  stats.batch_size_hist.reserve(batch_size_hist_.size());
  for (const metrics::Counter& bucket : batch_size_hist_) {
    stats.batch_size_hist.push_back(bucket.Value());
  }
  return stats;
}

}  // namespace spq::core
