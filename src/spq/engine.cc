#include "spq/engine.h"

#include <cmath>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "geo/grid.h"
#include "mapreduce/runtime.h"
#include "spq/balanced_partitioner.h"
#include "spq/cell_store.h"
#include "spq/duplication.h"
#include "spq/topk.h"

namespace spq::core {

namespace {

/// Engine-level registry metrics, looked up once (see common/metrics.h
/// for the usage contract; cell_store.h carries the full inventory).
struct EngineRegistryMetrics {
  metrics::Counter& cold_fallbacks;
  metrics::Counter& slow_queries;
  metrics::Counter& store_publishes;
  metrics::Histogram& warm_query_ns;
  metrics::Histogram& warm_batch_ns;

  static EngineRegistryMetrics& Get() {
    static auto& registry = metrics::MetricsRegistry::Global();
    static EngineRegistryMetrics metrics_{
        registry.counter("spq.query.cold_fallbacks"),
        registry.counter("spq.query.slow"),
        registry.counter("spq.store.publishes"),
        registry.histogram("spq.query.warm_ns"),
        registry.histogram("spq.query.warm_batch_ns")};
    return metrics_;
  }
};

/// Cold-fallback warnings are rate-limited (the fallback itself is the
/// loud part of the contract, but a misconfigured client can hit it per
/// query): one line per N occurrences, each admitted line carrying the
/// suppressed count. The `spq.query.cold_fallbacks` counter sees EVERY
/// occurrence, so the rate is observable without log scraping.
constexpr uint64_t kColdFallbackWarnEveryN = 64;

/// The slow-query log: a per-phase breakdown of one over-threshold call.
/// Observational only — reads stats that the run already produced.
void MaybeLogSlowQuery(const EngineOptions& options, const char* kind,
                       Algorithm algo, double elapsed_ms,
                       const mapreduce::JobStats& job) {
  if (!(options.slow_query_ms > 0.0) || elapsed_ms < options.slow_query_ms) {
    return;
  }
  EngineRegistryMetrics::Get().slow_queries.Increment();
  SPQ_LOG_WARN << "slow " << kind << " (" << AlgorithmName(algo) << "): "
               << elapsed_ms << " ms total (threshold "
               << options.slow_query_ms << " ms) | map "
               << job.map_seconds * 1e3 << " ms, reduce "
               << job.reduce_seconds * 1e3 << " ms, "
               << job.map_output_records << " map-output records, "
               << job.shuffle_bytes << " shuffle bytes, "
               << job.counters.Get(counter::kGroups) << " reduce groups";
}

/// Extension: routes the cold job's cells to reducers by an LPT assignment
/// from per-cell cost estimates (Section 7.2.4's imbalance countermeasure;
/// see balanced_partitioner.h) when the options call for it. Cells outside
/// the assignment (clamped out-of-grid, defensive) keep CellPartitioner.
void MaybeApplyBalancedPartitioner(
    const Dataset& dataset, const EngineOptions& options,
    const geo::UniformGrid& grid, uint32_t num_reduce_tasks,
    mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject, ResultEntry>&
        spec) {
  if (options.partitioner != PartitionerKind::kBalanced ||
      num_reduce_tasks >= grid.num_cells()) {
    return;
  }
  auto assignment = std::make_shared<const std::vector<uint32_t>>(
      BalancedAssignment(ComputeCellLoad(dataset, grid), num_reduce_tasks));
  spec.partitioner = [assignment](const CellKey& key, uint32_t parts) {
    return key.cell < assignment->size() ? (*assignment)[key.cell]
                                         : CellPartitioner(key, parts);
  };
}

/// Assembles the SPQ-level measurements of one single-query job.
SpqResult MakeSpqResult(const core::Query& query, Algorithm algo,
                        uint32_t grid_size,
                        mapreduce::JobOutput<ResultEntry>&& output) {
  SpqResult result;
  result.entries = MergeTopK(std::move(output.records), query.k);

  SpqRunInfo& info = result.info;
  info.algorithm = algo;
  info.grid_size = grid_size;
  info.num_reduce_tasks =
      static_cast<uint32_t>(output.stats.reduce_task_seconds.size());
  const mapreduce::Counters& counters = output.stats.counters;
  info.features_kept = counters.Get(counter::kFeaturesKept);
  info.features_pruned = counters.Get(counter::kFeaturesPruned);
  info.feature_duplicates = counters.Get(counter::kFeatureDuplicates);
  info.features_examined = counters.Get(counter::kFeaturesExamined);
  info.pairs_tested = counters.Get(counter::kPairsTested);
  info.early_terminations = counters.Get(counter::kEarlyTerminations);
  info.reduce_groups = counters.Get(counter::kGroups);
  info.job = std::move(output.stats);
  return result;
}

/// Folds one cold job's stats into those of a fallback batch, which runs
/// one job per query: counters merged, scalar stats summed. The per-task
/// vectors stay empty, since no one job's task list describes the batch.
void AddJobStats(const mapreduce::JobStats& job, mapreduce::JobStats& total) {
  total.map_seconds += job.map_seconds;
  total.reduce_seconds += job.reduce_seconds;
  total.total_seconds += job.total_seconds;
  total.input_records += job.input_records;
  total.map_output_records += job.map_output_records;
  total.shuffle_bytes += job.shuffle_bytes;
  total.map_task_failures += job.map_task_failures;
  total.reduce_task_failures += job.reduce_task_failures;
  total.storage_fault_detections += job.storage_fault_detections;
  total.counters.MergeFrom(job.counters);
}

/// Routes each output row to its query and merges the per-cell lists.
SpqBatchResult MakeBatchResult(const std::vector<core::Query>& queries,
                               mapreduce::JobOutput<BatchResultEntry>&& output) {
  SpqBatchResult result;
  result.per_query.resize(queries.size());
  std::vector<std::vector<ResultEntry>> candidates(queries.size());
  std::vector<std::size_t> counts(queries.size(), 0);
  for (const BatchResultEntry& row : output.records) {
    if (row.query < counts.size()) ++counts[row.query];
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    candidates[q].reserve(counts[q]);
  }
  for (const BatchResultEntry& row : output.records) {
    if (row.query < candidates.size()) {
      candidates[row.query].push_back(row.entry);
    }
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    result.per_query[q] = MergeTopK(std::move(candidates[q]), queries[q].k);
  }
  result.job = std::move(output.stats);
  return result;
}

}  // namespace

// Out-of-line: CellStore is incomplete in engine.h.
StoreSnapshot::StoreSnapshot() = default;
StoreSnapshot::~StoreSnapshot() = default;

SpqEngine::SpqEngine(Dataset dataset, EngineOptions options)
    : dataset_(std::move(dataset)),
      options_(options),
      input_(FlattenDataset(dataset_)),
      feature_postings_(dataset_.features) {
  // The warm feature-side input: borrowed aliases into input_ (which the
  // engine owns for its lifetime), so no keyword list is cloned.
  // FlattenDataset lays out data first, features last, so the features
  // are exactly the tail — grid-independent, shared by every store
  // generation, built once here.
  const std::size_t num_features = dataset_.features.size();
  feature_input_.reserve(num_features);
  for (std::size_t i = input_.size() - num_features; i < input_.size(); ++i) {
    feature_input_.push_back(input_[i].Borrowed());
  }
  // One pool for every warm query this engine answers, sized like the
  // cold jobs' worker count.
  warm_pool_ = std::make_unique<ThreadPool>(
      options_.num_workers > 0
          ? options_.num_workers
          : std::max(1u, std::thread::hardware_concurrency()));
}

SpqEngine::~SpqEngine() = default;

Status ValidateQuery(const Query& query) {
  if (query.k == 0) {
    return Status::InvalidArgument("query.k must be >= 1");
  }
  if (!(query.radius >= 0.0) || !std::isfinite(query.radius)) {
    return Status::InvalidArgument("query.radius must be finite and >= 0");
  }
  return Status::OK();
}

mapreduce::JobConfig SpqEngine::MakeClusterConfig(
    uint32_t default_reduce_tasks, std::string job_name) const {
  mapreduce::JobConfig config;
  config.num_workers = options_.num_workers > 0
                           ? options_.num_workers
                           : std::max(1u, std::thread::hardware_concurrency());
  config.num_map_tasks = options_.num_map_tasks > 0
                             ? options_.num_map_tasks
                             : 4 * config.num_workers;
  config.num_reduce_tasks = options_.num_reduce_tasks > 0
                                ? options_.num_reduce_tasks
                                : default_reduce_tasks;
  config.faults = options_.faults;
  config.max_task_attempts = options_.max_task_attempts;
  config.job_name = std::move(job_name);
  config.spill_dir = options_.spill_dir;
  return config;
}

StatusOr<SpqResult> SpqEngine::Execute(const core::Query& query,
                                       Algorithm algo,
                                       uint32_t grid_size_override) const {
  SPQ_RETURN_NOT_OK(ValidateQuery(query));

  // --- query-time grid (Section 4.1: built once r is known) ---
  uint32_t grid_size =
      grid_size_override > 0 ? grid_size_override : options_.grid_size;
  if (grid_size == 0) {
    grid_size = AdviseGridSize(query.radius, dataset_.bounds.width(),
                               /*max_per_side=*/128);
  }
  SPQ_ASSIGN_OR_RETURN(
      geo::UniformGrid grid,
      geo::UniformGrid::Make(dataset_.bounds, grid_size, grid_size));
  if (query.radius > std::min(grid.cell_width(), grid.cell_height())) {
    SPQ_LOG_WARN << "query radius " << query.radius
                 << " exceeds the grid cell edge (" << grid.cell_width()
                 << "); duplication will be heavy (paper assumes a >= r)";
  }

  const mapreduce::JobConfig config =
      MakeClusterConfig(grid.num_cells(), AlgorithmName(algo));

  // --- the single MapReduce job ---
  auto spec = MakeSpqJobSpec(algo, query, grid, options_.keyword_prefilter);
  MaybeApplyBalancedPartitioner(dataset_, options_, grid,
                                config.num_reduce_tasks, spec);
  SPQ_ASSIGN_OR_RETURN(auto output, mapreduce::RunJob(spec, config, input_));

  // --- centralized merge of per-cell top-k lists (cheap: <= k * cells) ---
  return MakeSpqResult(query, algo, grid_size, std::move(output));
}

Status SpqEngine::BuildStore(double max_radius, uint32_t grid_size_override) {
  TRACE_SPAN("store.build");
  if (!(max_radius >= 0.0) || !std::isfinite(max_radius)) {
    return Status::InvalidArgument("store max_radius must be finite and >= 0");
  }
  uint32_t grid_size =
      grid_size_override > 0 ? grid_size_override : options_.grid_size;
  if (grid_size == 0) {
    grid_size = AdviseGridSize(max_radius, dataset_.bounds.width(),
                               /*max_per_side=*/128);
  }
  SPQ_ASSIGN_OR_RETURN(
      geo::UniformGrid grid,
      geo::UniformGrid::Make(dataset_.bounds, grid_size, grid_size));

  const mapreduce::JobConfig config =
      MakeClusterConfig(grid.num_cells(), "cellstore-build");
  SPQ_ASSIGN_OR_RETURN(auto store,
                       CellStore::Build(input_, grid, max_radius, config));
  // RCU publication: in-flight warm queries keep serving the generation
  // they pinned; new queries see this one. Under mutate_mu_ so a racing
  // Insert/Delete cannot publish on top of a stale generation, and the
  // locator (keyed to the pre-build logical dataset) is invalidated in
  // the same critical section.
  std::lock_guard<std::mutex> lock(mutate_mu_);
  data_locator_.clear();
  locator_ready_ = false;
  PublishStore(std::move(store));
  return Status::OK();
}

void SpqEngine::PublishStore(std::unique_ptr<const CellStore> store) {
  TRACE_SPAN("store.publish");
  EngineRegistryMetrics::Get().store_publishes.Increment();
  auto snap = std::make_shared<StoreSnapshot>();
  // LIVE rows decide residency: a fully tombstoned (but uncompacted) cell
  // is logically empty, exactly as a fresh build of the equivalent dataset
  // would leave it (invariant M2). O(cells) per publish, never per query.
  for (geo::CellId c = 0; c < store->num_cells(); ++c) {
    snap->data_cells += store->live_record_count(c) > 0;
  }
  snap->store = std::move(store);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

void SpqEngine::EnsureLocatorLocked() const {
  if (locator_ready_) return;
  data_locator_.clear();
  data_locator_.reserve(dataset_.data.size());
  for (const DataObject& object : dataset_.data) {
    data_locator_.emplace(object.id, object.pos);
  }
  locator_ready_ = true;
}

Status SpqEngine::Insert(const DataObject& object) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  const std::shared_ptr<const StoreSnapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before Insert()");
  }
  EnsureLocatorLocked();
  if (data_locator_.count(object.id) != 0) {
    return Status::InvalidArgument(
        "Insert: data object id " + std::to_string(object.id) +
        " is already live (delete it first, or use a fresh id)");
  }
  CellStore::MutationOptions mut;
  mut.compact_dead_fraction = options_.compact_dead_fraction;
  SPQ_ASSIGN_OR_RETURN(auto store, snap->store->WithInsert(object, mut));
  data_locator_.emplace(object.id, object.pos);
  PublishStore(std::move(store));
  return Status::OK();
}

Status SpqEngine::Delete(ObjectId id) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  const std::shared_ptr<const StoreSnapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before Delete()");
  }
  EnsureLocatorLocked();
  const auto it = data_locator_.find(id);
  if (it == data_locator_.end()) {
    return Status::NotFound("Delete: no live data object with id " +
                            std::to_string(id));
  }
  // The locator pins the id->cell routing (the store's delta logs are
  // per-cell); CellOf clamps exactly as the build map phase did, so an
  // out-of-bounds insert is deleted from the same edge cell it landed in.
  const geo::CellId cell = snap->store->grid().CellOf(it->second);
  CellStore::MutationOptions mut;
  mut.compact_dead_fraction = options_.compact_dead_fraction;
  SPQ_ASSIGN_OR_RETURN(auto store, snap->store->WithDelete(id, cell, mut));
  data_locator_.erase(it);
  PublishStore(std::move(store));
  return Status::OK();
}

Status SpqEngine::CompactStore() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  const std::shared_ptr<const StoreSnapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before CompactStore()");
  }
  SPQ_ASSIGN_OR_RETURN(auto store, snap->store->Compacted());
  PublishStore(std::move(store));
  return Status::OK();
}

StatusOr<uint64_t> SpqEngine::CheckpointStore(dfs::MiniDfs& dfs,
                                              const std::string& name) const {
  auto snap = snapshot();
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before CheckpointStore()");
  }
  SPQ_ASSIGN_OR_RETURN(CellStore::CheckpointInfo info,
                       snap->store->Checkpoint(dfs, name));
  return info.epoch;
}

Status SpqEngine::OpenStore(dfs::MiniDfs& dfs, const std::string& name) {
  SPQ_ASSIGN_OR_RETURN(auto store, CellStore::Recover(dfs, name, input_));
  // Same publication/locator discipline as BuildStore: a recovered store
  // holds the construction-time dataset, so prior mutations are gone.
  std::lock_guard<std::mutex> lock(mutate_mu_);
  data_locator_.clear();
  locator_ready_ = false;
  PublishStore(std::move(store));
  return Status::OK();
}

StatusOr<SpqResult> SpqEngine::Query(const core::Query& query,
                                     Algorithm algo) const {
  SPQ_RETURN_NOT_OK(ValidateQuery(query));
  TRACE_SPAN("query.warm");
  Stopwatch watch;
  // Pin the current generation for the whole run: a concurrent
  // BuildStore/OpenStore swap cannot pull the store out from under us.
  std::shared_ptr<const StoreSnapshot> snap;
  {
    TRACE_SPAN("query.snapshot_pin");
    snap = snapshot();
  }
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before Query()");
  }
  const CellStore& store = *snap->store;
  if (query.radius > store.max_radius()) {
    // The max-radius contract, loudly: the store's grid (and its Lemma-1
    // duplication geometry) was sized for the build radius, so this query
    // cannot be answered from the warm path. Execute() is const and works
    // off the engine's immutable flattened input — the fallback touches
    // no snapshot-mutable state, so concurrent oversized queries are safe.
    EngineRegistryMetrics::Get().cold_fallbacks.Increment();
    static LogRateLimiter limiter(kColdFallbackWarnEveryN);
    uint64_t suppressed = 0;
    if (limiter.ShouldLog(&suppressed)) {
      SPQ_LOG_WARN << "Query radius " << query.radius
                   << " exceeds the store build radius " << store.max_radius()
                   << "; falling back to the cold single-shot path ("
                   << suppressed << " similar warnings suppressed; every "
                   << "occurrence counts in spq.query.cold_fallbacks)";
    }
    // No grid override: the store grid was sized for the build radius;
    // the cold path sizes its own grid for this (larger) radius.
    auto result = Execute(query, algo);
    if (result.ok()) {
      result->info.cold_fallback = true;
      MaybeLogSlowQuery(options_, "cold-fallback query", algo,
                        watch.ElapsedMillis(), result->info.job);
    }
    return result;
  }

  SPQ_ASSIGN_OR_RETURN(
      auto output,
      RunWarmQuery(store, snap->data_cells, algo, query,
                   options_.keyword_prefilter, feature_input_,
                   feature_postings_, *warm_pool_));
  SpqResult result =
      MakeSpqResult(query, algo, store.grid().nx(), std::move(output));
  result.info.warm_path = true;
  EngineRegistryMetrics::Get().warm_query_ns.Record(watch.ElapsedNanos());
  MaybeLogSlowQuery(options_, "warm query", algo, watch.ElapsedMillis(),
                    result.info.job);
  return result;
}

StatusOr<SpqBatchResult> SpqEngine::QueryBatch(
    const std::vector<core::Query>& queries, Algorithm algo) const {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  TRACE_SPAN("query.warm_batch");
  Stopwatch watch;
  std::shared_ptr<const StoreSnapshot> snap;
  {
    TRACE_SPAN("query.snapshot_pin");
    snap = snapshot();
  }
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "no resident CellStore: call BuildStore() before QueryBatch()");
  }
  const CellStore& store = *snap->store;
  double max_radius = 0.0;
  for (const core::Query& query : queries) {
    SPQ_RETURN_NOT_OK(ValidateQuery(query));
    max_radius = std::max(max_radius, query.radius);
  }
  if (max_radius > store.max_radius()) {
    EngineRegistryMetrics::Get().cold_fallbacks.Increment();
    static LogRateLimiter limiter(kColdFallbackWarnEveryN);
    uint64_t suppressed = 0;
    if (limiter.ShouldLog(&suppressed)) {
      SPQ_LOG_WARN << "QueryBatch max radius " << max_radius
                   << " exceeds the store build radius " << store.max_radius()
                   << "; falling back to the cold single-shot path ("
                   << suppressed << " similar warnings suppressed; every "
                   << "occurrence counts in spq.query.cold_fallbacks)";
    }
    // One cold job per query; as in Query(), each sizes its own grid.
    SpqBatchResult result;
    result.per_query.reserve(queries.size());
    for (const core::Query& query : queries) {
      SPQ_ASSIGN_OR_RETURN(SpqResult single, Execute(query, algo));
      result.per_query.push_back(std::move(single.entries));
      AddJobStats(single.info.job, result.job);
    }
    result.cold_fallback = true;
    MaybeLogSlowQuery(options_, "cold-fallback batch", algo,
                      watch.ElapsedMillis(), result.job);
    return result;
  }

  SPQ_ASSIGN_OR_RETURN(
      auto output,
      RunWarmBatch(store, algo, queries, options_.keyword_prefilter,
                   feature_input_, feature_postings_, *warm_pool_));
  SpqBatchResult result = MakeBatchResult(queries, std::move(output));
  result.warm_path = true;
  EngineRegistryMetrics::Get().warm_batch_ns.Record(watch.ElapsedNanos());
  MaybeLogSlowQuery(options_, "warm batch", algo, watch.ElapsedMillis(),
                    result.job);
  return result;
}

metrics::RegistrySnapshot SpqEngine::MetricsSnapshot() const {
  return metrics::MetricsRegistry::Global().Snapshot();
}

void SpqEngine::DumpMetrics(std::ostream& os) const {
  metrics::MetricsRegistry::Global().DumpPrometheus(os);
}

}  // namespace spq::core
