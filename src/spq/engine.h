#ifndef SPQ_SPQ_ENGINE_H_
#define SPQ_SPQ_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/statusor.h"
#include "index/inverted_index.h"
#include "mapreduce/job.h"
#include "spq/algorithms.h"
#include "spq/shuffle_types.h"
#include "spq/types.h"

namespace spq {
class ThreadPool;  // common/thread_pool.h — the engine's warm worker pool
}

namespace spq::dfs {
class MiniDfs;  // dfs/mini_dfs.h — checkpoint/recovery storage
}

namespace spq::core {

class CellStore;  // cell_store.h — the resident serving layer

/// How grid cells map to reduce tasks when there are fewer reducers than
/// cells.
enum class PartitionerKind {
  /// The paper's scheme: cell % R.
  kModulo,
  /// Extension (see balanced_partitioner.h): greedy LPT over per-cell
  /// cost estimates, countering the clustered-data reducer imbalance the
  /// paper reports in Section 7.2.4. Falls back to modulo when R >= cells.
  kBalanced,
};

/// \brief Knobs of the admission/batching front door (spq/serving.h).
/// Concurrent Query() callers are coalesced into shared QueryBatch calls:
/// a batch closes when it reaches `max_batch` queries or when its oldest
/// query has waited `max_wait_ms` — whichever comes first — so a lone
/// caller pays at most the wait budget and a burst shares one feature-side
/// map pass and one dispatch across the whole batch.
struct ServingOptions {
  /// Queries per coalesced batch before it closes. The door clamps it to
  /// [1, 4096]: it keeps one batch-size counter per size.
  uint32_t max_batch = 16;
  /// Latency budget: a non-full batch closes once its oldest admitted
  /// query has waited this long. 0 disables coalescing-by-time (a batch
  /// closes as soon as the door's one executor is free to take what is
  /// queued). The door clamps it to [0, 60000] ms (one minute), NaN
  /// counting as 0: the deadline is an integer clock duration, which +inf
  /// or 1e300 ms would overflow.
  double max_wait_ms = 2.0;
  /// Bounded admission queue: queries beyond this many waiting are
  /// rejected with Unavailable (counted in ServingStats::rejected).
  /// 0 rejects every submission — useful to test backpressure.
  uint32_t queue_capacity = 256;
};

/// \brief Tunables of a query execution on the simulated cluster.
///
/// The MapReduce knobs — num_map_tasks, num_reduce_tasks, partitioner,
/// faults, max_task_attempts and spill_dir — shape only the cold jobs
/// (Execute and the cold fallback) and the store build.
/// Warm Query()/QueryBatch() run no MapReduce job: they map the features
/// their query terms' postings reach and group them in process on the
/// engine's num_workers-thread pool (see RunWarmQuery in cell_store.h).
///
/// The shuffle has no knob: every SPQ job runs the flat-arena pipeline
/// (RunJob in mapreduce/runtime.h). Nor does the reduce-side join: every
/// group, cold or warm, probes its cell's CellGridIndex and tests each
/// candidate's distance as the probe reaches it (reduce_core.h).
struct EngineOptions {
  /// Cells per side of the query-time grid (the paper's "grid size";
  /// 50 means a 50x50 grid). 0 = choose automatically via AdviseGridSize.
  uint32_t grid_size = 50;
  /// Simulated cluster parallelism (concurrent task slots).
  /// 0 = hardware concurrency.
  uint32_t num_workers = 0;
  /// Number of map tasks. 0 = 4 * workers.
  uint32_t num_map_tasks = 0;
  /// Number of reduce tasks R. 0 = one per grid cell (the paper's setting).
  uint32_t num_reduce_tasks = 0;
  /// Task fault injection (off by default).
  mapreduce::FaultSpec faults;
  int max_task_attempts = 4;
  /// Map-side keyword prefilter (Algorithm 1 line 9). Disable only for
  /// the ablation study — results are identical either way. Each path has
  /// one test of x.W ∩ q.W ≠ ∅: the cold mapper merges the two sorted term
  /// lists (text::SortedIntersectionSize), and on the warm path the
  /// engine's term postings drive the map — with the prefilter on, Query()
  /// and QueryBatch() visit only the features that share a term with q.W;
  /// with it off, the same loop visits every feature (RunWarmQuery in
  /// cell_store.h).
  bool keyword_prefilter = true;
  /// When non-empty, the shuffle runs out-of-core: map-output segments are
  /// spilled to files under this directory (see JobConfig::spill_dir).
  std::string spill_dir;
  /// Cell-to-reducer assignment policy (only matters when
  /// num_reduce_tasks < grid cells).
  PartitionerKind partitioner = PartitionerKind::kModulo;
  /// Mutation-layer compaction threshold: after an Insert()/Delete(), the
  /// touched cell is compacted (dead rows dropped, index rebuilt fresh)
  /// once its tombstoned fraction reaches this share of its physical rows.
  /// Values above 1.0 disable automatic compaction — dead rows then
  /// accumulate until an explicit CompactStore() (the masked rows still
  /// never influence results; see cell_store.h invariant M2).
  double compact_dead_fraction = 0.3;
  /// Admission/batching front door knobs (used by SpqFrontDoor; plain
  /// Query()/QueryBatch() calls ignore them).
  ServingOptions serving;
  /// Slow-query log threshold: a Query()/QueryBatch() call (warm or
  /// cold-fallback) slower than this many milliseconds logs a one-line
  /// per-phase breakdown (map/reduce seconds, shuffle bytes, groups) at
  /// WARN and bumps the `spq.query.slow` counter. <= 0 disables the log.
  /// Purely observational — never affects results or SPQ counters.
  double slow_query_ms = 250.0;
};

/// \brief One immutable generation of the warm serving state: the
/// resident CellStore plus its count of cells holding live data.
/// Published RCU-style: the engine swaps a `shared_ptr<const
/// StoreSnapshot>` on BuildStore/OpenStore and every mutation, and every
/// warm query pins the snapshot it starts on for its whole run — a
/// rebuild under traffic retires the old generation only after the last
/// in-flight query drops its reference.
struct StoreSnapshot {
  StoreSnapshot();
  ~StoreSnapshot();
  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

  /// The resident store. Const: all serving entry points (Serve,
  /// Checkpoint, accessors) are const; first-touch materialization is an
  /// internally latched cache fill (see cell_store.h).
  std::unique_ptr<const CellStore> store;
  /// Cells with live data rows: the warm route counts a reduce group for
  /// each one no feature reaches, as the cold job does.
  uint32_t data_cells = 0;
};

/// \brief Derived, SPQ-specific measurements of one query execution,
/// assembled from the job counters. These are the quantities behind the
/// paper's explanations: how many features were shuffled (after pruning +
/// duplication), how many the reducers actually examined (the early
/// termination effect), and the realized duplication factor.
struct SpqRunInfo {
  Algorithm algorithm = Algorithm::kPSPQ;
  uint32_t grid_size = 0;
  uint32_t num_reduce_tasks = 0;

  uint64_t features_kept = 0;        ///< map-side survivors of the q.W filter
  uint64_t features_pruned = 0;      ///< dropped: no common keyword with q.W
  uint64_t feature_duplicates = 0;   ///< extra copies created per Lemma 1
  uint64_t features_examined = 0;    ///< actually consumed by reducers
  uint64_t pairs_tested = 0;         ///< data-feature distance evaluations
  uint64_t early_terminations = 0;   ///< reduce groups that stopped early
  uint64_t reduce_groups = 0;
  /// Always 0, both (the warm per-cell keyword screen they counted is
  /// deleted); kept only because perfbench/main.cc reads them.
  uint64_t cells_pruned = 0;
  uint64_t signature_checks = 0;

  /// True when the run was served from the resident CellStore by the
  /// direct warm route (cell_store.h). All counters above are identical to
  /// the cold path's; the job stats describe the route: only features were
  /// mapped, shuffle_bytes is 0 and num_reduce_tasks counts its slots.
  bool warm_path = false;
  /// True when Query()/QueryBatch() had to fall back to the cold
  /// single-shot path because the radius exceeded the store's build
  /// radius.
  bool cold_fallback = false;

  mapreduce::JobStats job;

  /// Realized duplication factor: (kept + duplicates) / kept.
  double MeasuredDuplicationFactor() const {
    if (features_kept == 0) return 1.0;
    return static_cast<double>(features_kept + feature_duplicates) /
           static_cast<double>(features_kept);
  }

  /// Fraction of shuffled feature copies the reducers actually read —
  /// the direct measurement of the early-termination benefit.
  double FeatureExaminationRatio() const {
    const uint64_t shuffled = features_kept + feature_duplicates;
    if (shuffled == 0) return 0.0;
    return static_cast<double>(features_examined) /
           static_cast<double>(shuffled);
  }
};

/// \brief Result of one query: the global top-k plus run measurements.
struct SpqResult {
  std::vector<ResultEntry> entries;
  SpqRunInfo info;
};

/// \brief Result of a batched execution: per-query top-k lists (indexed
/// like the input batch) plus the stats of the run that served them — the
/// warm route's, or on a cold fallback the per-query jobs' (counters
/// merged, scalar stats summed).
struct SpqBatchResult {
  std::vector<std::vector<ResultEntry>> per_query;
  mapreduce::JobStats job;
  bool warm_path = false;     ///< served from the resident CellStore
  bool cold_fallback = false; ///< radius exceeded the store's build radius
};

/// \brief Public facade: evaluates spatial preference queries using
/// keywords over a Dataset on the simulated MapReduce cluster.
///
/// Two serving modes:
///
///   Cold (single-shot, the paper's model): each Execute() builds the
///   query-time grid and runs one full MapReduce job — the entire dataset
///   is re-mapped and re-shuffled per call.
///
///   Warm (resident): BuildStore() runs the dataset-side map/shuffle ONCE
///   into a CellStore of per-cell flat-arena partitions (cell_store.h);
///   Query()/QueryBatch() then map only the features that share a term
///   with the query (found through a term postings index the engine builds
///   once over F), group them by cell in process and join each group
///   against the resident partition and its cached spatial index — no
///   MapReduce job. Results and SPQ
///   counters are bit-identical to the cold path (store_equivalence
///   tests); a query whose radius exceeds the store's build radius falls
///   back to the cold path, loudly (see SpqRunInfo::cold_fallback).
///
/// Usage:
///   SpqEngine engine(dataset, options);
///   engine.BuildStore(/*max_radius=*/0.05);
///   auto result = engine.Query(query, Algorithm::kESPQSco);
///   for (const auto& e : result->entries) { ... }
///
/// The engine flattens the dataset once (the map input "files") and
/// builds the feature postings once; features never change after
/// construction (Insert/Delete touch data objects only).
///
/// Thread safety: every serving entry point — Execute, Query, QueryBatch,
/// CheckpointStore — is const and safe to call from
/// any number of threads concurrently. Warm queries carry no cross-query
/// mutable state: per-query scratch lives in the reduce tasks
/// (reduce_core::QueryScratch) and first-touch cell materialization is
/// latched inside the store (cell_store.h). Each warm call pins the
/// current StoreSnapshot for its whole run, so BuildStore()/OpenStore()
/// may swap in a new store generation WHILE queries are in flight: the
/// swap is an atomic shared_ptr publication, in-flight queries finish on
/// the generation they started on, and the old store is destroyed when
/// its last pin drops. Mutations — Insert, Delete, CompactStore — are
/// serialized on an internal mutex and publish through the same RCU
/// path, so they are safe from any thread concurrently with queries and
/// checkpoints (a checkpoint racing a mutation either persists the
/// pre-mutation generation it pinned or fails FailedPrecondition — never
/// a torn state). The only non-concurrent calls are the engine's
/// construction/destruction and overlapping BuildStore/OpenStore calls
/// racing EACH OTHER (last publication wins; serialize them if the
/// winner matters; both serialize against mutations internally). Warm
/// queries share one engine-owned worker pool, so concurrent queries
/// contend for the same threads rather than multiplying them.
class SpqEngine {
 public:
  /// The dataset is copied into the engine (the engine owns its "HDFS").
  explicit SpqEngine(Dataset dataset, EngineOptions options = {});
  ~SpqEngine();

  SpqEngine(const SpqEngine&) = delete;
  SpqEngine& operator=(const SpqEngine&) = delete;

  /// Evaluates `query` with `algo`. Grid size / cluster shape come from
  /// the engine options unless overridden via `grid_size_override` (> 0).
  /// (The query type is namespace-qualified throughout this class because
  /// the warm-path entry point below is named Query.)
  StatusOr<SpqResult> Execute(const core::Query& query, Algorithm algo,
                              uint32_t grid_size_override = 0) const;

  /// Builds (or rebuilds) the resident CellStore for queries with radius
  /// <= `max_radius`: one dataset-side map/shuffle job whose result every
  /// subsequent Query()/QueryBatch() joins against. The store's grid is
  /// fixed at build time — `grid_size_override` (> 0) beats
  /// options().grid_size; 0 for both sizes it from `max_radius` via
  /// AdviseGridSize.
  Status BuildStore(double max_radius, uint32_t grid_size_override = 0);

  /// Warm-path evaluation against the resident store (requires a prior
  /// BuildStore()). Radius > the store's build radius falls back to the
  /// cold path with a warning; the result then has cold_fallback set.
  /// The fallback runs Execute() — a snapshot-independent cold job over
  /// the engine's immutable flattened input — so concurrent oversized
  /// queries never touch store-mutable state and stay safe alongside
  /// warm traffic, checkpoints and store swaps.
  StatusOr<SpqResult> Query(const core::Query& query, Algorithm algo) const;

  /// Batched warm-path twin of Query(): one feature-side pass, every
  /// (cell, query) group joined against the cell's shared resident
  /// partition and cached index. Queries may differ in k, radius and
  /// keywords; results come back in batch order.
  ///
  /// If ANY radius exceeds the store's build radius, the whole batch falls
  /// back to the cold path: Execute() runs once per query (same
  /// concurrency contract as Query()'s fallback). The result then has
  /// cold_fallback set, its job counters are the queries' counters merged
  /// and its scalar job stats their sums (the per-task vectors stay
  /// empty), and spq.query.cold_fallbacks counts the call once.
  StatusOr<SpqBatchResult> QueryBatch(const std::vector<core::Query>& queries,
                                      Algorithm algo) const;

  /// Inserts one data object into the resident store and publishes the
  /// mutated generation RCU-style: in-flight queries finish on the
  /// snapshot they pinned; queries admitted afterwards see the insert.
  /// Warm results over the mutated store are bit-identical to a fresh
  /// BuildStore() over the logically-equivalent dataset (the survivors in
  /// original order with the inserts appended) — see cell_store.h
  /// invariant M2 and mutation_equivalence_test.cc. The object's id must
  /// not collide with a live data object (InvalidArgument); its position
  /// must be finite. Points outside the build bounds land in the clamped
  /// edge cell, exactly where a rebuild would place them. The cell is
  /// materialized first, as a query's first touch would (on a recovered
  /// store: restored from its checkpoint, or rebuilt), and its error is
  /// returned when that fails (cell_store.h invariant M3).
  ///
  /// Mutations are serialized internally (safe from any thread, including
  /// concurrently with queries); BuildStore()/OpenStore() discard all
  /// applied mutations and reset the logical dataset to the
  /// construction-time dataset.
  Status Insert(const DataObject& object);

  /// Deletes the live data object with `id` (NotFound when absent):
  /// tombstones its row in a copy of its materialized cell and publishes
  /// the mutated generation. Same materialization, serialization,
  /// publication and equivalence contract as Insert(). The cell compacts
  /// automatically when its dead fraction reaches
  /// options().compact_dead_fraction.
  Status Delete(ObjectId id);

  /// Compacts every cell that carries tombstones, regardless of the dead
  /// fraction, and publishes the result. Purely physical: results and
  /// counters are unchanged (invariant M4). The store stays logically
  /// mutated — CheckpointStore() still refuses it (invariant M5).
  Status CompactStore();

  /// Persists the resident store under `<name>/` on `dfs`: checksummed
  /// per-cell images, an atomic manifest, and WAL begin/commit records
  /// (CellStore::Checkpoint — its class comment states the durability
  /// invariants). Requires a prior BuildStore()/OpenStore(). Returns the
  /// committed epoch. Const and safe under live query traffic (it pins
  /// the current snapshot like a query does); concurrent checkpoints to
  /// the SAME name must be serialized externally.
  StatusOr<uint64_t> CheckpointStore(dfs::MiniDfs& dfs,
                                     const std::string& name) const;

  /// Opens the resident store from the newest committed checkpoint under
  /// `<name>/` and publishes it exactly as BuildStore() does — warm
  /// queries behave bit-identically to a store built in this process.
  /// Only the WAL tail and manifest are read eagerly; each cell's
  /// partition loads (verified) at its first query touch.
  /// NotFound when no committed checkpoint is usable — callers typically
  /// fall back to BuildStore(); InvalidArgument when the checkpoint was
  /// taken over a different dataset.
  Status OpenStore(dfs::MiniDfs& dfs, const std::string& name);

  bool has_store() const { return snapshot() != nullptr; }
  /// Pins and returns the current warm serving generation (null before
  /// BuildStore()). Hold the shared_ptr for as long as the store is in
  /// use — it is the RCU read-side pin. The pin is one uncontended
  /// mutex-protected shared_ptr copy: libstdc++'s
  /// std::atomic<std::shared_ptr> spins on an internal lock bit anyway
  /// (and its load() unlocks with a relaxed RMW, which leaves the plain
  /// control-block pointer read racing with the next publisher's write
  /// under the C++ memory model — ThreadSanitizer rightly flags it), so
  /// an explicit mutex costs the same and is race-free by construction.
  std::shared_ptr<const StoreSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }
  /// The resident store, or nullptr before BuildStore(). Convenience for
  /// single-threaded inspection: the raw pointer is valid only until the
  /// next BuildStore()/OpenStore() — concurrent readers must use
  /// snapshot() and keep the pin.
  const CellStore* store() const {
    auto snap = snapshot();
    return snap ? snap->store.get() : nullptr;
  }

  const Dataset& dataset() const { return dataset_; }
  const EngineOptions& options() const { return options_; }

  /// Point-in-time copy of the process-wide metrics registry — the "what
  /// is warm p99 right now" surface (e.g.
  /// `MetricsSnapshot().HistogramValue("spq.query.warm_ns").Percentile(0.99)`).
  /// The registry is process-global: engines sharing a process share it.
  /// See common/metrics.h for the naming scheme and cell_store.h for the
  /// full metric/span inventory.
  metrics::RegistrySnapshot MetricsSnapshot() const;
  /// Prometheus text exposition dump of the same registry.
  void DumpMetrics(std::ostream& os) const;

 private:
  /// Shared cluster-shape derivation (workers / map / reduce task counts,
  /// faults, spill) of every job this engine starts — the
  /// cold and build jobs cannot drift apart.
  mapreduce::JobConfig MakeClusterConfig(uint32_t default_reduce_tasks,
                                         std::string job_name) const;
  /// Publishes `store` as the current generation (write side of
  /// snapshot()'s pin), with its live-data cell count. Callers hold
  /// mutate_mu_, so publishes are serialized; snapshot_mu_ is taken only
  /// for the pointer swap.
  void PublishStore(std::unique_ptr<const CellStore> store);
  /// Builds data_locator_ from the CURRENT logical dataset if it is not
  /// ready. Caller holds mutate_mu_.
  void EnsureLocatorLocked() const;

  Dataset dataset_;
  EngineOptions options_;
  std::vector<ShuffleObject> input_;  // flattened O ∪ F
  /// The warm feature-side input: borrowed aliases of input_'s feature
  /// tail (no keyword list is cloned). Grid-independent, so it is built
  /// once at construction and shared by every store generation.
  std::vector<ShuffleObject> feature_input_;
  /// Term → ascending feature-index postings over dataset_.features (the
  /// indices of feature_input_), built once here: mutations touch data
  /// objects only (cell_store.h invariant M1), so it never changes. The
  /// warm map visits only the features its query terms' postings reach.
  index::InvertedIndex feature_postings_;
  /// Current warm serving generation; see StoreSnapshot. Readers pin via
  /// snapshot(); BuildStore/OpenStore/mutations publish via
  /// PublishStore(). snapshot_mu_ guards ONLY the pointer swap/copy —
  /// never held across a query or a build.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const StoreSnapshot> snapshot_;
  /// One persistent worker pool shared by every warm query this engine
  /// answers: the warm route's map splits and reduce slots run on it, and
  /// concurrent queries contend for it instead of spawning threads.
  std::unique_ptr<ThreadPool> warm_pool_;
  /// Serializes Insert/Delete/CompactStore against each other and against
  /// BuildStore/OpenStore's locator invalidation. Never held while a
  /// query runs — readers go through the lock-free snapshot() pin.
  mutable std::mutex mutate_mu_;
  /// id -> position of every LIVE data object in the current logical
  /// dataset; the Delete() routing table (WithDelete needs the cell) and
  /// the Insert() duplicate-id check. Built lazily on the first mutation
  /// (a full dataset_.data scan), maintained incrementally afterwards,
  /// invalidated by BuildStore/OpenStore (which reset the logical
  /// dataset). Guarded by mutate_mu_.
  mutable std::unordered_map<ObjectId, geo::Point> data_locator_;
  mutable bool locator_ready_ = false;
};

/// Validates a query: k >= 1, radius >= 0 and finite. Empty q.W is legal
/// (the result is simply empty — no feature can have non-zero Jaccard).
Status ValidateQuery(const Query& query);

}  // namespace spq::core

#endif  // SPQ_SPQ_ENGINE_H_
