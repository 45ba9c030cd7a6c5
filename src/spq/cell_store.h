#ifndef SPQ_SPQ_CELL_STORE_H_
#define SPQ_SPQ_CELL_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "dfs/mini_dfs.h"
#include "geo/grid.h"
#include "index/inverted_index.h"
#include "mapreduce/job.h"
#include "mapreduce/merge.h"
#include "mapreduce/runtime.h"
#include "spq/algorithms.h"
#include "spq/reduce_core.h"
#include "spq/shuffle_types.h"
#include "spq/types.h"

namespace spq::core {

/// \brief Resident serving layer over the paper's grid partitioning of the
/// object set O.
///
/// The data side of every SPQ job is query-independent for a fixed grid:
/// each data object belongs to exactly one cell and carries no per-query
/// state. Before this layer existed, every Engine::Run re-mapped and
/// re-shuffled the entire dataset per query; a CellStore runs that
/// pipeline ONCE — the standard map/shuffle job, flat-arena segments and
/// all — and persists the result as one resident partition per cell:
///
///   - `segment`: the cell's records in the persisted flat-arena form
///     (FlatSegment layout from merge.h — key rows / payloads / TermId
///     pool), exactly as a reduce task would have received them;
///   - `data` + `index`: the serving form, materialized lazily from the
///     segment at the cell's first query touch — the SoA CellData the
///     reduce cores join against plus one cached CellGridIndex that is
///     maintained incrementally (CellGridIndex::Sync) instead of being
///     rebuilt per reduce group.
///
/// Warm queries then skip the MapReduce job altogether (see RunWarmQuery /
/// RunWarmBatch): the features that share a term with the query, found
/// through the engine's term postings, are mapped and grouped by cell in
/// process, and each group joins against the resident partition of its
/// cell — the data side is never mapped or shuffled again. Per-query state
/// (scores, report bitmaps) lives in the caller's
/// reduce_core::QueryScratch, never in the store.
///
/// The store is built for a maximum radius class: the grid geometry is
/// chosen for `max_radius`, and SpqEngine::Query refuses (loudly, via the
/// cold-path fallback) to serve a larger radius from the store.
///
/// Thread-safety contract (any number of concurrent jobs):
///
///   - SNAPSHOT-IMMUTABLE: grid geometry, per-cell record counts, build
///     stats, checkpoint metadata — and, once a cell's `ready` flag is set,
///     that cell's CellData + fully built CellGridIndex. Concurrent
///     queries read all of it lock-free; the reduce cores access it
///     through a const FrozenCellRef and write only into their own
///     QueryScratch.
///   - FIRST-TOUCH MUTABLE, latched: lazy materialization (restore from
///     checkpoint / rebuild / decode + index build) runs under the cell's
///     private mutex with double-checked `ready` (release-published,
///     acquire-read), so cold cells stay cheap, concurrent first touches
///     never race, and a failed restore retries on the next touch.
///   - Serve() and Checkpoint() are const and safe to call concurrently
///     with each other and themselves (Checkpoint takes a cell's latch
///     only while the cell is not yet ready). Concurrent Checkpoints to
///     the SAME store name must still be serialized externally — they
///     would race on the WAL epoch. Counters crossing threads
///     (cells_restored/cells_rebuilt) are std::atomic, relaxed: they are
///     monotonic tallies with no ordering contract against the data they
///     count — readers only ever observe a value ≤ the true total.
///   - Build()/Recover() construct a store privately; publication to other
///     threads is the caller's job (the engine swaps a
///     shared_ptr<const StoreSnapshot> atomically — see engine.h).
///
/// Durability & recovery invariants (Checkpoint / Recover):
///
///  1. Commit rule. A checkpoint epoch E is committed iff BOTH its
///     kCheckpointCommit(E) WAL record decodes intact AND its MANIFEST
///     passes the CRC + structure check. The commit record is written
///     strictly after every cell file and the manifest, so a committed
///     epoch's files are complete by construction; recovery serves the
///     newest committed epoch and ignores everything else (partial
///     epochs from crashes are dead weight until the next checkpoint's
///     GC removes them).
///  2. Torn WAL frames are holes, not poison. Replay verifies every
///     frame (magic/length/CRC) and skips, loudly, any that fail — a
///     torn frame can only be an append that was never acknowledged
///     (each record is one write-once replicated DFS file, durable
///     before the writer proceeds), so no committed state references
///     it, and records appended after the hole (a re-checkpoint taken
///     after recovering from that crash) stay visible. A crash
///     mid-append loses at most the record being written.
///  3. Cell-granular lazy recovery. Recover() reads only the WAL and one
///     manifest — O(cells) metadata, no cell payloads. Each cell's
///     partition is re-read from its checkpoint file at first query
///     touch (Serve), verified against the manifest's per-cell byte size
///     and CRC-32C and the flat-segment structure checks, and then
///     materialized exactly like a built partition. Recovery cost is
///     proportional to the cells a query touches, not store size.
///  4. Verified or rebuilt, never garbage. A cell file that fails
///     verification (every DFS replica corrupt, length drift) is loudly
///     logged, counted (cells_rebuilt()), and rebuilt from the attached
///     dataset by replaying the build's deterministic per-cell layout —
///     byte-identical to the checkpointed image. Warm results and SPQ
///     counters after any crash/recover/corrupt sequence are
///     bit-identical to a never-crashed store (durability_test pins
///     this across algorithms and spill/no-spill builds).
///  5. Re-checkpoint safety. Checkpoint() derives epoch E+1 from the WAL
///     (E = newest epoch mentioned), so write-once DFS files never
///     collide; after commit it garbage-collects epochs < E+1.
///
/// Mutation layer (WithInsert / WithDelete / Compacted): the store is
/// structurally immutable — a mutation never changes an existing CellStore,
/// it derives a NEW generation that shares every untouched cell's Partition
/// (cell-level copy-on-write over shared_ptr) and replaces exactly the
/// mutated cell. Generations publish through the engine's RCU snapshot
/// swap, so in-flight queries keep serving their pinned generation
/// untouched. Five invariants govern the layer:
///
///  M1. Single placement. A data object lives in exactly one cell
///      (grid.CellOf clamps out-of-bounds inserts onto an edge cell, the
///      same rule the build mapper applies). Lemma-1 duplication is a
///      FEATURE-side, per-query concern and the resident store is
///      data-only, so data mutations never touch duplication geometry or
///      anything keyword-related.
///  M2. Rebuild bit-identity. The logically-equivalent dataset of a
///      mutated store is "surviving base rows in original dataset order,
///      then inserts in insert order". Inserts APPEND (to the serving
///      arrays of a materialized cell, or to the cell's delta log
///      otherwise) and deletes TOMBSTONE in place, so a cell's physical
///      row order always equals the order a fresh BuildStore() over the
///      equivalent dataset would produce. Tombstoned rows are masked out
///      of the reduce cores' per-query scratch before any pair is counted
///      (FrozenCellRef::DeadRows) — provably equivalent to physical
///      absence for results and every counter over a given candidate
///      set — and a mutation on a materialized cell rebuilds its mini-grid
///      index with the dead rows masked OUT of the bucket geometry
///      (CellGridIndex's dead-masked Build), so indexed probes enumerate
///      exactly the candidate supersets a fresh build over the surviving
///      rows enumerates. pairs_tested counts those supersets: an
///      incremental pending-list append or a geometry still spanning dead
///      rows would drift the counter even though results stay correct,
///      which is why the serving index is rebuilt fresh per mutation.
///  M3. Delta logs fold at first touch. A mutation against a cell that is
///      not materialized (never served, or recovered-lazy) costs O(delta):
///      inserts append to `delta_inserts`, deletes of base rows append to
///      `delta_tombstones`, and a delete of a still-pending insert simply
///      erases it. Tombstones therefore always name base rows, each at
///      most once — Serve() folds base + delta into the serving form under
///      the cell latch, exactly once.
///  M4. Compaction = fresh layout. When a cell's dead fraction reaches
///      MutationOptions::compact_dead_fraction (or on Compacted()), the
///      partition is rewritten live-rows-only with a freshly built index —
///      byte-for-byte the layout a from-scratch build of the equivalent
///      dataset gives that cell, so compaction is invisible to M2.
///  M5. Checkpoint refuses mutated stores. A mutated generation's
///      persisted segments are stale by construction, and Recover()
///      validates against (and rebuilds from) the ORIGINAL build dataset;
///      Checkpoint() therefore fails loudly (FailedPrecondition) until
///      incremental checkpoints land (ROADMAP open item) — silent stale
///      persistence is never an option.
class CellStore {
 public:
  /// One cell's resident partition (see class comment). Everything but
  /// `segment.bytes`, `data` and `index` is immutable after Build/Recover;
  /// those three change exactly once — under `latch`, before `ready` is
  /// released — and are frozen from then on.
  ///
  /// The mutation layer NEVER mutates a partition reachable from a
  /// published store: WithInsert/WithDelete copy the partition (under its
  /// latch when unready), apply the op to the private copy, and install it
  /// in the next generation's cell vector. A ready partition's serving
  /// arrays may therefore differ from `segment` (appended rows, dead
  /// rows); `segment.num_records` always counts the PERSISTED base rows.
  struct Partition {
    mapreduce::FlatSegment segment;    ///< persisted form; bytes released
                                       ///< once materialized
    reduce_core::CellData data;        ///< serving form (SoA), frozen
    reduce_core::CellGridIndex index;  ///< built eagerly with `data`, frozen
    uint64_t record_count = 0;  ///< physical serving rows (live + dead)
    uint64_t live_count = 0;    ///< rows not tombstoned
    /// Tombstone state of a materialized partition: byte mask parallel to
    /// `data` (empty ⇔ no deads) plus the dead indices the reduce cores
    /// mask out per query (order irrelevant).
    std::vector<uint8_t> dead;
    std::vector<uint32_t> dead_rows;
    /// Delta log of a NOT-yet-materialized partition (invariant M3),
    /// folded into the serving form at first Serve touch.
    std::vector<ShuffleObject> delta_inserts;
    std::vector<ObjectId> delta_tombstones;
    /// Fold-time compaction order (set when the dead fraction crossed the
    /// threshold while the partition was unready); `record_count` is
    /// already the post-compaction row count when this is set.
    bool compact_on_fold = false;
    /// Materialization gate: acquire-load true ⇒ data/index are complete
    /// and immutable. The mutex serializes the one-time materialization
    /// (std::once_flag semantics, but re-armable on failure).
    std::atomic<bool> ready{false};
    mutable std::mutex latch;
  };

  /// Builds the store by running the map/shuffle pipeline once over
  /// `input` (the flattened O ∪ F; feature records are skipped — they are
  /// per-query) on the simulated cluster described by `config`.
  static StatusOr<std::unique_ptr<CellStore>> Build(
      const std::vector<ShuffleObject>& input, const geo::UniformGrid& grid,
      double max_radius, const mapreduce::JobConfig& config);

  /// Crash-injection points for Checkpoint(), ordered along the write
  /// path. Each aborts the checkpoint exactly at its boundary (the "Mid"
  /// points additionally leave a deliberately torn artifact behind), so
  /// the crash-point matrix test can recover from every prefix.
  enum class CheckpointCrash {
    kNone,
    kMidWalBegin,    ///< torn kCheckpointBegin frame, nothing else
    kAfterWalBegin,  ///< begin record durable, no cell files yet
    kMidCells,       ///< half the cell files written, no manifest
    kAfterCells,     ///< all cell files written, no manifest
    kAfterManifest,  ///< manifest durable, commit record missing
    kMidWalCommit,   ///< torn kCheckpointCommit frame
  };

  struct CheckpointInfo {
    uint64_t epoch = 0;
    uint32_t cells_written = 0;   ///< non-empty cells persisted
    uint64_t bytes_written = 0;   ///< cell payload + manifest bytes
  };

  /// Persists the store under `<name>/` on `dfs`: one CRC-covered flat
  /// segment image per non-empty cell, an atomic checksummed manifest
  /// (format version, grid geometry, per-cell record counts / sizes /
  /// CRCs), and WAL begin/commit records bracketing the epoch. Works
  /// from any serving state: an untouched partition persists its segment
  /// bytes verbatim, a materialized one re-encodes its serving rows
  /// through the build's deterministic layout (bit-identical image), and
  /// a recovered-but-untouched one copies forward from the source
  /// checkpoint. See the class comment for the commit rule; `crash`
  /// injects a stop at one write-path boundary (Aborted).
  StatusOr<CheckpointInfo> Checkpoint(
      dfs::MiniDfs& dfs, const std::string& name,
      CheckpointCrash crash = CheckpointCrash::kNone) const;

  /// Recovers a store from the newest committed checkpoint under
  /// `<name>/`: replays the WAL tail and loads one manifest eagerly;
  /// cell partitions stay on the DFS until their first Serve (invariant
  /// 3). `rebuild_input` must be the same flattened dataset the store was
  /// built from (validated against the manifest's data-object count); it
  /// backs the per-cell corruption fallback (invariant 4). NotFound when
  /// no epoch satisfies the commit rule — including a manifest of another
  /// format version, or one whose cell count its payload cannot hold —
  /// and callers fall back to Build.
  static StatusOr<std::unique_ptr<CellStore>> Recover(
      dfs::MiniDfs& dfs, const std::string& name,
      const std::vector<ShuffleObject>& rebuild_input);

  CellStore(const CellStore&) = delete;
  CellStore& operator=(const CellStore&) = delete;

  /// Mutation knobs (one per derived generation; the engine fills them
  /// from EngineOptions).
  struct MutationOptions {
    /// Compact a cell (drop tombstoned rows, rebuild its index) once its
    /// dead fraction — dead rows over physical rows — reaches this value.
    /// Values above 1.0 disable automatic compaction (Compacted() still
    /// folds on demand).
    double compact_dead_fraction = 0.3;
  };

  /// Derives a new store generation with `object` appended to its cell
  /// (invariants M1–M4 above). The caller owns id uniqueness among live
  /// objects (the engine's locator enforces it) and publication of the
  /// returned generation; `this` is never modified and keeps serving.
  StatusOr<std::unique_ptr<CellStore>> WithInsert(
      const DataObject& object, const MutationOptions& options) const;

  /// Derives a new store generation with the live row of `id` tombstoned.
  /// `cell` is the object's single placement (the engine resolves it via
  /// its id→position locator + grid.CellOf). NotFound when no live row of
  /// that id exists in the cell.
  StatusOr<std::unique_ptr<CellStore>> WithDelete(
      ObjectId id, geo::CellId cell, const MutationOptions& options) const;

  /// Derives a new store generation with every tombstone-bearing cell
  /// compacted (materialized cells eagerly; unready cells at their first
  /// Serve touch, invariant M4). The generation remains `mutated()` — the
  /// logical dataset still differs from the build input, so invariant M5
  /// keeps checkpoints refused.
  StatusOr<std::unique_ptr<CellStore>> Compacted() const;

  /// True once any mutation generation separates this store from its
  /// build/recover dataset (never cleared — see invariant M5).
  bool mutated() const { return mutated_; }
  /// Mutation tallies, cumulative across the generation chain.
  uint64_t inserts_applied() const { return inserts_applied_; }
  uint64_t deletes_applied() const { return deletes_applied_; }
  uint64_t cells_compacted() const { return cells_compacted_; }
  /// Live (non-tombstoned) rows of one cell.
  uint64_t live_record_count(geo::CellId cell) const {
    return cells_[cell]->live_count;
  }

  const geo::UniformGrid& grid() const { return grid_; }
  double max_radius() const { return max_radius_; }
  uint32_t num_cells() const { return static_cast<uint32_t>(cells_.size()); }
  /// Logical (live) data objects: build count, plus inserts, minus
  /// deletes along the generation chain.
  uint64_t data_objects() const { return data_objects_; }
  /// Stats of the one-time build job (map/shuffle cost queries no longer
  /// pay).
  const mapreduce::JobStats& build_stats() const { return build_stats_; }
  /// Physical serving rows of one cell (live + tombstoned).
  uint64_t cell_record_count(geo::CellId cell) const {
    return cells_[cell]->record_count;
  }

  /// Serving access for one reduce group: materializes the partition on
  /// first touch (latched — see the thread-safety contract above) and
  /// returns it frozen. Safe for any number of concurrent callers; the
  /// returned partition stays owned by the store and is immutable.
  StatusOr<const Partition*> Serve(geo::CellId cell) const;

  /// True when this store was opened from a checkpoint (Recover).
  bool recovered() const { return checkpoint_epoch_ != 0; }
  /// Committed epoch this store serves from; 0 for built stores.
  uint64_t checkpoint_epoch() const { return checkpoint_epoch_; }
  /// Cells lazily re-read (and verified) from the checkpoint so far.
  /// Atomic: bumped by parallel reduce tasks on disjoint cells.
  uint64_t cells_restored() const {
    return cells_restored_.load(std::memory_order_relaxed);
  }
  /// Cells whose checkpoint image failed verification and were rebuilt
  /// from the attached dataset instead (invariant 4; always logged).
  uint64_t cells_rebuilt() const {
    return cells_rebuilt_.load(std::memory_order_relaxed);
  }

  /// Checkpoint file layout under a store name (exposed for tests/bench).
  static std::string WalPrefix(const std::string& name) { return name; }
  static std::string EpochDir(const std::string& name, uint64_t epoch);
  static std::string ManifestFile(const std::string& name, uint64_t epoch);
  static std::string CellFile(const std::string& name, uint64_t epoch,
                              geo::CellId cell);

 private:
  CellStore(geo::UniformGrid grid, double max_radius)
      : grid_(grid), max_radius_(max_radius) {}

  /// Fresh partitions for every cell (Build/Recover; CloneShared assigns
  /// the shared vector instead).
  void AllocateCells();
  /// New generation sharing every Partition and all store metadata with
  /// this one (cell-level COW starting point for the mutation layer).
  std::unique_ptr<CellStore> CloneShared() const;
  /// Private copy of one cell's partition, safe against a concurrent
  /// first-touch Serve on an older generation: a ready base is copied
  /// lock-free in serving form (the copy stays ready); an unready base is
  /// copied in persisted+delta form under the base latch.
  std::shared_ptr<Partition> CowPartition(geo::CellId cell) const;
  /// Applies the compaction policy to a freshly copied (private)
  /// partition; returns true when the cell was (or will be, at fold time)
  /// compacted.
  static bool MaybeCompact(Partition& part, const MutationOptions& options);
  /// Rewrites a materialized partition live-rows-only (no index rebuild;
  /// Serve's fold path builds the index afterwards anyway).
  static void DropDeadRows(Partition& part);
  /// DropDeadRows + fresh index build — full compaction of a materialized
  /// partition (invariant M4).
  static void CompactPartition(Partition& part);
  /// Folds a partition's delta log into its freshly decoded serving form
  /// (Serve, under the cell latch; invariant M3).
  static Status FoldDelta(Partition& part);

  /// The cell's persistable flat-segment image, from whichever form the
  /// partition is currently in (see Checkpoint doc). Empty for empty
  /// cells.
  StatusOr<std::vector<uint8_t>> SegmentImageOf(geo::CellId cell) const;
  /// Reads + verifies one cell's image from this store's source
  /// checkpoint (size + CRC-32C against the manifest).
  StatusOr<std::vector<uint8_t>> RestoreImage(geo::CellId cell) const;
  /// Corruption fallback: re-derives the cell's image from the attached
  /// dataset via the build's deterministic per-cell layout.
  Status RebuildPartition(geo::CellId cell, Partition& part) const;

  geo::UniformGrid grid_;
  double max_radius_;
  /// shared_ptr per cell: generations share untouched partitions; the
  /// pointee's first-touch materialization stays latched as before (a
  /// ready cell never changes, so sharing is safe — see the class
  /// comment's mutation-layer notes).
  std::vector<std::shared_ptr<Partition>> cells_;
  uint64_t data_objects_ = 0;
  mapreduce::JobStats build_stats_;

  // Mutation-layer state (invariant M5 + tallies; copied by CloneShared).
  bool mutated_ = false;
  uint64_t inserts_applied_ = 0;
  uint64_t deletes_applied_ = 0;
  uint64_t cells_compacted_ = 0;

  // Recovery state (set by Recover; empty/zero for built stores).
  dfs::MiniDfs* dfs_ = nullptr;
  std::string checkpoint_name_;
  uint64_t checkpoint_epoch_ = 0;
  const std::vector<ShuffleObject>* rebuild_input_ = nullptr;
  std::vector<uint32_t> cell_crcs_;  ///< per-cell image CRCs (manifest)
  // mutable: tallied from const Serve (first-touch materialization is a
  // logically-const cache fill).
  mutable std::atomic<uint64_t> cells_restored_{0};
  mutable std::atomic<uint64_t> cells_rebuilt_{0};
};

/// Answers one query from the store by the direct warm route, with no
/// MapReduce job. The feature side is driven by `postings`, the engine's
/// term → ascending-feature-index index over `features` (the engine's
/// borrowed feature records; postings.num_documents() must equal
/// features.size(), else InvalidArgument). Each contiguous map split of
/// `features`, on `pool`, walks the query terms' postings inside its index
/// range to count |f.W ∩ q.W| per feature, then visits only the features
/// whose count is positive — every feature when `keyword_prefilter` is off
/// (EngineOptions::keyword_prefilter, the ablation) — in ascending index,
/// emitting each to its own cell and its Lemma-1 targets as compact
/// (key, feature index) records. The emissions are grouped by cell with a
/// stable counting sort in the order the cold job's merge delivers, and
/// joined group by group, in parallel, against the cells' resident
/// partitions through the reduce cores. `data_cells` counts the store
/// cells with live data; those no feature reaches count as reduce groups,
/// as in the cold job. Results and SPQ counters are bit-identical to the
/// cold single-shot path (map.features_pruned counts the features the
/// postings never reached); the JobStats describe the route: input_records
/// = |F|, map_output_records = kept + duplicates, its splits and reduce
/// slots as tasks, no shuffle bytes.
///
/// The postings walk is the route's one test of whether a feature shares a
/// term with the query; every group the map forms is joined through the
/// reduce cores, as in the cold job.
StatusOr<mapreduce::JobOutput<ResultEntry>> RunWarmQuery(
    const CellStore& store, uint32_t data_cells, Algorithm algo,
    const Query& query, bool keyword_prefilter,
    const std::vector<ShuffleObject>& features,
    const index::InvertedIndex& postings, ThreadPool& pool);

/// One output row of RunWarmBatch: which query of the batch the entry
/// belongs to.
struct BatchResultEntry {
  uint32_t query = 0;
  ResultEntry entry;
};

/// Batched twin of RunWarmQuery: each map split runs the postings walk and
/// visit once per batch query, and every (cell, query) group joins against
/// the cell's one resident partition and its shared index.
StatusOr<mapreduce::JobOutput<BatchResultEntry>> RunWarmBatch(
    const CellStore& store, Algorithm algo, const std::vector<Query>& queries,
    bool keyword_prefilter, const std::vector<ShuffleObject>& features,
    const index::InvertedIndex& postings, ThreadPool& pool);

}  // namespace spq::core

#endif  // SPQ_SPQ_CELL_STORE_H_
