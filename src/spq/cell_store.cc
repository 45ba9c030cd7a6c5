#include "spq/cell_store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "spq/wal.h"
#include "text/keyword_set.h"

namespace spq::core {

namespace {

namespace mr = ::spq::mapreduce;

/// Build-time mapper: the data branch of the SPQ mappers, alone. Features
/// are per-query (prefilter, order key, Lemma-1 duplication radius) and
/// never enter the store.
class StoreBuildMapper final
    : public mr::Mapper<ShuffleObject, CellKey, ShuffleObject> {
 public:
  explicit StoreBuildMapper(geo::UniformGrid grid) : grid_(grid) {}

  void Map(const ShuffleObject& x,
           mr::MapContext<CellKey, ShuffleObject>& ctx) override {
    if (!x.is_data()) return;
    ctx.counters().Increment(counter::kDataObjects);
    // The secondary component is irrelevant inside the store (every
    // record is data); 0.0 keeps records in dataset order under the
    // stable tie-break, matching the order the cold reducers see.
    ctx.Emit(CellKey{grid_.CellOf(x.pos), 0.0}, x);
  }

 private:
  geo::UniformGrid grid_;
};

/// Re-owning copy of a zero-copy record view (the store outlives the
/// build job's segment arenas, so persisted records must own their bytes;
/// data objects carry no keywords, making this an O(1) scalar copy).
ShuffleObject OwnView(const ShuffleObjectView& v) {
  ShuffleObject o;
  o.kind = v.kind;
  o.id = v.id;
  o.pos = v.pos;
  if (v.num_keywords > 0) {
    o.keywords.assign(v.keywords, v.keywords + v.num_keywords);
  }
  return o;
}

/// Store-lifecycle registry metrics (inventory in the class comment of
/// cell_store.h). Counts and wall-clock only — never consulted by any
/// serving decision, so results and SPQ counters stay bit-identical.
struct StoreRegistryMetrics {
  metrics::Counter& cells_materialized;
  metrics::Counter& cells_restored;
  metrics::Counter& cells_rebuilt;
  metrics::Counter& delta_folds;
  metrics::Counter& cells_compacted;
  metrics::Counter& checkpoints;
  metrics::Counter& recoveries;
  metrics::Histogram& materialize_ns;
  metrics::Histogram& checkpoint_ns;
  metrics::Histogram& recover_ns;

  static StoreRegistryMetrics& Get() {
    static auto& registry = metrics::MetricsRegistry::Global();
    static StoreRegistryMetrics metrics_{
        registry.counter("spq.store.cells_materialized"),
        registry.counter("spq.store.cells_restored"),
        registry.counter("spq.store.cells_rebuilt"),
        registry.counter("spq.store.delta_folds"),
        registry.counter("spq.store.cells_compacted"),
        registry.counter("spq.store.checkpoints"),
        registry.counter("spq.store.recoveries"),
        registry.histogram("spq.store.materialize_ns"),
        registry.histogram("spq.store.checkpoint_ns"),
        registry.histogram("spq.store.recover_ns")};
    return metrics_;
  }
};

}  // namespace

StatusOr<std::unique_ptr<CellStore>> CellStore::Build(
    const std::vector<ShuffleObject>& input, const geo::UniformGrid& grid,
    double max_radius, const mr::JobConfig& config) {
  if (!(max_radius >= 0.0)) {
    return Status::InvalidArgument("store max_radius must be >= 0");
  }
  std::unique_ptr<CellStore> store(new CellStore(grid, max_radius));
  store->AllocateCells();

  mr::JobSpec<ShuffleObject, CellKey, ShuffleObject, uint64_t> spec;
  spec.mapper_factory = [grid]() {
    return std::make_unique<StoreBuildMapper>(grid);
  };
  spec.partitioner = CellPartitioner;

  // The per-cell resident partitions reuse the FlatSegment byte layout
  // verbatim, so assembling them from the shuffle's segments is a straight
  // re-bucketing.
  CellStore* store_ptr = store.get();
  auto reduce_partition =
      [store_ptr](const std::vector<const mr::FlatSegment*>& segments,
                  mr::ReduceContext<uint64_t>& /*ctx*/) -> Status {
    mr::FlatMergeStream<CellKey, ShuffleObject> stream(segments);
    std::vector<std::pair<CellKey, ShuffleObject>> rows;
    bool has = stream.Advance();
    while (has) {
      const geo::CellId cell = static_cast<geo::CellId>(stream.bucket());
      mr::FlatGroupCursor<CellKey, ShuffleObject> cursor(&stream,
                                                         stream.bucket());
      rows.clear();
      while (cursor.Next()) {
        rows.emplace_back(cursor.key(), OwnView(cursor.value()));
      }
      // One flat-arena image per cell. The rows arrive in merge order
      // (the order a cold reduce group would stream them), and
      // BuildFlatSegment's stable layout preserves it.
      auto seg_or =
          mr::internal::BuildFlatSegment<CellKey, ShuffleObject>(rows);
      if (!seg_or.ok()) return seg_or.status();
      Partition& part = *store_ptr->cells_[cell];  // one task per cell
      part.segment = *std::move(seg_or);
      part.record_count = part.segment.num_records;
      part.live_count = part.record_count;
      has = cursor.FinishGroup();
    }
    return stream.status();
  };

  SPQ_ASSIGN_OR_RETURN(
      auto output,
      mr::internal::RunJobWith(spec, config, input, reduce_partition));
  store->build_stats_ = std::move(output.stats);
  store->data_objects_ =
      store->build_stats_.counters.Get(counter::kDataObjects);
  return store;
}

StatusOr<const CellStore::Partition*> CellStore::Serve(
    geo::CellId cell) const {
  if (cell >= cells_.size()) {
    return Status::InvalidArgument("cell id outside the store grid");
  }
  Partition& part = *cells_[cell];
  // Fast path: a ready partition is frozen; the acquire pairs with the
  // release below so the reader sees the completed data + index.
  if (part.ready.load(std::memory_order_acquire)) return &part;
  std::lock_guard<std::mutex> latch(part.latch);
  if (part.ready.load(std::memory_order_relaxed)) return &part;
  if (part.record_count == 0) {
    // Nothing to serve: an empty cell, or a delta-mutated cell whose
    // fold-time compaction leaves no rows (every base row tombstoned,
    // every pending insert erased). Drop the persisted form and the delta
    // whole — decoding rows just to discard them buys nothing.
    part.data.Clear();
    part.index.Reset();
    part.segment.bytes.clear();
    part.segment.bytes.shrink_to_fit();
    part.delta_inserts.clear();
    part.delta_tombstones.clear();
    part.dead.clear();
    part.dead_rows.clear();
    part.index.Build(part.data.positions);
    part.ready.store(true, std::memory_order_release);
    return &part;
  }
  // First-touch materialization of a non-empty cell starts here (the
  // ready fast path and the empty short-circuit above never reach this).
  TRACE_SPAN("store.materialize");
  metrics::ScopedLatencyTimer materialize_timer(
      &StoreRegistryMetrics::Get().materialize_ns);
  StoreRegistryMetrics::Get().cells_materialized.Increment();
  if (recovered() && part.segment.num_records > 0 &&
      part.segment.bytes.empty()) {
    // Cell-granular lazy recovery (class invariant 3): pull this cell's
    // image from the source checkpoint on first touch, verified against
    // the manifest's size + CRC. A failed verification falls back to the
    // deterministic rebuild (invariant 4) — loud and counted, never
    // served as garbage.
    auto image = RestoreImage(cell);
    if (image.ok()) {
      part.segment.bytes = *std::move(image);
      cells_restored_.fetch_add(1, std::memory_order_relaxed);
      StoreRegistryMetrics::Get().cells_restored.Increment();
    } else {
      SPQ_LOG_WARN << "store cell " << cell
                   << ": checkpoint restore failed ("
                   << image.status().ToString()
                   << "); rebuilding from dataset";
      SPQ_RETURN_NOT_OK(RebuildPartition(cell, part));
      cells_rebuilt_.fetch_add(1, std::memory_order_relaxed);
      StoreRegistryMetrics::Get().cells_rebuilt.Increment();
    }
  }
  // Idempotent under reduce-attempt retries: a prior pass that failed
  // mid-read (and returned without publishing `ready`) must not leave
  // stale rows or a stale tombstone mask behind. The delta log itself is
  // read-only until the fold succeeds, so retries replay it intact.
  part.data.Clear();
  part.index.Reset();
  part.dead.clear();
  part.dead_rows.clear();
  part.data.Reserve(part.record_count);
  if (part.segment.num_records > 0) {
    mr::internal::FlatSegmentReader<CellKey, ShuffleObject> reader(
        &part.segment);
    while (reader.Next()) part.data.Add(reader.view());
    SPQ_RETURN_NOT_OK(reader.status());
    if (part.data.size() != part.segment.num_records) {
      return Status::Internal("store partition truncated");
    }
    // The serving form replaces the persisted bytes (no double
    // residency); segment.num_records keeps the base bookkeeping.
    part.segment.bytes.clear();
    part.segment.bytes.shrink_to_fit();
  }
  // Fold the delta log (no-op for clean partitions): append pending
  // inserts, mark base tombstones, and compact if the mutation layer
  // ordered it (invariants M2-M4).
  {
    TRACE_SPAN("store.fold_delta");
    if (!part.delta_inserts.empty() || !part.delta_tombstones.empty()) {
      StoreRegistryMetrics::Get().delta_folds.Increment();
    }
    SPQ_RETURN_NOT_OK(FoldDelta(part));
  }
  if (part.data.size() != part.record_count) {
    return Status::Internal("store partition fold left " +
                            std::to_string(part.data.size()) + " rows, " +
                            std::to_string(part.record_count) + " expected");
  }
  // Build the index eagerly so serving never mutates a ready partition:
  // the reduce cores' FrozenCellRef treats SyncIndex as a no-op. Dead
  // rows are masked out of the bucket geometry so probes enumerate
  // exactly the candidate sets a fresh build over the surviving rows
  // would (invariant M2 — pairs_tested counts those sets).
  part.index.Build(part.data.positions,
                   part.dead.empty() ? nullptr : &part.dead);
  // Nothing after this point can fail: the delta is folded in, release it.
  part.delta_inserts.clear();
  part.delta_inserts.shrink_to_fit();
  part.delta_tombstones.clear();
  part.delta_tombstones.shrink_to_fit();
  part.ready.store(true, std::memory_order_release);
  return &part;
}

// --------------------------------------------------------------------------
// Durability: checksummed checkpoints + WAL (class invariants 1-5).
// --------------------------------------------------------------------------

namespace {

/// Manifest frame magic ("SPQM") and format version. Version 1 carried a
/// per-cell keyword summary after the cell entries; version 2 dropped it.
/// A manifest of any other version is rejected whole, never misparsed, so
/// OpenStore's caller falls back to a rebuild.
constexpr uint32_t kManifestMagic = 0x5350514d;
constexpr uint32_t kManifestVersion = 2;

/// [magic u32][len u32][crc u32][payload] — one atomic checksummed unit;
/// a manifest either decodes whole or is rejected whole.
std::vector<uint8_t> FrameManifest(Buffer&& payload) {
  Buffer frame;
  frame.PutUint32(kManifestMagic);
  frame.PutUint32(static_cast<uint32_t>(payload.size()));
  frame.PutUint32(Crc32c(payload.data(), payload.size()));
  frame.PutBytes(payload.data(), payload.size());
  return frame.TakeBytes();
}

StatusOr<std::vector<uint8_t>> UnframeManifest(
    const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes);
  uint32_t magic = 0, len = 0, crc = 0;
  SPQ_RETURN_NOT_OK(reader.GetUint32(&magic));
  SPQ_RETURN_NOT_OK(reader.GetUint32(&len));
  SPQ_RETURN_NOT_OK(reader.GetUint32(&crc));
  if (magic != kManifestMagic) {
    return Status::IOError("bad manifest magic");
  }
  if (reader.remaining() != len) {
    return Status::IOError("torn manifest: " +
                           std::to_string(reader.remaining()) + " of " +
                           std::to_string(len) + " payload bytes");
  }
  if (Crc32c(bytes.data() + reader.position(), len) != crc) {
    return Status::IOError("manifest checksum mismatch");
  }
  std::vector<uint8_t> payload(len);
  SPQ_RETURN_NOT_OK(reader.GetBytes(payload.data(), len));
  return payload;
}

}  // namespace

std::string CellStore::EpochDir(const std::string& name, uint64_t epoch) {
  return name + "/epoch-" + std::to_string(epoch);
}

std::string CellStore::ManifestFile(const std::string& name,
                                    uint64_t epoch) {
  return EpochDir(name, epoch) + "/MANIFEST";
}

std::string CellStore::CellFile(const std::string& name, uint64_t epoch,
                                geo::CellId cell) {
  return EpochDir(name, epoch) + "/cell-" + std::to_string(cell);
}

StatusOr<std::vector<uint8_t>> CellStore::SegmentImageOf(
    geo::CellId cell) const {
  Partition& part = *cells_[cell];
  if (part.record_count == 0) return std::vector<uint8_t>{};
  if (!part.ready.load(std::memory_order_acquire)) {
    // Not (yet) materialized: hold the cell's latch so a concurrent
    // first-touch Serve can't release the segment bytes mid-copy.
    std::lock_guard<std::mutex> latch(part.latch);
    if (!part.ready.load(std::memory_order_relaxed)) {
      if (!part.segment.bytes.empty()) {
        // Untouched built (or restored) partition: the image is resident.
        return part.segment.bytes;
      }
      if (recovered() && dfs_ != nullptr) {
        // Recovered and never touched: copy the image forward from the
        // source checkpoint (verified there).
        return RestoreImage(cell);
      }
      return Status::Internal("store cell " + std::to_string(cell) +
                              " has records but no image source");
    }
  }
  // Ready ⇒ frozen: the bytes were released on materialization; re-encode
  // the serving rows through the build's layout, lock-free. Data objects
  // carry no keywords and all store order keys are 0.0, so this reproduces
  // the built image bit-identically (same rows, same order, empty pool).
  std::vector<std::pair<CellKey, ShuffleObject>> rows;
  rows.reserve(part.data.size());
  for (std::size_t i = 0; i < part.data.size(); ++i) {
    ShuffleObject o;
    o.kind = ShuffleObject::kData;
    o.id = part.data.ids[i];
    o.pos = part.data.positions[i];
    rows.emplace_back(CellKey{cell, 0.0}, std::move(o));
  }
  SPQ_ASSIGN_OR_RETURN(
      mr::FlatSegment seg,
      (mr::internal::BuildFlatSegment<CellKey, ShuffleObject>(rows)));
  return std::move(seg.bytes);
}

StatusOr<std::vector<uint8_t>> CellStore::RestoreImage(
    geo::CellId cell) const {
  SPQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      dfs_->ReadFile(CellFile(checkpoint_name_, checkpoint_epoch_, cell)));
  const Partition& part = *cells_[cell];
  if (bytes.size() != part.segment.byte_size ||
      Crc32c(bytes) != cell_crcs_[cell]) {
    return Status::IOError("store cell " + std::to_string(cell) +
                           " checkpoint image failed verification (" +
                           std::to_string(bytes.size()) + " of " +
                           std::to_string(part.segment.byte_size) +
                           " bytes)");
  }
  return bytes;
}

Status CellStore::RebuildPartition(geo::CellId cell, Partition& part) const {
  if (rebuild_input_ == nullptr) {
    return Status::IOError("store cell " + std::to_string(cell) +
                           " restore failed and no dataset is attached "
                           "for rebuild");
  }
  // The build pipeline's per-cell order is the dataset order: map splits
  // are contiguous input ranges, every store key is (cell, 0.0), and the
  // shuffle merge breaks ties by map task index. A plain in-order scan
  // therefore reproduces the built rows exactly.
  std::vector<std::pair<CellKey, ShuffleObject>> rows;
  for (const ShuffleObject& x : *rebuild_input_) {
    if (!x.is_data() || grid_.CellOf(x.pos) != cell) continue;
    rows.emplace_back(CellKey{cell, 0.0}, x);
  }
  // Compare against the PERSISTED base rows: a mutated cell's serving
  // row count legitimately differs (delta inserts / fold-time
  // compaction), but the checkpoint image always holds the build rows.
  if (rows.size() != part.segment.num_records) {
    return Status::Internal(
        "store cell " + std::to_string(cell) + " rebuild found " +
        std::to_string(rows.size()) + " data objects, checkpoint recorded " +
        std::to_string(part.segment.num_records) +
        " (dataset differs from the one the store was built from)");
  }
  SPQ_ASSIGN_OR_RETURN(
      mr::FlatSegment seg,
      (mr::internal::BuildFlatSegment<CellKey, ShuffleObject>(rows)));
  if (seg.byte_size != part.segment.byte_size ||
      Crc32c(seg.bytes) != cell_crcs_[cell]) {
    return Status::Internal("store cell " + std::to_string(cell) +
                            " rebuild image diverges from the checkpoint "
                            "manifest (dataset mismatch?)");
  }
  part.segment = std::move(seg);
  return Status::OK();
}

StatusOr<CellStore::CheckpointInfo> CellStore::Checkpoint(
    dfs::MiniDfs& dfs, const std::string& name,
    CheckpointCrash crash) const {
  TRACE_SPAN("store.checkpoint");
  metrics::ScopedLatencyTimer checkpoint_timer(
      &StoreRegistryMetrics::Get().checkpoint_ns);
  StoreRegistryMetrics::Get().checkpoints.Increment();
  if (mutated_) {
    // Invariant M5: the persisted segments describe the BUILD dataset and
    // Recover() validates/rebuilds against it — persisting them under a
    // mutated logical dataset would silently resurrect deleted rows and
    // drop inserts on recovery. Fail loudly until incremental checkpoints
    // land (ROADMAP open item).
    return Status::FailedPrecondition(
        "store has been mutated since build/recover (" +
        std::to_string(inserts_applied_) + " inserts, " +
        std::to_string(deletes_applied_) +
        " deletes); its persisted segments are stale — rebuild the store "
        "before checkpointing");
  }
  StoreWal wal(&dfs, WalPrefix(name));
  SPQ_ASSIGN_OR_RETURN(StoreWal::ReplayResult replay, wal.Replay());
  uint64_t epoch = 0;
  bool has_built = false;
  for (const WalRecord& rec : replay.records) {
    epoch = std::max(epoch, rec.epoch);
    has_built |= rec.type == WalRecordType::kStoreBuilt;
  }
  // A burned epoch whose begin record became an unreadable WAL hole can
  // still have files on the DFS; scan for them so its number is never
  // reused (write-once files would collide).
  const std::string epoch_prefix = name + "/epoch-";
  for (const std::string& file : dfs.ListFiles()) {
    if (file.rfind(epoch_prefix, 0) != 0) continue;
    epoch = std::max<uint64_t>(
        epoch,
        std::strtoull(file.c_str() + epoch_prefix.size(), nullptr, 10));
  }
  ++epoch;  // epochs named in prior records or leftover files are burned

  if (!has_built) {
    WalRecord built;
    built.type = WalRecordType::kStoreBuilt;
    Buffer meta;
    meta.PutUint64(data_objects_);
    meta.PutDouble(max_radius_);
    built.payload = meta.TakeBytes();
    SPQ_RETURN_NOT_OK(wal.Append(built));
  }

  WalRecord begin;
  begin.type = WalRecordType::kCheckpointBegin;
  begin.epoch = epoch;
  if (crash == CheckpointCrash::kMidWalBegin) {
    SPQ_RETURN_NOT_OK(wal.AppendTorn(begin));
    return Status::Aborted("injected crash: torn checkpoint-begin record");
  }
  SPQ_RETURN_NOT_OK(wal.Append(begin));
  if (crash == CheckpointCrash::kAfterWalBegin) {
    return Status::Aborted("injected crash: after checkpoint-begin record");
  }

  uint32_t nonempty = 0;
  for (const auto& p : cells_) nonempty += p->record_count > 0 ? 1 : 0;

  CheckpointInfo info;
  info.epoch = epoch;
  std::vector<uint32_t> crcs(cells_.size(), 0);
  for (geo::CellId cell = 0; cell < cells_.size(); ++cell) {
    const Partition& part = *cells_[cell];
    if (part.record_count == 0) continue;
    if (crash == CheckpointCrash::kMidCells &&
        info.cells_written >= nonempty / 2) {
      return Status::Aborted("injected crash: mid cell files");
    }
    SPQ_ASSIGN_OR_RETURN(std::vector<uint8_t> image, SegmentImageOf(cell));
    if (image.size() != part.segment.byte_size) {
      return Status::Internal("store cell " + std::to_string(cell) +
                              " image size drifted from its segment");
    }
    crcs[cell] = Crc32c(image);
    SPQ_RETURN_NOT_OK(dfs.WriteFile(CellFile(name, epoch, cell), image));
    info.bytes_written += image.size();
    ++info.cells_written;
  }
  if (crash == CheckpointCrash::kAfterCells) {
    return Status::Aborted("injected crash: after cell files");
  }

  Buffer payload;
  payload.PutUint32(kManifestVersion);
  payload.PutUint64(epoch);
  payload.PutDouble(max_radius_);
  const geo::Rect& b = grid_.bounds();
  payload.PutDouble(b.min_x);
  payload.PutDouble(b.min_y);
  payload.PutDouble(b.max_x);
  payload.PutDouble(b.max_y);
  payload.PutUint32(grid_.nx());
  payload.PutUint32(grid_.ny());
  payload.PutUint64(data_objects_);
  payload.PutUint32(num_cells());
  for (geo::CellId cell = 0; cell < cells_.size(); ++cell) {
    const Partition& part = *cells_[cell];
    payload.PutVarint(part.record_count);
    if (part.record_count > 0) {
      payload.PutVarint(part.segment.byte_size);
      payload.PutVarint(part.segment.pool_bytes);
      payload.PutUint32(crcs[cell]);
    }
  }
  std::vector<uint8_t> manifest = FrameManifest(std::move(payload));
  info.bytes_written += manifest.size();
  SPQ_RETURN_NOT_OK(dfs.WriteFile(ManifestFile(name, epoch), manifest));
  if (crash == CheckpointCrash::kAfterManifest) {
    return Status::Aborted("injected crash: after manifest, before commit");
  }

  WalRecord commit;
  commit.type = WalRecordType::kCheckpointCommit;
  commit.epoch = epoch;
  if (crash == CheckpointCrash::kMidWalCommit) {
    SPQ_RETURN_NOT_OK(wal.AppendTorn(commit));
    return Status::Aborted("injected crash: torn checkpoint-commit record");
  }
  SPQ_RETURN_NOT_OK(wal.Append(commit));

  // Epoch E is durable; everything older is dead weight (invariant 5).
  const std::string gc_prefix = name + "/epoch-";
  for (const std::string& file : dfs.ListFiles()) {
    if (file.rfind(gc_prefix, 0) != 0) continue;
    const uint64_t old_epoch =
        std::strtoull(file.c_str() + gc_prefix.size(), nullptr, 10);
    if (old_epoch < epoch) {
      (void)dfs.DeleteFile(file);
    }
  }
  return info;
}

StatusOr<std::unique_ptr<CellStore>> CellStore::Recover(
    dfs::MiniDfs& dfs, const std::string& name,
    const std::vector<ShuffleObject>& rebuild_input) {
  TRACE_SPAN("store.recover");
  metrics::ScopedLatencyTimer recover_timer(
      &StoreRegistryMetrics::Get().recover_ns);
  StoreRegistryMetrics::Get().recoveries.Increment();
  StoreWal wal(&dfs, WalPrefix(name));
  SPQ_ASSIGN_OR_RETURN(StoreWal::ReplayResult replay, wal.Replay());
  std::vector<uint64_t> committed;
  for (const WalRecord& rec : replay.records) {
    if (rec.type == WalRecordType::kCheckpointCommit) {
      committed.push_back(rec.epoch);
    }
  }
  std::sort(committed.rbegin(), committed.rend());  // newest first

  auto try_epoch =
      [&](uint64_t epoch) -> StatusOr<std::unique_ptr<CellStore>> {
    SPQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         dfs.ReadFile(ManifestFile(name, epoch)));
    SPQ_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         UnframeManifest(bytes));
    BufferReader reader(payload);
    uint32_t version = 0;
    SPQ_RETURN_NOT_OK(reader.GetUint32(&version));
    if (version != kManifestVersion) {
      return Status::IOError("unsupported manifest version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kManifestVersion) + ")");
    }
    uint64_t manifest_epoch = 0;
    SPQ_RETURN_NOT_OK(reader.GetUint64(&manifest_epoch));
    if (manifest_epoch != epoch) {
      return Status::IOError("manifest epoch mismatch");
    }
    double max_radius = 0.0;
    geo::Rect bounds;
    uint32_t nx = 0, ny = 0;
    SPQ_RETURN_NOT_OK(reader.GetDouble(&max_radius));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&bounds.min_x));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&bounds.min_y));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&bounds.max_x));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&bounds.max_y));
    SPQ_RETURN_NOT_OK(reader.GetUint32(&nx));
    SPQ_RETURN_NOT_OK(reader.GetUint32(&ny));
    SPQ_ASSIGN_OR_RETURN(geo::UniformGrid grid,
                         geo::UniformGrid::Make(bounds, nx, ny));
    uint64_t data_objects = 0;
    uint32_t num_cells = 0;
    SPQ_RETURN_NOT_OK(reader.GetUint64(&data_objects));
    SPQ_RETURN_NOT_OK(reader.GetUint32(&num_cells));
    if (num_cells != grid.num_cells()) {
      return Status::IOError("manifest cell count mismatch");
    }
    // Every cell entry takes at least one byte, so a count the payload
    // cannot hold is rejected before any partition is allocated.
    if (reader.remaining() < num_cells) {
      return Status::IOError("manifest claims " + std::to_string(num_cells) +
                             " cells in " +
                             std::to_string(reader.remaining()) + " bytes");
    }
    std::unique_ptr<CellStore> store(new CellStore(grid, max_radius));
    store->AllocateCells();
    store->data_objects_ = data_objects;
    store->cell_crcs_.assign(num_cells, 0);
    uint64_t records_total = 0;
    for (geo::CellId cell = 0; cell < num_cells; ++cell) {
      Partition& part = *store->cells_[cell];
      uint64_t record_count = 0;
      SPQ_RETURN_NOT_OK(reader.GetVarint(&record_count));
      part.record_count = record_count;
      part.live_count = record_count;
      records_total += record_count;
      if (record_count > 0) {
        uint64_t byte_size = 0, pool_bytes = 0;
        SPQ_RETURN_NOT_OK(reader.GetVarint(&byte_size));
        SPQ_RETURN_NOT_OK(reader.GetVarint(&pool_bytes));
        SPQ_RETURN_NOT_OK(reader.GetUint32(&store->cell_crcs_[cell]));
        // Partition metadata only — the image itself stays on the DFS
        // until the cell's first Serve (invariant 3).
        part.segment.num_records = record_count;
        part.segment.byte_size = byte_size;
        part.segment.pool_bytes = pool_bytes;
      }
    }
    if (records_total != data_objects) {
      return Status::IOError("manifest record totals disagree");
    }
    if (!reader.exhausted()) {
      return Status::IOError("trailing manifest bytes");
    }
    return store;
  };

  Status last = Status::OK();
  for (uint64_t epoch : committed) {
    auto store_or = try_epoch(epoch);
    if (!store_or.ok()) {
      // Invariant 1: a commit record alone does not make an epoch
      // servable — its manifest must verify too. Fall back to the next
      // older committed epoch, loudly.
      SPQ_LOG_WARN << "store '" << name << "' committed epoch " << epoch
                   << " unusable (" << store_or.status().ToString()
                   << "); trying older epochs";
      last = store_or.status();
      continue;
    }
    std::unique_ptr<CellStore> store = std::move(*store_or);
    // Dataset-shape check against the checkpoint's recorded data count.
    // FlattenDataset lays rebuild_input out as a data prefix followed by a
    // feature suffix, so probing the boundary elements is O(1); a full
    // O(n) count runs only when the probes are inconclusive (recovery
    // time is first-query latency, and this scan was most of it). A
    // pathological non-flattened input that fools the probes still cannot
    // serve garbage: RebuildPartition re-verifies exact per-cell counts
    // before any rebuilt rows are served.
    const uint64_t want = store->data_objects_;
    bool shape_ok = rebuild_input.size() >= want &&
                    (want == 0 || (rebuild_input.front().is_data() &&
                                   rebuild_input[want - 1].is_data())) &&
                    (rebuild_input.size() == want ||
                     (rebuild_input[want].is_feature() &&
                      rebuild_input.back().is_feature()));
    if (!shape_ok) {
      uint64_t input_data = 0;
      for (const ShuffleObject& x : rebuild_input) {
        input_data += x.is_data() ? 1 : 0;
      }
      shape_ok = input_data == want;
    }
    if (!shape_ok) {
      return Status::InvalidArgument(
          "recover dataset mismatch: checkpoint '" + name + "' holds " +
          std::to_string(want) + " data objects, the supplied dataset ("
          + std::to_string(rebuild_input.size()) + " records) disagrees");
    }
    store->dfs_ = &dfs;
    store->checkpoint_name_ = name;
    store->checkpoint_epoch_ = epoch;
    store->rebuild_input_ = &rebuild_input;
    return store;
  }
  return Status::NotFound(
      "store '" + name + "' has no usable committed checkpoint" +
      (last.ok() ? "" : " (" + last.ToString() + ")"));
}

// --------------------------------------------------------------------------
// Mutation layer: cell-level copy-on-write generations (invariants M1-M5).
// --------------------------------------------------------------------------

void CellStore::AllocateCells() {
  cells_.clear();
  cells_.reserve(grid_.num_cells());
  for (uint32_t i = 0; i < grid_.num_cells(); ++i) {
    cells_.push_back(std::make_shared<Partition>());
  }
}

std::unique_ptr<CellStore> CellStore::CloneShared() const {
  std::unique_ptr<CellStore> next(new CellStore(grid_, max_radius_));
  next->cells_ = cells_;  // shared partitions; the caller swaps mutated ones
  next->data_objects_ = data_objects_;
  next->build_stats_ = build_stats_;
  next->mutated_ = mutated_;
  next->inserts_applied_ = inserts_applied_;
  next->deletes_applied_ = deletes_applied_;
  next->cells_compacted_ = cells_compacted_;
  next->dfs_ = dfs_;
  next->checkpoint_name_ = checkpoint_name_;
  next->checkpoint_epoch_ = checkpoint_epoch_;
  next->rebuild_input_ = rebuild_input_;
  next->cell_crcs_ = cell_crcs_;
  next->cells_restored_.store(cells_restored(), std::memory_order_relaxed);
  next->cells_rebuilt_.store(cells_rebuilt(), std::memory_order_relaxed);
  return next;
}

std::shared_ptr<CellStore::Partition> CellStore::CowPartition(
    geo::CellId cell) const {
  const Partition& base = *cells_[cell];
  auto part = std::make_shared<Partition>();
  auto copy_serving_form = [&part, &base]() {
    part->data = base.data;
    part->index = base.index;
    part->dead = base.dead;
    part->dead_rows = base.dead_rows;
    // Base bookkeeping travels along so checkpoints/restores of OTHER
    // generations stay unaffected and Serve's invariants keep holding.
    part->segment.num_records = base.segment.num_records;
    part->segment.byte_size = base.segment.byte_size;
    part->segment.pool_bytes = base.segment.pool_bytes;
    part->record_count = base.record_count;
    part->live_count = base.live_count;
    // Readers only reach this partition through the engine's RCU snapshot
    // publication, which release-orders everything above; relaxed is
    // enough here.
    part->ready.store(true, std::memory_order_relaxed);
  };
  if (base.ready.load(std::memory_order_acquire)) {
    copy_serving_form();  // ready ⇒ frozen: lock-free copy
    return part;
  }
  // Unready: a concurrent first-touch Serve on an older generation may be
  // materializing `base` right now (it releases segment.bytes when done),
  // so copy the persisted + delta form under the base latch.
  std::lock_guard<std::mutex> latch(base.latch);
  if (base.ready.load(std::memory_order_relaxed)) {
    copy_serving_form();
    return part;
  }
  part->segment = base.segment;
  part->delta_inserts = base.delta_inserts;
  part->delta_tombstones = base.delta_tombstones;
  part->compact_on_fold = base.compact_on_fold;
  part->record_count = base.record_count;
  part->live_count = base.live_count;
  return part;
}

void CellStore::DropDeadRows(Partition& part) {
  if (!part.dead_rows.empty()) {
    reduce_core::CellData live;
    live.Reserve(static_cast<std::size_t>(part.live_count));
    for (std::size_t i = 0; i < part.data.size(); ++i) {
      if (part.dead[i]) continue;
      live.ids.push_back(part.data.ids[i]);
      live.positions.push_back(part.data.positions[i]);
    }
    part.data = std::move(live);
    part.dead.clear();
    part.dead_rows.clear();
  }
  part.record_count = part.data.size();
}

void CellStore::CompactPartition(Partition& part) {
  TRACE_SPAN("store.compact");
  StoreRegistryMetrics::Get().cells_compacted.Increment();
  DropDeadRows(part);
  // A fresh Build gives exactly the structure a from-scratch store build
  // would serve for the surviving rows (invariant M4).
  part.index.Build(part.data.positions);
}

bool CellStore::MaybeCompact(Partition& part,
                             const MutationOptions& options) {
  const bool is_ready = part.ready.load(std::memory_order_relaxed);
  const uint64_t physical =
      is_ready ? part.record_count
               : part.segment.num_records + part.delta_inserts.size();
  const uint64_t dead = physical - part.live_count;
  if (dead == 0) return false;
  if (static_cast<double>(dead) <
      options.compact_dead_fraction * static_cast<double>(physical)) {
    return false;
  }
  if (is_ready) {
    CompactPartition(part);
  } else {
    // Fold-time order (invariant M3/M4): record_count becomes the
    // post-compaction row count now so Serve's fold check stays exact.
    part.compact_on_fold = true;
    part.record_count = part.live_count;
  }
  return true;
}

Status CellStore::FoldDelta(Partition& part) {
  const std::size_t base_rows = part.data.size();
  // Tombstones name base rows only, each at most once (invariant M3): a
  // delete that targeted a still-pending insert erased the insert instead
  // of logging a tombstone.
  if (!part.delta_tombstones.empty()) {
    part.dead.assign(base_rows, 0);
    part.dead_rows.reserve(part.delta_tombstones.size());
    for (ObjectId id : part.delta_tombstones) {
      bool found = false;
      for (std::size_t i = 0; i < base_rows; ++i) {
        if (part.data.ids[i] == id && !part.dead[i]) {
          part.dead[i] = 1;
          part.dead_rows.push_back(static_cast<uint32_t>(i));
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Internal("store delta tombstone names object " +
                                std::to_string(id) +
                                " absent from its cell's base rows");
      }
    }
  }
  for (const ShuffleObject& row : part.delta_inserts) {
    part.data.Add(row);
    if (!part.dead.empty()) part.dead.push_back(0);
  }
  if (part.compact_on_fold) DropDeadRows(part);
  return Status::OK();
}

StatusOr<std::unique_ptr<CellStore>> CellStore::WithInsert(
    const DataObject& object, const MutationOptions& options) const {
  if (!(std::isfinite(object.pos.x) && std::isfinite(object.pos.y))) {
    return Status::InvalidArgument("insert position must be finite");
  }
  // Single placement (invariant M1): out-of-bounds positions clamp onto an
  // edge cell, the same rule the build mapper applies — so a fresh build
  // over the equivalent dataset places the row identically.
  const geo::CellId cell = grid_.CellOf(object.pos);
  std::unique_ptr<CellStore> next = CloneShared();
  std::shared_ptr<Partition> part = CowPartition(cell);
  if (part->ready.load(std::memory_order_relaxed)) {
    part->data.Add(object);
    if (!part->dead.empty()) part->dead.push_back(0);
    part->record_count = part->data.size();
    ++part->live_count;
    // Fresh rebuild, not a pending-list Append: the bucket geometry (live
    // bbox, side ≈ √live) must equal what a from-scratch build over the
    // logical rows derives, or probe candidate supersets — and therefore
    // pairs_tested — drift from the rebuild reference (invariant M2).
    // O(cell rows), amortized fine: cells hold ~n/cells rows.
    part->index.Build(part->data.positions,
                      part->dead.empty() ? nullptr : &part->dead);
  } else {
    ShuffleObject row;
    row.kind = ShuffleObject::kData;
    row.id = object.id;
    row.pos = object.pos;
    part->delta_inserts.push_back(std::move(row));
    ++part->live_count;
    part->record_count =
        part->compact_on_fold
            ? part->live_count
            : part->segment.num_records + part->delta_inserts.size();
  }
  if (MaybeCompact(*part, options)) ++next->cells_compacted_;
  next->cells_[cell] = std::move(part);
  ++next->data_objects_;
  next->mutated_ = true;
  ++next->inserts_applied_;
  return next;
}

StatusOr<std::unique_ptr<CellStore>> CellStore::WithDelete(
    ObjectId id, geo::CellId cell, const MutationOptions& options) const {
  if (cell >= cells_.size()) {
    return Status::InvalidArgument("cell id outside the store grid");
  }
  std::unique_ptr<CellStore> next = CloneShared();
  std::shared_ptr<Partition> part = CowPartition(cell);
  if (part->live_count == 0) {
    return Status::NotFound("data object " + std::to_string(id) +
                            " has no live row in cell " +
                            std::to_string(cell));
  }
  if (part->ready.load(std::memory_order_relaxed)) {
    // Back-scan: a re-inserted id appends after its tombstoned
    // predecessor, so the LIVE instance is always the last match.
    std::size_t row = part->data.size();
    for (std::size_t i = part->data.size(); i-- > 0;) {
      if (part->data.ids[i] == id &&
          (part->dead.empty() || !part->dead[i])) {
        row = i;
        break;
      }
    }
    if (row == part->data.size()) {
      return Status::NotFound("data object " + std::to_string(id) +
                              " has no live row in cell " +
                              std::to_string(cell));
    }
    if (part->dead.empty()) part->dead.assign(part->data.size(), 0);
    part->dead[row] = 1;
    part->dead_rows.push_back(static_cast<uint32_t>(row));
    --part->live_count;
    // Same geometry contract as the insert path: the dead row must leave
    // the bucket geometry immediately (invariant M2).
    part->index.Build(part->data.positions, &part->dead);
  } else {
    auto it = std::find_if(
        part->delta_inserts.begin(), part->delta_inserts.end(),
        [id](const ShuffleObject& o) { return o.id == id; });
    if (it != part->delta_inserts.end()) {
      // Deleting a still-pending insert erases it: absent at fold time ≡
      // tombstoned at birth, and invariant M3's "tombstones name base
      // rows" stays true.
      part->delta_inserts.erase(it);
    } else {
      // Presence in the base rows is the caller's (engine locator's)
      // contract; a lie surfaces loudly as FoldDelta's Internal error at
      // the cell's first touch.
      part->delta_tombstones.push_back(id);
    }
    --part->live_count;
    part->record_count =
        part->compact_on_fold
            ? part->live_count
            : part->segment.num_records + part->delta_inserts.size();
  }
  if (MaybeCompact(*part, options)) ++next->cells_compacted_;
  next->cells_[cell] = std::move(part);
  --next->data_objects_;
  next->mutated_ = true;
  ++next->deletes_applied_;
  return next;
}

StatusOr<std::unique_ptr<CellStore>> CellStore::Compacted() const {
  std::unique_ptr<CellStore> next = CloneShared();
  for (geo::CellId cell = 0; cell < cells_.size(); ++cell) {
    // Dirty ⇔ live and physical row counts disagree. Cells already under
    // a fold-time compaction order keep record_count == live_count and
    // were tallied when the order was placed.
    const Partition& base = *cells_[cell];
    if (base.live_count == base.record_count) continue;
    std::shared_ptr<Partition> part = CowPartition(cell);
    if (part->ready.load(std::memory_order_relaxed)) {
      CompactPartition(*part);
    } else {
      part->compact_on_fold = true;
      part->record_count = part->live_count;
    }
    next->cells_[cell] = std::move(part);
    ++next->cells_compacted_;
  }
  return next;
}

// --------------------------------------------------------------------------
// Direct warm route: the per-query feature side, mapped and grouped in
// process and joined against the resident partitions.
// --------------------------------------------------------------------------

namespace {

/// Composite key of a warm batch emission: the single-query CellKey plus
/// the query's index in its batch. A group is one (cell, query).
struct BatchCellKey {
  geo::CellId cell = 0;
  uint32_t query = 0;
  double order = 0.0;
};

/// One map emission of the warm route: its key and the index of the
/// feature that produced it, which stands for the value (the reduce cores
/// read the feature record itself).
template <typename K>
struct WarmEmission {
  K key;
  uint32_t feature;
};

/// The key of a warm emission for the query at `query` in its batch.
template <typename K>
K WarmKey(geo::CellId cell, uint32_t query, double order);
template <>
CellKey WarmKey<CellKey>(geo::CellId cell, uint32_t /*query*/, double order) {
  return CellKey{cell, order};
}
template <>
BatchCellKey WarmKey<BatchCellKey>(geo::CellId cell, uint32_t query,
                                   double order) {
  return BatchCellKey{cell, query, order};
}

/// The query a group belongs to inside its cell: the single-query key has
/// one group per cell, the batched key one per (cell, query).
uint32_t QueryOf(const CellKey& /*key*/) { return 0; }
uint32_t QueryOf(const BatchCellKey& key) { return key.query; }

/// The order the cold single-query job's merge delivers a cell's features
/// in, per query: by the secondary `order`, ties in feature-input order
/// (map splits are contiguous input ranges and the merge breaks ties by
/// split). A feature reaches a (cell, query) group at most once, so this is
/// a strict total order and std::sort reproduces the merge exactly.
template <typename K>
bool MergeOrderLess(const WarmEmission<K>& a, const WarmEmission<K>& b) {
  return std::tuple(QueryOf(a.key), a.key.order, a.feature) <
         std::tuple(QueryOf(b.key), b.key.order, b.feature);
}

/// One sorted group's values for the reduce cores, which need only
/// Next()/key()/value().
template <typename K>
struct WarmGroupCursor {
  const WarmEmission<K>* next;
  const WarmEmission<K>* end;
  const std::vector<ShuffleObject>* features;
  const WarmEmission<K>* current = nullptr;

  bool Next() {
    if (next == end) return false;
    current = next++;
    return true;
  }
  const K& key() const { return current->key; }
  const ShuffleObject& value() const { return (*features)[current->feature]; }
};

/// The route under both warm entry points:
///  - map: contiguous splits [lo, hi) of `features` on `pool`. For each
///    query, a split walks the query terms' postings from lower_bound(lo)
///    up to hi, adding |f.W ∩ q.W| into a per-split count array, then
///    visits the features with a positive count — every feature when
///    `keyword_prefilter` is off — in ascending index, emitting each one
///    under FeatureOrder to its own cell and its Lemma-1 targets
///    (EmitFeatureCopies). Features sharing no term with the query are
///    never touched, and no intersection is merged;
///  - group: a stable counting sort of the emissions by cell, scattered
///    split by split;
///  - reduce: the reached cells in parallel, each run put in
///    MergeOrderLess order and handed group by group to
///    `serve_group(key, cursor, counters, scratch, out)`.
/// `data_cells`, when set, counts the store's live-data cells; those no
/// feature reaches are added to reduce.groups, as the cold single-query
/// job runs a feature-less group in each.
///
/// The map counters are tallied per split and flushed once, under the cold
/// mappers' guards, so the counter set matches the cold job's:
/// features_pruned (B × |F| − kept, for a batch of B queries) only when
/// positive, kept and duplicates only when something was kept.
///
/// JobStats: one map task per split, one reduce task per reduce slot, no
/// shuffle bytes, and no task failures or spill files (faults, retries and
/// spill_dir shape only cold jobs and the store build). Spans and
/// spq.job.* metrics keep the runtime's names; job.shuffle is the sort.
template <typename K, typename Out, typename ServeGroup>
StatusOr<mr::JobOutput<Out>> RunWarmRoute(
    const CellStore& store, Algorithm algo, std::span<const Query> queries,
    bool keyword_prefilter, const std::vector<ShuffleObject>& features,
    const index::InvertedIndex& postings, ThreadPool& pool,
    std::optional<uint32_t> data_cells, ServeGroup&& serve_group) {
  if (postings.num_documents() != features.size()) {
    return Status::InvalidArgument(
        "warm route: the postings index does not cover the feature input");
  }
  mr::JobOutput<Out> result;
  mr::JobStats& stats = result.stats;
  stats.input_records = features.size();
  TRACE_SPAN("job.run");
  Stopwatch total_watch;
  // ParallelFor runs the calling thread beside the pool's workers.
  const std::size_t slots = pool.num_threads() + 1;

  // ---------------------------------------------------------------- map --
  struct MapSplit {
    std::vector<WarmEmission<K>> emissions;
    uint64_t kept = 0;  // (feature, query) pairs visited
    uint64_t dups = 0;
  };
  // Several splits per slot, so a slot that starts late still gets work.
  const std::size_t num_splits = std::min(features.size(), 4 * slots);
  std::vector<MapSplit> splits(num_splits);
  stats.map_task_seconds.assign(num_splits, 0.0);
  const geo::UniformGrid& grid = store.grid();
  Stopwatch map_watch;
  {
    TRACE_SPAN("job.map");
    ParallelFor(pool, num_splits, [&](std::size_t s) {
      TRACE_SPAN("map.task");
      Stopwatch task_watch;
      MapSplit& split = splits[s];
      const auto lo = static_cast<uint32_t>(features.size() * s / num_splits);
      const auto hi =
          static_cast<uint32_t>(features.size() * (s + 1) / num_splits);
      // |f.W ∩ q.W| of feature lo + j at common[j], 32-bit since a feature
      // may share more than 255 terms with a query. The visit loop zeroes
      // each entry as it reads it, leaving the array clean for the next
      // query.
      std::vector<uint32_t> common(hi - lo, 0);
      std::vector<geo::CellId> targets;
      for (uint32_t q = 0; q < queries.size(); ++q) {
        const Query& query = queries[q];
        for (text::TermId term : query.keywords.ids()) {
          const std::span<const uint32_t> docs = postings.Postings(term);
          for (auto it = std::lower_bound(docs.begin(), docs.end(), lo);
               it != docs.end() && *it < hi; ++it) {
            ++common[*it - lo];
          }
        }
        for (uint32_t i = lo; i < hi; ++i) {
          const uint32_t shared = std::exchange(common[i - lo], 0);
          if (shared == 0 && keyword_prefilter) continue;
          ++split.kept;
          const double order = FeatureOrder(algo, query, features[i], shared);
          split.dups += EmitFeatureCopies(
              grid, features[i].pos, query.radius, targets,
              [&](geo::CellId cell) {
                split.emissions.push_back({WarmKey<K>(cell, q, order), i});
              });
        }
      }
      stats.map_task_seconds[s] = task_watch.ElapsedSeconds();
    });
  }
  stats.map_seconds = map_watch.ElapsedSeconds();

  // -------------------------------------------------------------- group --
  // Cell c's run is grouped[cell_begin[c], cell_begin[c + 1]).
  const uint32_t num_cells = store.num_cells();
  std::vector<std::size_t> cell_begin(num_cells + 1, 0);
  std::vector<WarmEmission<K>> grouped;
  std::vector<geo::CellId> cells;  // cells some feature reached, ascending
  {
    TRACE_SPAN("job.shuffle");
    uint64_t kept = 0, dups = 0;
    for (const MapSplit& split : splits) {
      kept += split.kept;
      dups += split.dups;
      for (const WarmEmission<K>& e : split.emissions) {
        ++cell_begin[e.key.cell + 1];  // emitted on the store's grid
      }
    }
    // One flush per query (or batch) under the cold mappers' guards.
    const uint64_t pruned = queries.size() * features.size() - kept;
    if (pruned > 0) stats.counters.Increment(counter::kFeaturesPruned, pruned);
    if (kept > 0) {
      stats.counters.Increment(counter::kFeaturesKept, kept);
      stats.counters.Increment(counter::kFeatureDuplicates, dups);
    }
    for (geo::CellId c = 0; c < num_cells; ++c) {
      if (cell_begin[c + 1] > 0) cells.push_back(c);
      cell_begin[c + 1] += cell_begin[c];
    }
    stats.map_output_records = cell_begin.back();
    grouped.resize(cell_begin.back());
    std::vector<std::size_t> fill(cell_begin.begin(), cell_begin.end() - 1);
    for (MapSplit& split : splits) {
      for (const WarmEmission<K>& e : split.emissions) {
        grouped[fill[e.key.cell]++] = e;
      }
      // Released once scattered: a large batch never holds two full copies.
      std::vector<WarmEmission<K>>().swap(split.emissions);
    }
  }

  // ------------------------------------------------------------- reduce --
  struct ReduceSlot {
    reduce_core::QueryScratch scratch;
    mr::Counters counters;
    std::vector<Out> records;
    Status status;
  };
  std::vector<ReduceSlot> reduce_slots(std::min(slots, cells.size()));
  stats.reduce_task_seconds.assign(reduce_slots.size(), 0.0);
  stats.reduce_input_records.assign(reduce_slots.size(), 0);
  std::atomic<std::size_t> next_cell{0};
  std::atomic<bool> failed{false};
  Stopwatch reduce_watch;
  {
    TRACE_SPAN("job.reduce");
    ParallelFor(pool, reduce_slots.size(), [&](std::size_t s) {
      TRACE_SPAN("reduce.task");
      Stopwatch task_watch;
      ReduceSlot& slot = reduce_slots[s];
      // Cells are claimed one at a time: their join costs are skewed.
      for (std::size_t i = 0; !failed.load(std::memory_order_relaxed) &&
                              (i = next_cell.fetch_add(1)) < cells.size();) {
        WarmEmission<K>* run = grouped.data() + cell_begin[cells[i]];
        WarmEmission<K>* const run_end =
            grouped.data() + cell_begin[cells[i] + 1];
        std::sort(run, run_end, MergeOrderLess<K>);
        stats.reduce_input_records[s] += run_end - run;
        while (run != run_end) {
          const uint32_t query = QueryOf(run->key);
          WarmEmission<K>* const group_end =
              std::find_if(run, run_end, [query](const WarmEmission<K>& e) {
                return QueryOf(e.key) != query;
              });
          WarmGroupCursor<K> cursor{run, group_end, &features};
          slot.status = serve_group(run->key, cursor, slot.counters,
                                    slot.scratch, slot.records);
          if (!slot.status.ok()) {
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          run = group_end;
        }
      }
      stats.reduce_task_seconds[s] = task_watch.ElapsedSeconds();
    });
  }
  stats.reduce_seconds = reduce_watch.ElapsedSeconds();

  for (ReduceSlot& slot : reduce_slots) {
    SPQ_RETURN_NOT_OK(slot.status);
    stats.counters.MergeFrom(slot.counters);
    result.records.insert(result.records.end(),
                          std::make_move_iterator(slot.records.begin()),
                          std::make_move_iterator(slot.records.end()));
  }
  if (data_cells.has_value()) {
    uint32_t reached = 0;
    for (geo::CellId c : cells) reached += store.live_record_count(c) > 0;
    stats.counters.Increment(counter::kGroups, *data_cells - reached);
  }
  stats.total_seconds = total_watch.ElapsedSeconds();
  mr::internal::RecordJobMetrics(stats);
  return result;
}

}  // namespace

StatusOr<mr::JobOutput<ResultEntry>> RunWarmQuery(
    const CellStore& store, uint32_t data_cells, Algorithm algo,
    const Query& query, bool keyword_prefilter,
    const std::vector<ShuffleObject>& features,
    const index::InvertedIndex& postings, ThreadPool& pool) {
  auto serve_group = [&](const CellKey& key, auto& cursor,
                         mr::Counters& counters,
                         reduce_core::QueryScratch& scratch,
                         std::vector<ResultEntry>& out) -> Status {
    SPQ_ASSIGN_OR_RETURN(const CellStore::Partition* part,
                         store.Serve(key.cell));
    reduce_core::FrozenCellRef cell_ref{&part->data, &part->index,
                                        &part->dead_rows};
    reduce_core::RunReduce(algo, query, cell_ref, scratch, cursor, counters,
                           [&out](const ResultEntry& e) { out.push_back(e); });
    return Status::OK();
  };
  return RunWarmRoute<CellKey, ResultEntry>(
      store, algo, std::span<const Query>(&query, 1), keyword_prefilter,
      features, postings, pool, data_cells, serve_group);
}

StatusOr<mr::JobOutput<BatchResultEntry>> RunWarmBatch(
    const CellStore& store, Algorithm algo, const std::vector<Query>& queries,
    bool keyword_prefilter, const std::vector<ShuffleObject>& features,
    const index::InvertedIndex& postings, ThreadPool& pool) {
  auto serve_group = [&](const BatchCellKey& key, auto& cursor,
                         mr::Counters& counters,
                         reduce_core::QueryScratch& scratch,
                         std::vector<BatchResultEntry>& out) -> Status {
    const uint32_t q = key.query;
    SPQ_ASSIGN_OR_RETURN(const CellStore::Partition* part,
                         store.Serve(key.cell));
    reduce_core::FrozenCellRef cell_ref{&part->data, &part->index,
                                        &part->dead_rows};
    reduce_core::RunReduce(algo, queries[q], cell_ref, scratch, cursor,
                           counters,
                           [&out, q](const ResultEntry& e) {
                             out.push_back(BatchResultEntry{q, e});
                           });
    return Status::OK();
  };
  // No data-only accounting: a batch counts one group per (cell, query)
  // that a kept feature reaches, and no group for cells only data reach.
  return RunWarmRoute<BatchCellKey, BatchResultEntry>(
      store, algo, queries, keyword_prefilter, features, postings, pool,
      std::nullopt, serve_group);
}

}  // namespace spq::core
