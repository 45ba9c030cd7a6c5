#ifndef SPQ_SPQ_REDUCE_CORE_H_
#define SPQ_SPQ_REDUCE_CORE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/trace.h"
#include "geo/point.h"
#include "mapreduce/job.h"
#include "spq/algorithms.h"
#include "spq/shuffle_types.h"
#include "spq/topk.h"
#include "text/jaccard.h"

namespace spq::core::reduce_core {

/// \brief The reduce-side cores of Algorithms 2, 4 and 6, templated on the
/// group-values cursor so every pairing of key type (CellKey for the
/// single-query job, a (cell, query, order) key for the warm batch) and
/// record representation (zero-copy ShuffleObjectView on the cold
/// flat-arena shuffle, borrowed ShuffleObject on the warm route) shares one
/// implementation. The cursor only needs Next()/key()/value(), a key with
/// an `order` member, and a value satisfying the KeywordData/KeywordCount
/// accessors — keyword scoring runs straight off the spans, so the flat
/// path never materializes a per-record keyword vector.
///
/// Each function consumes one reduce group (one cell's data + feature
/// objects in the algorithm's sort order) and emits per-cell results
/// through `emit(const ResultEntry&)`.
///
/// Every feature's radius probe walks only the CellGridIndex buckets
/// (below) overlapping its r-disk and tests each candidate that survives
/// the algorithm's skip test as the walk reaches it, with
/// geo::Distance2(p, f) <= r² — the same expression the sequential oracle
/// evaluates. `reduce.pairs_tested` counts exactly those evaluations; see
/// ScoreFeatureAgainstCell and RunEspqSco for which candidates each skips.

/// In-memory O_i of one reduce group, kept as parallel contiguous arrays
/// (SoA): `positions` doubles as the storage the CellGridIndex buckets
/// refer into, so probes walk one cache-friendly array instead of chasing
/// per-object records.
///
/// CellData holds ONLY query-independent state (ids + positions). The
/// per-query running scores and report bitmap live in QueryScratch, passed
/// into the reduce cores separately — that split is what lets a fully
/// materialized store partition be shared read-only by concurrent queries.
struct CellData {
  std::vector<ObjectId> ids;
  std::vector<geo::Point> positions;

  /// Pre-sizes all arrays (used when the group's data-object count is
  /// known up front, e.g. the resident store's materialized partitions).
  void Reserve(std::size_t n) {
    ids.reserve(n);
    positions.reserve(n);
  }

  template <typename X>
  void Add(const X& x) {
    ids.push_back(x.id);
    positions.push_back(x.pos);
  }
  std::size_t size() const { return ids.size(); }

  /// Drops the objects but keeps the capacity (cross-cell cache reuse).
  void Clear() {
    ids.clear();
    positions.clear();
  }
};

/// \brief SoA mini-grid over one reduce group's data-object positions,
/// built in one pass over them: once at a resident store partition's
/// materialization (and again per mutation of its private copy), or at a
/// cold group's first feature probe (OwnedCellRef::SyncIndex).
///
/// Layout is a counting-sorted CSR: `starts_` offsets into `items_`,
/// which holds data indices bucket-major and ascending within each bucket
/// (counting sort is stable). The side length targets ~1 object per
/// bucket (side ≈ √n, so the offsets array stays O(n)); fine buckets keep
/// the one-bucket safety pad below cheap. With one bucket the probe
/// degenerates to the full scan, so tiny groups pay no indexing overhead
/// beyond the O(n) build.
///
/// Probe points may lie arbitrarily far outside the bounding box the
/// bucket geometry was derived from (duplicated features do); their
/// bucket ranges are clamped onto the boundary buckets.
///
/// A radius probe walks the buckets overlapping the axis-aligned square
/// [p ± r], padded by one bucket per side so a one-ulp rounding slip in
/// the bucket arithmetic can never exclude a point whose computed
/// distance² is <= r² — the exact distance test stays with the caller.
class CellGridIndex {
 public:
  /// (Re)builds over `positions`, skipping the rows `dead` marks when it
  /// is non-null. O(n) counting sort. The dead-masked form exists for the
  /// mutable store's bit-identity contract (cell_store.h invariant M2):
  /// the bucket geometry (bbox, side length) is derived from the LIVE
  /// rows only, so every probe enumerates exactly the candidate set a
  /// fresh build over the surviving rows would — candidate-superset size
  /// feeds the pairs_tested counter, so geometry drift would be
  /// observable. Items still hold the caller's physical row indices.
  void Build(const std::vector<geo::Point>& positions,
             const std::vector<uint8_t>* dead = nullptr) {
    if (dead != nullptr && dead->empty()) dead = nullptr;
    indexed_n_ = positions.size();
    contiguous_ = dead == nullptr;
    std::size_t live_n = 0;
    double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (dead != nullptr && (*dead)[i]) continue;
      const geo::Point& p = positions[i];
      if (live_n == 0) {
        min_x = max_x = p.x;
        min_y = max_y = p.y;
      } else {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
      }
      ++live_n;
    }
    if (live_n == 0) {
      if (indexed_n_ == 0) return;
      // All rows masked: serve an empty one-bucket index (probes find
      // nothing), exactly what a fresh build over zero rows serves.
      side_ = 1;
      min_x_ = min_y_ = 0.0;
      inv_w_ = inv_h_ = 0.0;
      starts_.assign(2, 0);
      items_.clear();
      return;
    }
    min_x_ = min_x;
    min_y_ = min_y;
    const double target = std::ceil(std::sqrt(static_cast<double>(live_n)));
    side_ = static_cast<uint32_t>(
        std::clamp(target, 1.0, static_cast<double>(kMaxSide)));
    const double w = max_x - min_x;
    const double h = max_y - min_y;
    inv_w_ = w > 0.0 ? static_cast<double>(side_) / w : 0.0;
    inv_h_ = h > 0.0 ? static_cast<double>(side_) / h : 0.0;

    starts_.assign(static_cast<std::size_t>(side_) * side_ + 1, 0);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (dead != nullptr && (*dead)[i]) continue;
      ++starts_[BucketOf(positions[i]) + 1];
    }
    for (std::size_t b = 1; b < starts_.size(); ++b) {
      starts_[b] += starts_[b - 1];
    }
    items_.resize(live_n);
    cursor_.assign(starts_.begin(), starts_.end() - 1);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (dead != nullptr && (*dead)[i]) continue;
      items_[cursor_[BucketOf(positions[i])]++] =
          static_cast<uint32_t>(i);
    }
  }

  /// Number of positions the last Build covered (live + masked); callers
  /// compare against cell.size() to detect growth.
  std::size_t built_size() const { return indexed_n_; }

  /// Invokes `fn(i)` for every data index i whose position can lie within
  /// distance r of p (bucket-granular superset of the r-disk). Each index
  /// is visited exactly once; order is bucket-major, NOT ascending — use
  /// SortedCandidates when the visit order is semantically relevant.
  template <typename Fn>
  void ForEachCandidate(const geo::Point& p, double r, Fn&& fn) const {
    if (indexed_n_ == 0) return;
    const BucketRange range = ProbeRange(p, r);
    for (uint32_t by = range.y_lo; by <= range.y_hi; ++by) {
      const std::size_t row = static_cast<std::size_t>(by) * side_;
      for (uint32_t bx = range.x_lo; bx <= range.x_hi; ++bx) {
        const std::size_t b = row + bx;
        for (uint32_t k = starts_[b]; k < starts_[b + 1]; ++k) {
          fn(items_[k]);
        }
      }
    }
  }

  /// The ForEachCandidate set in ascending data-index order (eSPQsco's
  /// Lemma-3 first-hit reporting depends on it). `out` is caller-owned
  /// scratch, reused across probes. A probe covering every bucket (r
  /// comparable to the cell edge) short-circuits to 0..n-1 — ascending by
  /// construction — instead of paying a per-feature collect + sort just to
  /// reproduce that order.
  void SortedCandidates(const geo::Point& p, double r,
                        std::vector<uint32_t>* out) const {
    out->clear();
    if (indexed_n_ == 0) return;
    const BucketRange range = ProbeRange(p, r);
    // The full-cover short-circuit assumes the indexed rows are exactly
    // 0..n-1; a dead-masked build skips rows, so it takes the generic
    // collect + sort path (same set, same ascending order).
    if (contiguous_ && range.x_lo == 0 && range.y_lo == 0 &&
        range.x_hi == side_ - 1 && range.y_hi == side_ - 1) {
      out->resize(indexed_n_);
      std::iota(out->begin(), out->end(), 0u);
      return;
    }
    for (uint32_t by = range.y_lo; by <= range.y_hi; ++by) {
      const std::size_t row = static_cast<std::size_t>(by) * side_;
      for (uint32_t bx = range.x_lo; bx <= range.x_hi; ++bx) {
        const std::size_t b = row + bx;
        for (uint32_t k = starts_[b]; k < starts_[b + 1]; ++k) {
          out->push_back(items_[k]);
        }
      }
    }
    std::sort(out->begin(), out->end());
  }

 private:
  static constexpr uint32_t kMaxSide = 256;

  /// Inclusive bucket rectangle overlapping the axis-aligned square
  /// [p ± r], padded one bucket outward (see class comment).
  struct BucketRange {
    uint32_t x_lo, x_hi, y_lo, y_hi;
  };

  BucketRange ProbeRange(const geo::Point& p, double r) const {
    return BucketRange{LowIdx((p.x - r - min_x_) * inv_w_),
                       HighIdx((p.x + r - min_x_) * inv_w_),
                       LowIdx((p.y - r - min_y_) * inv_h_),
                       HighIdx((p.y + r - min_y_) * inv_h_)};
  }

  std::size_t BucketOf(const geo::Point& p) const {
    return static_cast<std::size_t>(MidIdx((p.y - min_y_) * inv_h_)) * side_ +
           MidIdx((p.x - min_x_) * inv_w_);
  }
  /// Bucket of a coordinate inside the build bbox, clamped onto the
  /// boundary buckets (the bbox's max edge scales to exactly side_).
  uint32_t MidIdx(double scaled) const {
    if (!(scaled > 0.0)) return 0;
    const double hi = static_cast<double>(side_ - 1);
    return static_cast<uint32_t>(scaled < hi ? scaled : hi);
  }
  /// Probe range ends: floor, padded one bucket outward, clamped. The
  /// clamp happens in the double domain BEFORE the integer cast: probe
  /// points may lie arbitrarily far outside the build bbox, and casting a
  /// double >= 2^32 to uint32_t is undefined behavior.
  uint32_t LowIdx(double scaled) const {
    const double f = std::floor(scaled) - 1.0;
    if (!(f > 0.0)) return 0;
    const double hi = static_cast<double>(side_ - 1);
    return static_cast<uint32_t>(f < hi ? f : hi);
  }
  uint32_t HighIdx(double scaled) const {
    const double f = std::floor(scaled) + 1.0;
    if (!(f > 0.0)) return 0;
    const double hi = static_cast<double>(side_ - 1);
    return static_cast<uint32_t>(f < hi ? f : hi);
  }

  uint32_t side_ = 0;
  double min_x_ = 0.0, min_y_ = 0.0;
  double inv_w_ = 0.0, inv_h_ = 0.0;
  std::vector<uint32_t> starts_;  ///< CSR offsets, side_² + 1 entries
  std::vector<uint32_t> items_;   ///< data indices, bucket-major, ascending
  std::vector<uint32_t> cursor_;  ///< build scratch
  std::size_t indexed_n_ = 0;     ///< physical rows covered (live + masked)
  /// False after a dead-masked Build: items_ are then a strict subset of
  /// 0..indexed_n_-1 and the full-cover iota short-circuit is invalid.
  bool contiguous_ = true;
};

/// The reduce cores access cell state through one of two borrowed refs.
/// The ref decides, at compile time, whether the group may still grow:
///
///  - OwnedCellRef: mutable cell + index, private to the calling task. Data
///    records streaming through the group accumulate via Add, and before
///    each probe the index is rebuilt whenever the cell has grown since
///    the last build. A cold group streams all its data before its first
///    feature (data sort first under all three algorithms, ties
///    included), so that is one build per group; a data record arriving
///    after a feature would still be indexed. Used by the cold path
///    (fresh locals per group, see RunReduceOwned).
///  - FrozenCellRef: const cell + const FULLY BUILT index — an immutable
///    store partition that any number of concurrent queries may share.
///    Add is impossible by construction (warm streams carry only features;
///    hitting it is a caller bug and asserts) and SyncIndex is a no-op
///    (materialization builds the index eagerly, so serving never mutates).
struct OwnedCellRef {
  CellData* cell;
  CellGridIndex* index;

  const CellData& data() const { return *cell; }
  const CellGridIndex& idx() const { return *index; }
  /// Owned groups stream records in; nothing is ever tombstoned.
  const std::vector<uint32_t>* DeadRows() const { return nullptr; }
  template <typename X>
  void Add(const X& x) {
    cell->Add(x);
  }
  void SyncIndex() {
    if (index->built_size() != cell->size()) index->Build(cell->positions);
  }
};

struct FrozenCellRef {
  const CellData* cell;
  const CellGridIndex* index;
  /// Row indices tombstoned by the mutable-store layer (nullptr or empty
  /// when the partition is clean). The cores mask these out of their
  /// per-query scratch BEFORE any pair is counted, which is provably
  /// equivalent — for results and for every counter — to the rows being
  /// physically absent (see the tombstone notes in RunPspq/RunEspqSco).
  const std::vector<uint32_t>* dead_rows = nullptr;

  const CellData& data() const { return *cell; }
  const CellGridIndex& idx() const { return *index; }
  const std::vector<uint32_t>* DeadRows() const {
    return (dead_rows != nullptr && !dead_rows->empty()) ? dead_rows : nullptr;
  }
  template <typename X>
  void Add(const X&) {
    // A data record in a frozen group would mean the warm map phase emitted
    // dataset rows — impossible by construction (it maps features only).
    // Mutating shared immutable state is never acceptable; drop the record
    // loudly in debug builds rather than corrupt concurrent readers.
    assert(false && "data record reached a frozen (immutable) cell");
  }
  void SyncIndex() const {}  // index is complete at materialization
};

namespace internal {

/// The pSPQ/eSPQlen inner loop for one surviving feature: walk the index
/// candidates, skip those whose running score `w` cannot improve, and
/// distance-test the rest in place. The visit order is irrelevant here —
/// the probe visits each index once and reads its own pre-feature score,
/// and TopKList selection is a strict total order — so the unordered
/// bucket walk is safe. `pairs` counts the candidates tested.
///
/// `scores` is the query's running best-score array (parallel to the cell
/// arrays, owned by the caller's QueryScratch): this function is the only
/// writer the probe loops have, and the borrowed cell itself stays const.
template <typename CellRef, typename X>
inline void ScoreFeatureAgainstCell(const X& x, double w, double radius,
                                    double r2, CellRef& ref,
                                    std::vector<double>& scores, TopKList& lk,
                                    uint64_t& pairs) {
  const CellData& cell = ref.data();
  ref.SyncIndex();
  ref.idx().ForEachCandidate(x.pos, radius, [&](std::size_t i) {
    if (w <= scores[i]) return;  // cannot improve p's score
    ++pairs;
    // `<=`, so a NaN distance never scores.
    if (geo::Distance2(cell.positions[i], x.pos) <= r2) {
      scores[i] = w;
      lk.Update(cell.ids[i], w);
    }
  });
}

}  // namespace internal

/// Per-QUERY mutable state of one reduce group, owned by the caller and
/// passed into the cores alongside the (possibly shared, frozen) cell.
/// Reusing one instance across a task's groups keeps the warm loop
/// allocation-free in steady state — every container is assign()ed to the
/// group's population, so capacity persists while values never leak from
/// one query to the next. Never share an instance between threads.
struct QueryScratch {
  /// Running best score per data index (pSPQ/eSPQlen threshold skip).
  std::vector<double> scores;
  /// Per-query report bitmap (eSPQsco Lemma-3 first-hit accounting). Byte
  /// bitmap, not vector<bool>: a proxy per probe costs more than the probe
  /// itself on dense cells.
  std::vector<uint8_t> reported;
  /// SortedCandidates output, reused across probes.
  std::vector<uint32_t> sorted;
};

/// The reduce cores below BORROW their cell state through a CellRef
/// (OwnedCellRef or FrozenCellRef, above) and their per-query mutable
/// state through a QueryScratch. The caller owns both lifetimes:
///  - cold path: owned ref over fresh (empty) locals — data objects stream
///    in through `values` and accumulate as before (see RunReduceOwned);
///  - warm/resident path: frozen ref over a pre-populated immutable
///    CellData + fully built index; `values` then carries only the query's
///    features and the cores write exclusively into `scratch`.
/// The scratch arrays are (re)initialized here to the group's population,
/// so callers only provide storage, never reset it.

/// Algorithm 2 (pSPQ): full scan of the cell's features, threshold-pruned.
template <typename CellRef, typename Values, typename EmitFn>
void RunPspq(const Query& query, CellRef& cell, QueryScratch& scratch,
             Values& values, mapreduce::Counters& counters, EmitFn&& emit) {
  counters.Increment(counter::kGroups);
  TopKList lk(query.k);
  const double r2 = query.radius * query.radius;
  const std::vector<text::TermId>& q_ids = query.keywords.ids();
  scratch.scores.assign(cell.data().size(), 0.0);
  // Tombstoned rows (mutable store): an infinite running best makes the
  // `w <= scores[i]` gate skip the row BEFORE the pair counter, and a
  // skipped row never enters the top-k list — bit-identical, results and
  // counters both, to the row being physically absent. Jaccard scores are
  // <= 1, so no live feature can ever pass the gate.
  if (const std::vector<uint32_t>* dead = cell.DeadRows()) {
    for (uint32_t i : *dead) {
      scratch.scores[i] = std::numeric_limits<double>::infinity();
    }
  }
  uint64_t examined = 0;
  uint64_t pairs = 0;
  while (values.Next()) {
    const auto& x = values.value();
    if (x.is_data()) {
      cell.Add(x);
      scratch.scores.push_back(0.0);
      continue;
    }
    ++examined;
    const double w =
        text::JaccardSortedBounded(KeywordData(x), KeywordCount(x),
                                   q_ids.data(), q_ids.size(), lk.Threshold());
    if (w > lk.Threshold()) {
      internal::ScoreFeatureAgainstCell(x, w, query.radius, r2, cell,
                                        scratch.scores, lk, pairs);
    }
  }
  counters.Increment(counter::kFeaturesExamined, examined);
  counters.Increment(counter::kPairsTested, pairs);
  for (const ResultEntry& e : lk.entries()) emit(e);
}

/// Algorithm 4 (eSPQlen): features by increasing |f.W|; stop at Lemma 2.
template <typename CellRef, typename Values, typename EmitFn>
void RunEspqLen(const Query& query, CellRef& cell, QueryScratch& scratch,
                Values& values, mapreduce::Counters& counters,
                EmitFn&& emit) {
  counters.Increment(counter::kGroups);
  TopKList lk(query.k);
  const double r2 = query.radius * query.radius;
  const std::vector<text::TermId>& q_ids = query.keywords.ids();
  const std::size_t qlen = q_ids.size();
  scratch.scores.assign(cell.data().size(), 0.0);
  // Tombstone masking; see the proof note in RunPspq.
  if (const std::vector<uint32_t>* dead = cell.DeadRows()) {
    for (uint32_t i : *dead) {
      scratch.scores[i] = std::numeric_limits<double>::infinity();
    }
  }
  uint64_t examined = 0;
  uint64_t pairs = 0;
  while (values.Next()) {
    const auto& x = values.value();
    if (x.is_data()) {
      cell.Add(x);
      scratch.scores.push_back(0.0);
      continue;
    }
    const double upper = text::JaccardUpperBound(qlen, KeywordCount(x));
    if (lk.Threshold() >= upper) {
      // Lemma 2: no unseen feature (all at least this long) can beat τ.
      counters.Increment(counter::kEarlyTerminations);
      break;
    }
    ++examined;
    const double w =
        text::JaccardSortedBounded(KeywordData(x), KeywordCount(x),
                                   q_ids.data(), q_ids.size(), lk.Threshold());
    if (w > lk.Threshold()) {
      internal::ScoreFeatureAgainstCell(x, w, query.radius, r2, cell,
                                        scratch.scores, lk, pairs);
    }
  }
  counters.Increment(counter::kFeaturesExamined, examined);
  counters.Increment(counter::kPairsTested, pairs);
  for (const ResultEntry& e : lk.entries()) emit(e);
}

/// Algorithm 6 (eSPQsco): features by decreasing score (read off the
/// composite key's `order`); stop after k reports (Lemma 3).
template <typename CellRef, typename Values, typename EmitFn>
void RunEspqSco(const Query& query, CellRef& cell_ref, QueryScratch& qscratch,
                Values& values, mapreduce::Counters& counters,
                EmitFn&& emit) {
  counters.Increment(counter::kGroups);
  // Report bitmap pre-sized to the borrowed cell's current population
  // (warm path); grows with Add on the owned path.
  std::vector<uint8_t>& reported = qscratch.reported;
  reported.assign(cell_ref.data().size(), 0);
  // Tombstoned rows (mutable store) are pre-marked reported: the walk
  // consults `reported[i]` BEFORE a pair is counted or emitted, and a
  // pre-marked row never increments reported_count — bit-identical, for
  // results and every counter, to the row being physically absent.
  if (const std::vector<uint32_t>* dead = cell_ref.DeadRows()) {
    for (uint32_t i : *dead) reported[i] = 1;
  }
  std::vector<uint32_t>& candidates = qscratch.sorted;
  const double r2 = query.radius * query.radius;
  const CellData& cell = cell_ref.data();
  uint32_t reported_count = 0;
  uint64_t examined = 0;
  uint64_t pairs = 0;
  while (values.Next()) {
    const auto& x = values.value();
    if (x.is_data()) {
      cell_ref.Add(x);
      reported.push_back(0);
      continue;
    }
    // The map phase stored -w(f, q) in the secondary key (Algorithm 5).
    const double w = -values.key().order;
    if (w <= 0.0) {
      // Only reachable with the keyword prefilter disabled: the rest of
      // the (descending) order is all zero-score features.
      counters.Increment(counter::kEarlyTerminations);
      break;
    }
    ++examined;
    // Lemma 3 reports in ascending data-index order and stops at k: walk
    // the ascending candidates, skip the reported ones, and test the rest
    // until the k-th report. `pairs` counts the tests made; no candidate
    // past the k-th report is tested.
    cell_ref.SyncIndex();
    cell_ref.idx().SortedCandidates(x.pos, query.radius, &candidates);
    bool done = false;
    for (uint32_t i : candidates) {
      if (reported[i]) continue;
      ++pairs;
      if (!(geo::Distance2(cell.positions[i], x.pos) <= r2)) continue;
      // Decreasing-score order makes w the final τ(p) (Lemma 3).
      emit(ResultEntry{cell.ids[i], w});
      reported[i] = 1;
      done = ++reported_count == query.k;
      if (done) break;
    }
    if (done) {
      counters.Increment(counter::kEarlyTerminations);
      break;
    }
  }
  counters.Increment(counter::kFeaturesExamined, examined);
  counters.Increment(counter::kPairsTested, pairs);
}

/// Dispatch by algorithm, joining against a borrowed cell ref + per-query
/// scratch (see the borrowing contract above).
template <typename CellRef, typename Values, typename EmitFn>
void RunReduce(Algorithm algo, const Query& query, CellRef& cell,
               QueryScratch& scratch, Values& values,
               mapreduce::Counters& counters, EmitFn&& emit) {
  // Per-GROUP span, never per feature/pair: disabled tracing costs one
  // relaxed load + branch here — unmeasurable against a group's join work
  // (the bench_store overhead gate holds this line to its contract).
  TRACE_SPAN("reduce.join");
  switch (algo) {
    case Algorithm::kPSPQ:
      RunPspq(query, cell, scratch, values, counters, emit);
      return;
    case Algorithm::kESPQLen:
      RunEspqLen(query, cell, scratch, values, counters, emit);
      return;
    case Algorithm::kESPQSco:
      RunEspqSco(query, cell, scratch, values, counters, emit);
      return;
  }
}

/// Cold-path convenience: one-shot group evaluation over fresh (owned)
/// cell state — the pre-CellStore behavior, used by the single-query
/// reducers where nothing outlives the group.
template <typename Values, typename EmitFn>
void RunReduceOwned(Algorithm algo, const Query& query, Values& values,
                    mapreduce::Counters& counters, EmitFn&& emit) {
  CellData cell;
  CellGridIndex index;
  QueryScratch scratch;
  OwnedCellRef ref{&cell, &index};
  RunReduce(algo, query, ref, scratch, values, counters, emit);
}

}  // namespace spq::core::reduce_core

#endif  // SPQ_SPQ_REDUCE_CORE_H_
