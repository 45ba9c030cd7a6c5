#ifndef SPQ_SPQ_BATCH_H_
#define SPQ_SPQ_BATCH_H_

#include <cstdint>
#include <vector>

#include "geo/grid.h"
#include "mapreduce/job.h"
#include "spq/algorithms.h"
#include "spq/shuffle_types.h"
#include "spq/types.h"

namespace spq::core {

/// \brief Extension beyond the paper: evaluating a *batch* of queries in a
/// single MapReduce job.
///
/// The paper runs one job per query; under a query stream that pays the
/// full input scan and job scheduling once per query. The batched job
/// extends the composite key with a query index — (cell, query, order) —
/// so one scan of O ∪ F feeds every query's reduce groups: the partitioner
/// still routes by cell (one reduce task per cell, as in the paper), the
/// grouping comparator splits each cell's stream by query, and each group
/// runs the chosen algorithm's unchanged reduce core with per-query early
/// termination.
///
/// The map-side keyword prefilter and Lemma-1 duplication apply per query
/// (each query has its own radius and keywords); shuffled bytes therefore
/// still grow with the batch size — the saving is the shared input scan
/// and job overhead, which `bench_batch` quantifies.

/// Composite key of the batched job.
struct BatchCellKey {
  geo::CellId cell = 0;
  uint32_t query = 0;
  double order = 0.0;
};

/// The batched job's sort and grouping comparators; the flat shuffle runs
/// the equivalent FlatShuffleTraits order below (pinned by
/// shuffle_types_test.cc).
inline bool BatchKeySortLess(const BatchCellKey& a, const BatchCellKey& b) {
  if (a.cell != b.cell) return a.cell < b.cell;
  if (a.query != b.query) return a.query < b.query;
  return a.order < b.order;
}

inline bool BatchKeyGroupEqual(const BatchCellKey& a, const BatchCellKey& b) {
  return a.cell == b.cell && a.query == b.query;
}

inline uint32_t BatchPartitioner(const BatchCellKey& key,
                                 uint32_t num_partitions) {
  return key.cell % num_partitions;
}

/// One output row: which query the entry belongs to.
struct BatchResultEntry {
  uint32_t query = 0;
  ResultEntry entry;
};

/// Builds the batched job over `queries` (all evaluated with `algo` on the
/// shared `grid`). Queries may differ in k, radius and keywords;
/// `keyword_prefilter` is MakeSpqJobSpec's, applied per query.
mapreduce::JobSpec<ShuffleObject, BatchCellKey, ShuffleObject,
                   BatchResultEntry>
MakeBatchSpqJobSpec(Algorithm algo, const std::vector<Query>& queries,
                    const geo::UniformGrid& grid,
                    bool keyword_prefilter = true);

}  // namespace spq::core

namespace spq::mapreduce {

/// Flat-shuffle radix structure of the batched job: the bucket packs
/// (cell, query index) into one u64 — both CellId and the query index are
/// 32-bit — so bucket order equals (cell, query) order, bucket equality
/// equals BatchKeyGroupEqual, and the order key covers the remaining
/// secondary component exactly as in the single-query job.
template <>
struct FlatShuffleTraits<core::BatchCellKey, core::ShuffleObject> {
  static constexpr bool kEnabled = true;
  static constexpr uint32_t kPayloadStride = core::kShufflePayloadStride;
  using View = core::ShuffleObjectView;

  static uint64_t Bucket(const core::BatchCellKey& k) {
    return (static_cast<uint64_t>(k.cell) << 32) | k.query;
  }
  static uint64_t OrderKey(const core::BatchCellKey& k) {
    return core::OrderedDoubleKey(k.order);
  }
  static core::BatchCellKey MakeKey(uint64_t bucket, uint64_t order_key) {
    return core::BatchCellKey{static_cast<geo::CellId>(bucket >> 32),
                              static_cast<uint32_t>(bucket & 0xffffffffull),
                              core::OrderedKeyToDouble(order_key)};
  }
  static uint64_t PoolBytes(const core::ShuffleObject& v) {
    return core::ShufflePoolBytes(v);
  }
  static void EncodePayload(const core::ShuffleObject& v, uint8_t* dst,
                            uint8_t* pool, uint64_t* pool_pos) {
    core::EncodeShufflePayload(v, dst, pool, pool_pos);
  }
  static View MakeView(const uint8_t* payload, const uint8_t* span) {
    return core::MakeShuffleView(payload, span);
  }
};

}  // namespace spq::mapreduce

#endif  // SPQ_SPQ_BATCH_H_
