#include "spq/batch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <utility>

#include "spq/reduce_core.h"
#include "text/keyword_set.h"

namespace spq::core {

namespace {

using BatchMapContext = mapreduce::MapContext<BatchCellKey, ShuffleObject>;
using BatchGroupCursor = mapreduce::FlatGroupCursor<BatchCellKey, ShuffleObject>;
using BatchReduceContext = mapreduce::ReduceContext<BatchResultEntry>;

/// One input pass serving every query of the batch.
///
/// Key layout: data objects are emitted ONCE per cell under the sentinel
/// query index 0 (so they sort before every query's feature group within
/// the cell); query q's features go under query index q+1. The reducer
/// caches the cell's data objects from the sentinel group and replays them
/// into each query group, so the batch does not multiply the data-object
/// shuffle by the batch size.
class BatchMapper final
    : public mapreduce::Mapper<ShuffleObject, BatchCellKey, ShuffleObject> {
 public:
  BatchMapper(Algorithm algo, std::shared_ptr<const std::vector<Query>> queries,
              geo::UniformGrid grid, bool keyword_prefilter)
      : algo_(algo),
        queries_(std::move(queries)),
        grid_(std::move(grid)),
        keyword_prefilter_(keyword_prefilter) {
    query_sigs_.reserve(queries_->size());
    for (const Query& query : *queries_) {
      query_sigs_.push_back(text::TermSignature(query.keywords.ids()));
    }
    BuildTermDict();
  }

  void Map(const ShuffleObject& x, BatchMapContext& ctx) override {
    if (x.is_data()) {
      ctx.counters().Increment(counter::kDataObjects);
      ctx.Emit(BatchCellKey{grid_.CellOf(x.pos), kDataQuery, 0.0}, x);
      return;
    }
    // Exact dictionary screen: when the batch's distinct query terms fit
    // the dict (the common case — B queries with a few keywords each),
    // the per-(feature, query) keyword test collapses to a 2-word AND,
    // and popcount of the AND *is* |x.W ∩ q.W| — no sorted merge at all.
    // The 64-bit TermSignature screen below passes ~2/3 of truly disjoint
    // pairs on keyword-dense features, so at batch scale the merges it
    // fails to skip used to dominate the map phase.
    if (dict_enabled_ && keyword_prefilter_) {
      MapWithDict(x, ctx);
      return;
    }
    // One borrowed alias serves every query's emissions: the batch
    // multiplies the per-feature emission count by the batch size, so the
    // O(1) span copy (vs. a keyword-vector clone per copy) matters even
    // more here than in the single-query mapper.
    const ShuffleObject borrowed = x.Borrowed();
    // Counter tallies for the whole query loop, flushed once per record:
    // Counters::Increment is a mutex + string-keyed map lookup, which at
    // one call per (feature, query) pair was the single largest map-phase
    // cost of a batch job — and the per-pair bookkeeping is exactly the
    // kind of work batching exists to amortize. Totals are unchanged.
    uint64_t pruned = 0, kept = 0, dups = 0;
    for (uint32_t q = 0; q < queries_->size(); ++q) {
      const Query& query = (*queries_)[q];
      // Signature screen (see SpqMapper): one AND replaces the exact merge
      // for queries this feature shares no term with — the common case in
      // a large batch. Same drop, same counter as the prefilter below.
      if (keyword_prefilter_ && x.keyword_sig != 0 &&
          (x.keyword_sig & query_sigs_[q]) == 0) {
        ++pruned;
        continue;
      }
      // Span accessors, not x.keywords: a record may be a borrowed alias.
      const std::size_t common = text::SortedIntersectionSize(
          KeywordData(x), KeywordCount(x), query.keywords.ids().data(),
          query.keywords.ids().size());
      if (common == 0 && keyword_prefilter_) {
        ++pruned;
        continue;
      }
      ++kept;
      dups += EmitCopies(x, q, common, borrowed, ctx);
    }
    if (pruned > 0) {
      ctx.counters().Increment(counter::kFeaturesPruned, pruned);
    }
    if (kept > 0) {
      // kFeatureDuplicates flushes under the kept guard (not dups > 0):
      // the per-pair code incremented it by targets.size() for every kept
      // feature, so the counter existed whenever a feature was kept even
      // if no query ever needed Lemma-1 duplication.
      ctx.counters().Increment(counter::kFeaturesKept, kept);
      ctx.counters().Increment(counter::kFeatureDuplicates, dups);
    }
  }

  static constexpr uint32_t kDataQuery = 0;

 private:
  /// 256 dictionary bits: comfortably holds the distinct terms of a
  /// coalesced batch (B queries × a few keywords, minus overlap) — e.g. a
  /// 48-query batch of 5-keyword queries fits even with zero overlap —
  /// at four ANDs + popcounts per screen.
  static constexpr std::size_t kDictWords = 4;
  using TermMask = std::array<uint64_t, kDictWords>;

  /// Maps each distinct query term to one dictionary bit. Distinctness is
  /// what makes the screen exact: popcount(feature_mask & query_mask) is
  /// |x.W ∩ q.W| with no hash collisions, so the dict path prunes exactly
  /// the common == 0 pairs the merge path prunes and feeds FeatureOrder
  /// the same intersection size. Batches with more distinct terms than
  /// bits keep the signature + merge path.
  void BuildTermDict() {
    std::vector<uint32_t> terms;
    for (const Query& q : *queries_) {
      terms.insert(terms.end(), q.keywords.ids().begin(),
                   q.keywords.ids().end());
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    if (terms.size() > kDictWords * 64) return;
    dict_terms_ = std::move(terms);
    query_masks_.assign(queries_->size(), TermMask{});
    for (std::size_t qi = 0; qi < queries_->size(); ++qi) {
      for (uint32_t id : (*queries_)[qi].keywords.ids()) {
        const std::size_t bit = static_cast<std::size_t>(
            std::lower_bound(dict_terms_.begin(), dict_terms_.end(), id) -
            dict_terms_.begin());
        query_masks_[qi][bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
    dict_enabled_ = true;
  }

  /// The dict-screened feature path: one linear walk tags the feature's
  /// dictionary terms, then every query costs two ANDs and a popcount.
  void MapWithDict(const ShuffleObject& x, BatchMapContext& ctx) {
    TermMask fmask{};
    const uint32_t* kw = KeywordData(x);
    const std::size_t n = KeywordCount(x);
    // Both lists are sorted; lockstep walk, O(|x.W| + |dict|).
    std::size_t di = 0;
    for (std::size_t i = 0; i < n && di < dict_terms_.size(); ++i) {
      while (di < dict_terms_.size() && dict_terms_[di] < kw[i]) ++di;
      if (di < dict_terms_.size() && dict_terms_[di] == kw[i]) {
        fmask[di / 64] |= uint64_t{1} << (di % 64);
        ++di;
      }
    }
    const ShuffleObject borrowed = x.Borrowed();
    uint64_t pruned = 0, kept = 0, dups = 0;
    for (uint32_t q = 0; q < queries_->size(); ++q) {
      int common_bits = 0;
      for (std::size_t w = 0; w < kDictWords; ++w) {
        common_bits += std::popcount(fmask[w] & query_masks_[q][w]);
      }
      const std::size_t common = static_cast<std::size_t>(common_bits);
      if (common == 0) {
        ++pruned;
        continue;
      }
      ++kept;
      dups += EmitCopies(x, q, common, borrowed, ctx);
    }
    if (pruned > 0) {
      ctx.counters().Increment(counter::kFeaturesPruned, pruned);
    }
    if (kept > 0) {
      ctx.counters().Increment(counter::kFeaturesKept, kept);
      ctx.counters().Increment(counter::kFeatureDuplicates, dups);
    }
  }

  /// Emits kept feature `x` for query `q` to its cell and its Lemma-1
  /// targets; returns the duplicate count. The scratch target list is
  /// reused: a per-(feature, query) allocation would multiply by the batch
  /// size.
  std::size_t EmitCopies(const ShuffleObject& x, uint32_t q,
                         std::size_t common, const ShuffleObject& borrowed,
                         BatchMapContext& ctx) {
    const Query& query = (*queries_)[q];
    const double order = FeatureOrder(algo_, query, x, common);
    return EmitFeatureCopies(
        grid_, x.pos, query.radius, targets_scratch_, [&](geo::CellId cell) {
          ctx.Emit(BatchCellKey{cell, q + 1, order}, borrowed);
        });
  }

  Algorithm algo_;
  std::shared_ptr<const std::vector<Query>> queries_;
  geo::UniformGrid grid_;
  bool keyword_prefilter_;
  std::vector<uint64_t> query_sigs_;  ///< TermSignature per batch query
  std::vector<geo::CellId> targets_scratch_;  ///< CellsWithinDist reuse
  std::vector<uint32_t> dict_terms_;  ///< sorted distinct query terms
  std::vector<TermMask> query_masks_;  ///< per-query dictionary bits
  bool dict_enabled_ = false;
};

/// Group protocol of the batched job: groups arrive per cell as (cell, 0)
/// = the cell's data objects, then (cell, q+1) = query q's sorted
/// features. The state outlives one group (it is owned by the per-task
/// closure), so the cache carries across the groups of one cell and is
/// invalidated when the cell changes — cells without data objects produce
/// no sentinel group.
///
/// The cache is a thin per-cell view shaped exactly like a CellStore
/// partition: the sentinel group's data objects land straight in a
/// CellData (SoA ids/positions — no retained ShuffleObjects or views) and
/// the lazily built CellGridIndex is SHARED by every query group of the
/// cell; the per-query state (scores / report bitmap) lives in the
/// QueryScratch the reduce cores re-initialize each group. Before this
/// refactor each query group replayed the raw records through the reduce
/// core, rebuilding CellData and the index per query.
struct BatchCellCache {
  reduce_core::CellData cell;
  reduce_core::CellGridIndex index;
  reduce_core::QueryScratch scratch;
  geo::CellId cache_cell = 0;
  bool has_cache = false;

  void Rebind(geo::CellId c) {
    cell.Clear();
    index.Reset();  // Sync compares sizes only; contents changed
    cache_cell = c;
    has_cache = true;
  }
};

void BatchReduceGroup(Algorithm algo, const std::vector<Query>& queries,
                      BatchCellCache& state, const BatchCellKey& group_key,
                      BatchGroupCursor& values, BatchReduceContext& ctx) {
  if (group_key.query == BatchMapper::kDataQuery) {
    state.Rebind(group_key.cell);
    while (values.Next()) state.cell.Add(values.value());
    return;
  }
  if (!state.has_cache || state.cache_cell != group_key.cell) {
    // No data objects in this cell: results are necessarily empty, but
    // the group must still be drained consistently (the runtime skips
    // leftovers anyway). Run with an empty cache for uniformity.
    state.Rebind(group_key.cell);
  }
  const uint32_t q = group_key.query - 1;
  if (q >= queries.size()) return;  // defensive
  const Query& query = queries[q];
  // Owned ref: the cache is private to this reduce task, and the index is
  // still allowed to build lazily at the cell's first probe.
  reduce_core::OwnedCellRef cell_ref{&state.cell, &state.index};
  reduce_core::RunReduce(algo, query, cell_ref, state.scratch, values,
                         ctx.counters(),
                         [&ctx, q](const ResultEntry& e) {
                           ctx.Emit(BatchResultEntry{q, e});
                         });
}

}  // namespace

mapreduce::JobSpec<ShuffleObject, BatchCellKey, ShuffleObject,
                   BatchResultEntry>
MakeBatchSpqJobSpec(Algorithm algo, const std::vector<Query>& queries,
                    const geo::UniformGrid& grid, bool keyword_prefilter) {
  auto shared_queries =
      std::make_shared<const std::vector<Query>>(queries);
  mapreduce::JobSpec<ShuffleObject, BatchCellKey, ShuffleObject,
                     BatchResultEntry>
      spec;
  spec.mapper_factory = [algo, shared_queries, grid, keyword_prefilter]() {
    return std::make_unique<BatchMapper>(algo, shared_queries, grid,
                                         keyword_prefilter);
  };
  spec.partitioner = BatchPartitioner;
  // The per-cell cache is per-task state captured by the closure (data
  // views decay into the cache's SoA arrays immediately, so no pool
  // reference is retained).
  spec.flat_reducer_factory = [algo, shared_queries]() {
    auto state = std::make_shared<BatchCellCache>();
    return [algo, shared_queries, state](const BatchCellKey& group_key,
                                         BatchGroupCursor& values,
                                         BatchReduceContext& ctx) {
      BatchReduceGroup(algo, *shared_queries, *state, group_key, values, ctx);
    };
  };
  return spec;
}

}  // namespace spq::core
