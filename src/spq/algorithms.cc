#include "spq/algorithms.h"

#include <memory>
#include <utility>
#include <vector>

#include "spq/reduce_core.h"
#include "spq/topk.h"
#include "text/jaccard.h"

namespace spq::core {

namespace {

using SpqMapContext = mapreduce::MapContext<CellKey, ShuffleObject>;

/// Shared map logic of Algorithms 1, 3 and 5. The algorithms differ only
/// in the secondary key assigned to each emission.
class SpqMapper final
    : public mapreduce::Mapper<ShuffleObject, CellKey, ShuffleObject> {
 public:
  SpqMapper(Algorithm algo, Query query, geo::UniformGrid grid,
            bool keyword_prefilter)
      : algo_(algo),
        query_(std::move(query)),
        grid_(std::move(grid)),
        keyword_prefilter_(keyword_prefilter),
        query_sig_(text::TermSignature(query_.keywords.ids())) {}

  void Map(const ShuffleObject& x, SpqMapContext& ctx) override {
    if (x.is_data()) {
      ctx.counters().Increment(counter::kDataObjects);
      ctx.Emit(CellKey{grid_.CellOf(x.pos), DataOrder(algo_)}, x);
      return;
    }
    // Signature screen ahead of the exact merge: a disjoint signature AND
    // proves x.W ∩ q.W = ∅ (keyword_set.h), which is exactly the prefilter
    // drop below with common == 0 — same counter, same outcome, minus the
    // O(|x.W| + |q.W|) merge. Only valid when the prefilter is on (the
    // ablation needs `common` for FeatureOrder) and the record carries a
    // computed signature (FlattenDataset's do; 0 means "unknown").
    if (keyword_prefilter_ && x.keyword_sig != 0 &&
        (x.keyword_sig & query_sig_) == 0) {
      ctx.counters().Increment(counter::kFeaturesPruned);
      return;
    }
    // Map-side pruning (line 9 of Algorithm 1): features sharing no term
    // with q.W can never score a data object and are dropped before the
    // shuffle. Disabled only for the prefilter ablation. Read through the
    // span accessors: a record may be a borrowed alias whose keyword list
    // lives in another object's storage.
    const std::size_t common = text::SortedIntersectionSize(
        KeywordData(x), KeywordCount(x), query_.keywords.ids().data(),
        query_.keywords.ids().size());
    if (common == 0 && keyword_prefilter_) {
      ctx.counters().Increment(counter::kFeaturesPruned);
      return;
    }
    ctx.counters().Increment(counter::kFeaturesKept);
    const double order = FeatureOrder(algo_, query_, x, common);
    // Every emission borrows the input record's keyword storage (the map
    // input is the term pool and outlives the job), so Lemma-1 duplication
    // below is an O(1) span copy per target cell, not a vector clone.
    const ShuffleObject borrowed = x.Borrowed();
    // Own cell, then Lemma 1's duplicates; one target list reused across
    // every feature this mapper instance maps.
    const std::size_t dups = EmitFeatureCopies(
        grid_, x.pos, query_.radius, targets_scratch_,
        [&](geo::CellId cell) { ctx.Emit(CellKey{cell, order}, borrowed); });
    ctx.counters().Increment(counter::kFeatureDuplicates, dups);
  }

 private:
  Algorithm algo_;
  Query query_;
  geo::UniformGrid grid_;
  bool keyword_prefilter_;
  uint64_t query_sig_;  ///< TermSignature(q.W), hoisted out of Map
  std::vector<geo::CellId> targets_scratch_;  ///< CellsWithinDist reuse
};

}  // namespace

std::string AlgorithmName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kPSPQ:
      return "pSPQ";
    case Algorithm::kESPQLen:
      return "eSPQlen";
    case Algorithm::kESPQSco:
      return "eSPQsco";
  }
  return "unknown";
}

double DataOrder(Algorithm algo) {
  return algo == Algorithm::kESPQSco ? kDataOrderScore : 0.0;
}

double FeatureOrder(Algorithm algo, const Query& query,
                    const ShuffleObject& x, std::size_t common) {
  switch (algo) {
    case Algorithm::kPSPQ:
      return 1.0;  // the tag of Algorithm 1: features after data
    case Algorithm::kESPQLen:
      return static_cast<double>(KeywordCount(x));  // Algorithm 3
    case Algorithm::kESPQSco: {
      // Algorithm 5: exact Jaccard in the Map phase; negated so one
      // ascending comparator yields decreasing score.
      const std::size_t uni =
          KeywordCount(x) + query.keywords.size() - common;
      if (uni == 0) return 0.0;  // both keyword sets empty
      return -(static_cast<double>(common) / static_cast<double>(uni));
    }
  }
  return 0.0;
}

mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject, ResultEntry>
MakeSpqJobSpec(Algorithm algo, const Query& query,
               const geo::UniformGrid& grid, bool keyword_prefilter) {
  mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject, ResultEntry> spec;
  spec.mapper_factory = [algo, query, grid, keyword_prefilter]() {
    return std::make_unique<SpqMapper>(algo, query, grid, keyword_prefilter);
  };
  spec.partitioner = CellPartitioner;
  // The reduce cores, fed zero-copy ShuffleObjectViews through the
  // non-virtual flat cursor.
  spec.flat_reducer_factory = [algo, query]() {
    return [algo, query](
               const CellKey&,
               mapreduce::FlatGroupCursor<CellKey, ShuffleObject>& values,
               mapreduce::ReduceContext<ResultEntry>& ctx) {
      reduce_core::RunReduceOwned(algo, query, values, ctx.counters(),
                                  [&ctx](const ResultEntry& e) { ctx.Emit(e); });
    };
  };
  return spec;
}

std::vector<ShuffleObject> FlattenDataset(const Dataset& dataset) {
  std::vector<ShuffleObject> records;
  records.reserve(dataset.data.size() + dataset.features.size());
  for (const DataObject& p : dataset.data) {
    ShuffleObject obj;
    obj.kind = ShuffleObject::kData;
    obj.id = p.id;
    obj.pos = p.pos;
    records.push_back(std::move(obj));
  }
  for (const FeatureObject& f : dataset.features) {
    ShuffleObject obj;
    obj.kind = ShuffleObject::kFeature;
    obj.id = f.id;
    obj.pos = f.pos;
    obj.keywords = f.keywords.ids();
    obj.keyword_sig = text::TermSignature(obj.keywords);
    records.push_back(std::move(obj));
  }
  return records;
}

}  // namespace spq::core
