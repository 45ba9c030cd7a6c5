#ifndef SPQ_SPQ_ALGORITHMS_H_
#define SPQ_SPQ_ALGORITHMS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "mapreduce/job.h"
#include "spq/shuffle_types.h"
#include "spq/types.h"

namespace spq::core {

/// The three parallel SPQ algorithms of the paper.
enum class Algorithm {
  /// Grid partitioning, no early termination (Section 4, Algorithms 1+2).
  kPSPQ,
  /// Early termination; features sorted by increasing keyword-set length
  /// (Section 5.1, Algorithms 3+4).
  kESPQLen,
  /// Early termination; features sorted by decreasing map-side Jaccard
  /// score (Section 5.2, Algorithms 5+6).
  kESPQSco,
};

/// "pSPQ" / "eSPQlen" / "eSPQsco" — the names used in the paper's plots.
std::string AlgorithmName(Algorithm algo);

/// Secondary-sort component assigned to data objects by `algo`'s mapper
/// (0 for pSPQ/eSPQlen; kDataOrderScore for eSPQsco).
double DataOrder(Algorithm algo);

/// Secondary-sort component assigned to a feature object: the tag (pSPQ),
/// |f.W| (eSPQlen) or -w(f,q) (eSPQsco). `common` is |x.W ∩ q.W|,
/// precomputed by the caller's prefilter pass.
double FeatureOrder(Algorithm algo, const Query& query,
                    const ShuffleObject& x, std::size_t common);

/// Emits a kept feature at `pos` to its own cell, then to every other cell
/// within MINDIST `radius` (Lemma 1's duplication targets, refilled into
/// the caller's `targets` scratch): `emit(cell)` once per copy. Returns the
/// number of duplicates, the map.feature_duplicates increment. The one
/// emission rule of the cold mappers and the warm map.
template <typename Emit>
std::size_t EmitFeatureCopies(const geo::UniformGrid& grid,
                              const geo::Point& pos, double radius,
                              std::vector<geo::CellId>& targets, Emit&& emit) {
  emit(grid.CellOf(pos));
  grid.CellsWithinDist(pos, radius, targets);
  for (geo::CellId target : targets) emit(target);
  return targets.size();
}

/// Counter names written by the mappers/reducers (exposed for benches and
/// tests; values are in JobStats::counters after a run).
namespace counter {
inline constexpr char kDataObjects[] = "map.data_objects";
inline constexpr char kFeaturesKept[] = "map.features_kept";
inline constexpr char kFeaturesPruned[] = "map.features_pruned";
inline constexpr char kFeatureDuplicates[] = "map.feature_duplicates";
inline constexpr char kFeaturesExamined[] = "reduce.features_examined";
inline constexpr char kPairsTested[] = "reduce.pairs_tested";
inline constexpr char kEarlyTerminations[] = "reduce.early_terminations";
inline constexpr char kGroups[] = "reduce.groups";
}  // namespace counter

/// \brief Builds the complete MapReduce job (mapper, partitioner and flat
/// reducer; the sort and grouping comparators are CellKey's
/// FlatShuffleTraits) evaluating `query` with `algo` on the grid `grid`.
///
/// The query and grid are copied into the returned spec, which is therefore
/// self-contained and safe to run after the originals go out of scope.
/// The job's input records are ShuffleObjects (the horizontally-partitioned
/// union of O and F); its outputs are per-cell top-k ResultEntry rows that
/// still need the global MergeTopK (done by SpqEngine).
///
/// `keyword_prefilter` is the map-side pruning of Algorithm 1 line 9 (drop
/// features sharing no keyword with q.W before the shuffle), tested by one
/// exact sorted merge per feature (text::SortedIntersectionSize), whose
/// count also feeds eSPQsco's map-side score. Disabling it is an ablation:
/// results stay correct, but irrelevant features get shuffled, duplicated
/// and (for pSPQ/eSPQlen) scored in the reducers.
mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject, ResultEntry>
MakeSpqJobSpec(Algorithm algo, const Query& query,
               const geo::UniformGrid& grid, bool keyword_prefilter = true);

/// Flattens a Dataset into the map input record stream: every data object
/// and every feature object as a tagged ShuffleObject, in dataset order
/// (data first, then features — the runtime splits this arbitrarily across
/// map tasks, matching the paper's "no assumption on partitioning").
std::vector<ShuffleObject> FlattenDataset(const Dataset& dataset);

}  // namespace spq::core

#endif  // SPQ_SPQ_ALGORITHMS_H_
