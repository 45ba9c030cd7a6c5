// The oracle of a warm QueryBatch(): the paper's single-query MapReduce
// job (SpqEngine::Execute), run once per query of the batch on the store's
// grid. A batch must answer each query exactly as that job does, and its
// counters must add up to the jobs' where the two count the same work.

#ifndef SPQ_TESTS_TESTING_BATCH_ORACLE_H_
#define SPQ_TESTS_TESTING_BATCH_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "mapreduce/counters.h"
#include "spq/cell_store.h"
#include "spq/engine.h"

namespace spq::testing {

/// |R_q|: the cells the features kept for `query` reach — each one's own
/// cell plus its Lemma-1 duplicate cells (CellsWithinDist). A batch runs
/// one reduce group per such (cell, query); a single-query job also runs
/// one in each cell only data objects reach, so its group count differs.
inline uint64_t ReachedCellCount(const core::Dataset& dataset,
                                 const geo::UniformGrid& grid,
                                 const core::Query& query,
                                 bool keyword_prefilter) {
  std::vector<bool> reached(grid.num_cells(), false);
  for (const core::FeatureObject& f : dataset.features) {
    if (keyword_prefilter && !f.keywords.Intersects(query.keywords)) {
      continue;
    }
    reached[grid.CellOf(f.pos)] = true;
    for (geo::CellId c : grid.CellsWithinDist(f.pos, query.radius)) {
      reached[c] = true;
    }
  }
  uint64_t count = 0;
  for (bool r : reached) count += r;
  return count;
}

/// Checks `warm`, the result of engine.QueryBatch(queries, algo), against
/// engine.Execute(q, algo, <store grid size>) for each query q:
///  - identical answers (id and score, rank by rank);
///  - the six per-feature counters equal to the per-query sums;
///  - map_output_records equal to the sum of the jobs' feature emissions
///    (map output minus map.data_objects: the warm route maps no data);
///  - reduce.groups equal to the sum of ReachedCellCount.
inline void ExpectBatchMatchesSingleQueryJobs(
    const core::SpqEngine& engine, const std::vector<core::Query>& queries,
    core::Algorithm algo, const core::SpqBatchResult& warm,
    const std::string& label) {
  namespace counter = core::counter;
  ASSERT_NE(engine.store(), nullptr) << label;
  const geo::UniformGrid& grid = engine.store()->grid();
  ASSERT_EQ(warm.per_query.size(), queries.size()) << label;
  mapreduce::Counters sums;
  uint64_t feature_records = 0;
  uint64_t groups = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string where = label + ", query " + std::to_string(q);
    auto cold = engine.Execute(queries[q], algo, grid.nx());
    ASSERT_TRUE(cold.ok()) << where << ": " << cold.status().ToString();
    const std::vector<core::ResultEntry>& want = cold->entries;
    const std::vector<core::ResultEntry>& got = warm.per_query[q];
    ASSERT_EQ(want.size(), got.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id) << where << " @" << i;
      EXPECT_EQ(want[i].score, got[i].score) << where << " @" << i;
    }
    const mapreduce::JobStats& job = cold->info.job;
    sums.MergeFrom(job.counters);
    feature_records +=
        job.map_output_records - job.counters.Get(counter::kDataObjects);
    groups += ReachedCellCount(engine.dataset(), grid, queries[q],
                               engine.options().keyword_prefilter);
  }
  for (const char* name :
       {counter::kFeaturesKept, counter::kFeaturesPruned,
        counter::kFeatureDuplicates, counter::kFeaturesExamined,
        counter::kPairsTested, counter::kEarlyTerminations}) {
    EXPECT_EQ(warm.job.counters.Get(name), sums.Get(name))
        << label << ": " << name;
  }
  EXPECT_EQ(warm.job.map_output_records, feature_records) << label;
  EXPECT_EQ(warm.job.counters.Get(counter::kGroups), groups) << label;
}

}  // namespace spq::testing

#endif  // SPQ_TESTS_TESTING_BATCH_ORACLE_H_
