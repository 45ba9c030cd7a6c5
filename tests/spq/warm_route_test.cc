// The direct warm route under SpqEngine::Query()/QueryBatch():
//   - its answers and all seven SPQ counters equal the cold job's and do
//     not depend on how the feature input is split or how many threads
//     serve it — on a dataset heavy in ties (many features share one
//     keyword set, so eSPQsco scores and eSPQlen lengths tie inside
//     cells) that pins the "ties in feature-input order" contract the
//     route shares with the cold job's merge;
//   - its JobStats describe what it did: no shuffle bytes, no task
//     failures or spill files whatever the fault and spill options say
//     (those shape only cold jobs and the store build), one spq.job.runs
//     per query.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "spq/engine.h"
#include "testing/batch_oracle.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 8;
constexpr double kStoreRadius = 0.6 / kGridSize;

/// 2000 data objects and 1500 features whose keyword sets come from four
/// fixed sets, so most features in a cell tie with many others.
Dataset TieHeavyDataset() {
  const std::vector<std::vector<text::TermId>> sets = {
      {1, 2}, {1, 2, 3}, {2, 3, 4, 5}, {1}};
  Rng rng(2024);
  Dataset dataset;
  dataset.bounds = {0.0, 0.0, 1.0, 1.0};
  for (ObjectId id = 0; id < 2000; ++id) {
    dataset.data.push_back({id, {rng.NextDouble(), rng.NextDouble()}});
  }
  for (ObjectId id = 0; id < 1500; ++id) {
    FeatureObject f;
    f.id = 10'000 + id;
    f.pos = {rng.NextDouble(), rng.NextDouble()};
    f.keywords = text::KeywordSet(sets[rng.NextUint32(sets.size())]);
    dataset.features.push_back(std::move(f));
  }
  return dataset;
}

std::vector<Query> TieQueries() {
  const std::vector<std::vector<text::TermId>> keywords = {
      {1, 2}, {2, 3}, {1, 2, 3, 4, 5}, {1}, {4}, {3, 9}};
  std::vector<Query> queries;
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    Query q;
    q.keywords = text::KeywordSet(keywords[i]);
    q.radius = kStoreRadius * (0.3 + 0.7 * static_cast<double>(i % 3) / 2);
    q.k = 1 + static_cast<uint32_t>(i % 3) * 2;
    queries.push_back(q);
  }
  return queries;
}

/// The seven SPQ counters of one run, by name; warm and cold runs must
/// agree on all of them.
std::vector<uint64_t> SpqCounters(const mapreduce::Counters& c) {
  return {c.Get(counter::kFeaturesKept),     c.Get(counter::kFeaturesPruned),
          c.Get(counter::kFeatureDuplicates), c.Get(counter::kFeaturesExamined),
          c.Get(counter::kPairsTested),      c.Get(counter::kEarlyTerminations),
          c.Get(counter::kGroups)};
}

void ExpectSameEntries(const std::vector<ResultEntry>& want,
                       const std::vector<ResultEntry>& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label << " @" << i;
    EXPECT_EQ(want[i].score, got[i].score) << label << " @" << i;
  }
}

TEST(WarmRouteTest, AnswersDoNotDependOnSplitsOrWorkers) {
  const Dataset dataset = TieHeavyDataset();
  const std::vector<Query> queries = TieQueries();
  const Algorithm algos[] = {Algorithm::kPSPQ, Algorithm::kESPQLen,
                             Algorithm::kESPQSco};

  // References: the first configuration's warm answers, and the cold job.
  struct Answer {
    std::vector<ResultEntry> entries;
    std::vector<uint64_t> counters;
    uint64_t map_output_records = 0;
  };
  std::vector<Answer> single_ref;
  std::vector<std::vector<std::vector<ResultEntry>>> batch_ref;
  std::vector<std::vector<uint64_t>> batch_counters_ref;
  std::vector<uint64_t> batch_records_ref;

  EngineOptions cold_options;
  cold_options.grid_size = kGridSize;
  const SpqEngine cold(dataset, cold_options);

  bool first = true;
  for (uint32_t workers : {1u, 2u, 7u}) {
    for (uint32_t map_tasks : {1u, 5u, 13u}) {
      EngineOptions options;
      options.grid_size = kGridSize;
      options.num_workers = workers;
      options.num_map_tasks = map_tasks;
      SpqEngine engine(dataset, options);
      ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
      const std::string config = "workers " + std::to_string(workers) +
                                 ", map tasks " + std::to_string(map_tasks);
      std::size_t n = 0;
      for (Algorithm algo : algos) {
        for (std::size_t q = 0; q < queries.size(); ++q, ++n) {
          const std::string label =
              config + ", " + AlgorithmName(algo) + " query " +
              std::to_string(q);
          auto warm = engine.Query(queries[q], algo);
          ASSERT_TRUE(warm.ok()) << label << ": " << warm.status().ToString();
          ASSERT_TRUE(warm->info.warm_path) << label;
          Answer got{warm->entries, SpqCounters(warm->info.job.counters),
                     warm->info.job.map_output_records};
          if (first) {
            auto want = cold.Execute(queries[q], algo);
            ASSERT_TRUE(want.ok()) << label;
            ExpectSameEntries(want->entries, got.entries, label + " vs cold");
            EXPECT_EQ(SpqCounters(want->info.job.counters), got.counters)
                << label << " vs cold";
            single_ref.push_back(std::move(got));
            continue;
          }
          ExpectSameEntries(single_ref[n].entries, got.entries, label);
          EXPECT_EQ(single_ref[n].counters, got.counters) << label;
          EXPECT_EQ(single_ref[n].map_output_records, got.map_output_records)
              << label;
        }
        const std::string label = config + ", " + AlgorithmName(algo) +
                                  " batch";
        auto warm = engine.QueryBatch(queries, algo);
        ASSERT_TRUE(warm.ok()) << label << ": " << warm.status().ToString();
        ASSERT_TRUE(warm->warm_path) << label;
        const std::size_t a = static_cast<std::size_t>(algo);
        if (first) {
          testing::ExpectBatchMatchesSingleQueryJobs(engine, queries, algo,
                                                     *warm, label + " vs cold");
          batch_ref.push_back(warm->per_query);
          batch_counters_ref.push_back(SpqCounters(warm->job.counters));
          batch_records_ref.push_back(warm->job.map_output_records);
          continue;
        }
        for (std::size_t q = 0; q < queries.size(); ++q) {
          ExpectSameEntries(batch_ref[a][q], warm->per_query[q],
                            label + ", query " + std::to_string(q));
        }
        EXPECT_EQ(batch_counters_ref[a], SpqCounters(warm->job.counters))
            << label;
        EXPECT_EQ(batch_records_ref[a], warm->job.map_output_records)
            << label;
      }
      first = false;
    }
  }
}

TEST(WarmRouteTest, JobStatsDescribeTheRoute) {
  // Task faults at a high rate and a spill directory that cannot be
  // created (a regular file sits at its path): a cold job would retry
  // tasks and fail its first spill, the warm route must do neither.
  const std::string blocked =
      (std::filesystem::temp_directory_path() /
       ("spq_warm_route_spill-" + std::to_string(::getpid())))
          .string();
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 2;
  options.faults.map_failure_prob = 0.5;
  options.faults.reduce_failure_prob = 0.5;
  options.faults.seed = 77;
  options.max_task_attempts = 60;
  SpqEngine engine(TieHeavyDataset(), options);
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  EngineOptions spill_options = options;
  spill_options.spill_dir = blocked;
  SpqEngine spilling(TieHeavyDataset(), spill_options);
  ASSERT_TRUE(spilling.BuildStore(kStoreRadius).ok());
  std::filesystem::remove_all(blocked);  // the build job's spill directory
  std::ofstream(blocked) << "not a directory";
  ASSERT_TRUE(std::filesystem::is_regular_file(blocked));

  for (const SpqEngine* e : {&engine, &spilling}) {
    for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                           Algorithm::kESPQSco}) {
      const std::string label =
          AlgorithmName(algo) + (e == &spilling ? " with spill_dir" : "");
      const uint64_t runs_before =
          e->MetricsSnapshot().CounterValue("spq.job.runs");
      auto result = e->Query(TieQueries()[0], algo);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      EXPECT_EQ(e->MetricsSnapshot().CounterValue("spq.job.runs"),
                runs_before + 1)
          << label;
      const SpqRunInfo& info = result->info;
      const mapreduce::JobStats& job = info.job;
      EXPECT_TRUE(info.warm_path) << label;
      EXPECT_EQ(job.shuffle_bytes, 0u) << label;
      EXPECT_EQ(job.input_records, TieHeavyDataset().features.size()) << label;
      EXPECT_EQ(job.map_output_records,
                info.features_kept + info.feature_duplicates)
          << label;
      EXPECT_LE(job.map_seconds + job.reduce_seconds, job.total_seconds)
          << label;
      EXPECT_EQ(job.map_task_failures, 0u) << label;
      EXPECT_EQ(job.reduce_task_failures, 0u) << label;
      EXPECT_EQ(job.storage_fault_detections, 0u) << label;
      EXPECT_EQ(job.reduce_task_seconds.size(), info.num_reduce_tasks)
          << label;
    }
  }
  std::filesystem::remove(blocked);
}

}  // namespace
}  // namespace spq::core
