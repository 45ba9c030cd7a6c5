#include "spq/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "datagen/generator.h"
#include "spq/sequential.h"

namespace spq::core {
namespace {

Dataset TestDataset(uint64_t n = 2000) {
  auto dataset = datagen::MakeUniformDataset(
      {.num_objects = n, .seed = 3, .vocab_size = 30,
       .min_keywords = 1, .max_keywords = 8});
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

Query TestQuery() {
  Query q;
  q.k = 5;
  q.radius = 0.03;
  q.keywords = text::KeywordSet({1, 2});
  return q;
}

TEST(ValidateQueryTest, AcceptsReasonableQuery) {
  EXPECT_TRUE(ValidateQuery(TestQuery()).ok());
}

TEST(ValidateQueryTest, RejectsZeroK) {
  Query q = TestQuery();
  q.k = 0;
  EXPECT_TRUE(ValidateQuery(q).IsInvalidArgument());
}

TEST(ValidateQueryTest, RejectsBadRadius) {
  Query q = TestQuery();
  q.radius = -0.5;
  EXPECT_TRUE(ValidateQuery(q).IsInvalidArgument());
  q.radius = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateQuery(q).IsInvalidArgument());
  q.radius = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValidateQuery(q).IsInvalidArgument());
}

TEST(EngineTest, ExecuteRejectsInvalidQuery) {
  SpqEngine engine(TestDataset(100), {});
  Query q = TestQuery();
  q.k = 0;
  EXPECT_TRUE(engine.Execute(q, Algorithm::kPSPQ).status()
                  .IsInvalidArgument());
}

TEST(EngineTest, GridOverrideChangesPartitioning) {
  SpqEngine engine(TestDataset(), EngineOptions{.grid_size = 4});
  auto coarse = engine.Execute(TestQuery(), Algorithm::kESPQSco);
  auto fine = engine.Execute(TestQuery(), Algorithm::kESPQSco, 12);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(coarse->info.grid_size, 4u);
  EXPECT_EQ(fine->info.grid_size, 12u);
  EXPECT_EQ(coarse->info.num_reduce_tasks, 16u);
  EXPECT_EQ(fine->info.num_reduce_tasks, 144u);
  // Finer grids never reduce duplication.
  EXPECT_GE(fine->info.feature_duplicates, coarse->info.feature_duplicates);
  // Results identical regardless of grid.
  ASSERT_EQ(coarse->entries.size(), fine->entries.size());
  for (std::size_t i = 0; i < coarse->entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(coarse->entries[i].score, fine->entries[i].score);
  }
}

TEST(EngineTest, AutomaticGridSizeUsesAdvisor) {
  SpqEngine engine(TestDataset(), EngineOptions{.grid_size = 0});
  Query q = TestQuery();
  q.radius = 0.01;  // advisor: floor(1 / 0.02) = 50
  auto result = engine.Execute(q, Algorithm::kESPQSco);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->info.grid_size, 50u);
}

TEST(EngineTest, ExplicitReduceTaskCount) {
  EngineOptions options;
  options.grid_size = 10;
  options.num_reduce_tasks = 7;  // fewer reducers than cells
  SpqEngine engine(TestDataset(), options);
  auto result = engine.Execute(TestQuery(), Algorithm::kESPQSco);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->info.num_reduce_tasks, 7u);
  // Still correct versus the oracle.
  auto oracle = BruteForceSpq(engine.dataset(), TestQuery());
  ASSERT_EQ(result->entries.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_DOUBLE_EQ(result->entries[i].score, oracle[i].score);
  }
}

TEST(EngineTest, RunInfoIsConsistent) {
  SpqEngine engine(TestDataset(), EngineOptions{.grid_size = 8});
  auto result = engine.Execute(TestQuery(), Algorithm::kESPQLen);
  ASSERT_TRUE(result.ok());
  const SpqRunInfo& info = result->info;
  EXPECT_EQ(info.algorithm, Algorithm::kESPQLen);
  // Kept + pruned = all features.
  EXPECT_EQ(info.features_kept + info.features_pruned,
            engine.dataset().features.size());
  // Map output = all data objects + kept features + duplicates.
  EXPECT_EQ(info.job.map_output_records,
            engine.dataset().data.size() + info.features_kept +
                info.feature_duplicates);
  EXPECT_GE(info.MeasuredDuplicationFactor(), 1.0);
  EXPECT_GE(info.FeatureExaminationRatio(), 0.0);
  EXPECT_LE(info.FeatureExaminationRatio(), 1.0);
  EXPECT_GT(info.job.shuffle_bytes, 0u);
  EXPECT_GT(info.reduce_groups, 0u);
}

TEST(EngineTest, FaultInjectionThroughEngineStillCorrect) {
  EngineOptions options;
  options.grid_size = 6;
  options.faults.map_failure_prob = 0.3;
  options.faults.reduce_failure_prob = 0.3;
  options.faults.seed = 11;
  options.max_task_attempts = 30;
  Dataset dataset = TestDataset();
  SpqEngine faulty(dataset, options);
  SpqEngine clean(dataset, EngineOptions{.grid_size = 6});
  auto a = faulty.Execute(TestQuery(), Algorithm::kESPQSco);
  auto b = clean.Execute(TestQuery(), Algorithm::kESPQSco);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (std::size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_EQ(a->entries[i].id, b->entries[i].id);
    EXPECT_DOUBLE_EQ(a->entries[i].score, b->entries[i].score);
  }
  EXPECT_GT(a->info.job.map_task_failures +
                a->info.job.reduce_task_failures,
            0u);
}

TEST(EngineTest, EmptyDatasetYieldsEmptyResult) {
  Dataset dataset;
  dataset.bounds = {0, 0, 1, 1};
  SpqEngine engine(dataset, EngineOptions{.grid_size = 4});
  auto result = engine.Execute(TestQuery(), Algorithm::kPSPQ);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->entries.empty());
}

TEST(EngineTest, DataWithoutFeaturesYieldsEmptyResult) {
  Dataset dataset;
  dataset.bounds = {0, 0, 1, 1};
  dataset.data = {{1, {0.5, 0.5}}};
  SpqEngine engine(dataset, EngineOptions{.grid_size = 4});
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    auto result = engine.Execute(TestQuery(), algo);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty()) << AlgorithmName(algo);
  }
}

TEST(EngineTest, SpilledShuffleMatchesInMemory) {
  Dataset dataset = TestDataset();
  EngineOptions in_memory;
  in_memory.grid_size = 8;
  EngineOptions spilled = in_memory;
  spilled.spill_dir =
      (std::filesystem::temp_directory_path() / "spq_engine_spill").string();
  SpqEngine a(dataset, in_memory), b(dataset, spilled);
  auto ra = a.Execute(TestQuery(), Algorithm::kESPQLen);
  auto rb = b.Execute(TestQuery(), Algorithm::kESPQLen);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_EQ(ra->entries.size(), rb->entries.size());
  for (std::size_t i = 0; i < ra->entries.size(); ++i) {
    EXPECT_EQ(ra->entries[i].id, rb->entries[i].id);
    EXPECT_DOUBLE_EQ(ra->entries[i].score, rb->entries[i].score);
  }
  EXPECT_EQ(ra->info.job.shuffle_bytes, rb->info.job.shuffle_bytes);
  std::filesystem::remove_all(spilled.spill_dir);
}

TEST(EngineTest, DeterministicAcrossWorkerCounts) {
  Dataset dataset = TestDataset();
  EngineOptions serial;
  serial.grid_size = 8;
  serial.num_workers = 1;
  EngineOptions parallel;
  parallel.grid_size = 8;
  parallel.num_workers = 8;
  SpqEngine a(dataset, serial), b(dataset, parallel);
  auto ra = a.Execute(TestQuery(), Algorithm::kESPQSco);
  auto rb = b.Execute(TestQuery(), Algorithm::kESPQSco);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->entries.size(), rb->entries.size());
  for (std::size_t i = 0; i < ra->entries.size(); ++i) {
    EXPECT_EQ(ra->entries[i].id, rb->entries[i].id);
    EXPECT_DOUBLE_EQ(ra->entries[i].score, rb->entries[i].score);
  }
}

// A feature and a data object (2^32 - 0.5) cell widths east of the grid,
// 0.63 cell widths apart, both clamp into the east edge cell. The grid
// used to cast before it clamped: the object, past 2^32 cell widths,
// wrapped into column 0 and the feature's Lemma-1 window came out empty,
// so every algorithm, cold and warm, silently answered nothing.
TEST(EngineTest, FarOutsideObjectsClampIntoTheEdgeCell) {
  constexpr uint32_t kGrid = 50;
  const double w = 1.0 / kGrid;
  Dataset dataset;
  dataset.bounds = {0.0, 0.0, 1.0, 1.0};
  const double x = (4294967296.0 - 0.5) / kGrid;
  dataset.data = {{1, {x + 0.63 * w, 0.5}}};
  FeatureObject f;
  f.id = 2;
  f.pos = {x, 0.5};
  f.keywords = text::KeywordSet({7});
  dataset.features.push_back(f);

  Query q;
  q.k = 1;
  q.radius = 0.7 * w;
  q.keywords = text::KeywordSet({7});
  const std::vector<ResultEntry> oracle = BruteForceSpq(dataset, q);
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(oracle[0].id, 1u);
  EXPECT_EQ(oracle[0].score, 1.0);

  SpqEngine engine(dataset, EngineOptions{.grid_size = kGrid});
  ASSERT_TRUE(engine.BuildStore(q.radius).ok());
  for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                         Algorithm::kESPQSco}) {
    auto cold = engine.Execute(q, algo);
    auto warm = engine.Query(q, algo);
    ASSERT_TRUE(cold.ok()) << AlgorithmName(algo);
    ASSERT_TRUE(warm.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(warm->info.warm_path) << AlgorithmName(algo);
    for (const auto* got : {&cold->entries, &warm->entries}) {
      const char* route = got == &cold->entries ? "cold" : "warm";
      ASSERT_EQ(got->size(), 1u) << AlgorithmName(algo) << " " << route;
      EXPECT_EQ((*got)[0].id, oracle[0].id)
          << AlgorithmName(algo) << " " << route;
      EXPECT_EQ((*got)[0].score, oracle[0].score)
          << AlgorithmName(algo) << " " << route;
    }
  }
}

// Bounds the grid cannot tile: an infinite side, or finite sides whose
// width overflows a double. Either gives an infinite cell edge, so cell
// rectangles come out NaN and Lemma-1 duplication silently drops targets.
// Execute and BuildStore refuse them, with a fixed or an advised grid.
TEST(EngineTest, NonFiniteGridBoundsAreRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const geo::Rect& bounds :
       {geo::Rect{-inf, 0.0, 1.0, 1.0}, geo::Rect{-1e308, 0.0, 1e308, 1.0}}) {
    for (uint32_t grid_size : {8u, 0u}) {
      Dataset dataset = TestDataset(300);
      dataset.bounds = bounds;
      EngineOptions options;
      options.grid_size = grid_size;
      SpqEngine engine(dataset, options);
      for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                             Algorithm::kESPQSco}) {
        EXPECT_TRUE(
            engine.Execute(TestQuery(), algo).status().IsInvalidArgument())
            << AlgorithmName(algo) << " grid " << grid_size;
      }
      EXPECT_TRUE(engine.BuildStore(0.04).IsInvalidArgument())
          << "grid " << grid_size;
      EXPECT_FALSE(engine.has_store());
    }
  }
}

}  // namespace
}  // namespace spq::core
