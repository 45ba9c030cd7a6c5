#include "spq/batch.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "spq/engine.h"
#include "spq/sequential.h"

namespace spq::core {
namespace {

Dataset TestDataset(uint64_t seed = 51, uint64_t n = 3000,
                    uint32_t vocab = 40) {
  auto dataset = datagen::MakeUniformDataset(
      {.num_objects = n, .seed = seed, .vocab_size = vocab,
       .min_keywords = 1, .max_keywords = 10});
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

std::vector<Query> RandomBatch(Rng& rng, std::size_t count, uint32_t vocab) {
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.k = 1 + rng.NextUint32(10);
    q.radius = 0.005 + rng.NextDouble() * 0.05;
    q.keywords = text::KeywordSet(
        {rng.NextUint32(vocab), rng.NextUint32(vocab)});
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(BatchKeyTest, SortAndGroupSemantics) {
  // cell primary, query secondary, order tertiary.
  EXPECT_TRUE(BatchKeySortLess({1, 5, 9.0}, {2, 0, 0.0}));
  EXPECT_TRUE(BatchKeySortLess({1, 0, 9.0}, {1, 1, 0.0}));
  EXPECT_TRUE(BatchKeySortLess({1, 1, 0.0}, {1, 1, 1.0}));
  EXPECT_FALSE(BatchKeySortLess({1, 1, 1.0}, {1, 1, 1.0}));
  EXPECT_TRUE(BatchKeyGroupEqual({3, 2, 0.1}, {3, 2, 0.9}));
  EXPECT_FALSE(BatchKeyGroupEqual({3, 2, 0.1}, {3, 1, 0.1}));
  EXPECT_FALSE(BatchKeyGroupEqual({3, 2, 0.1}, {4, 2, 0.1}));
  // Partitioner routes by cell only: a cell's groups share a reducer.
  EXPECT_EQ(BatchPartitioner({7, 0, 0.0}, 4), BatchPartitioner({7, 3, -1.0}, 4));
}

class BatchAlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BatchAlgorithmTest, BatchMatchesPerQueryExecution) {
  const Algorithm algo = GetParam();
  const uint32_t vocab = 40;
  Dataset dataset = TestDataset();
  SpqEngine engine(dataset, EngineOptions{.grid_size = 8});
  Rng rng(99);
  const auto queries = RandomBatch(rng, 6, vocab);

  auto batch = engine.ExecuteBatch(queries, algo);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->per_query.size(), queries.size());

  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = engine.Execute(queries[q], algo);
    ASSERT_TRUE(single.ok());
    const auto& got = batch->per_query[q];
    const auto& expected = single->entries;
    ASSERT_EQ(got.size(), expected.size())
        << AlgorithmName(algo) << " query " << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].score, expected[i].score)
          << AlgorithmName(algo) << " query " << q << " rank " << i;
    }
    // Truthful scores vs the oracle.
    for (const auto& e : got) {
      for (const auto& p : dataset.data) {
        if (p.id == e.id) {
          EXPECT_DOUBLE_EQ(e.score,
                           BruteForceScore(p, dataset, queries[q]));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BatchAlgorithmTest,
                         ::testing::Values(Algorithm::kPSPQ,
                                           Algorithm::kESPQLen,
                                           Algorithm::kESPQSco),
                         [](const auto& info) {
                           return AlgorithmName(info.param);
                         });

TEST(BatchTest, SingleQueryBatchMatchesExecute) {
  Dataset dataset = TestDataset(52);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 6});
  Query q;
  q.k = 5;
  q.radius = 0.03;
  q.keywords = text::KeywordSet({1, 2});
  auto batch = engine.ExecuteBatch({q}, Algorithm::kESPQSco);
  auto single = engine.Execute(q, Algorithm::kESPQSco);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(batch->per_query.size(), 1u);
  ASSERT_EQ(batch->per_query[0].size(), single->entries.size());
  for (std::size_t i = 0; i < single->entries.size(); ++i) {
    EXPECT_EQ(batch->per_query[0][i].id, single->entries[i].id);
    EXPECT_DOUBLE_EQ(batch->per_query[0][i].score, single->entries[i].score);
  }
}

TEST(BatchTest, EmptyBatchRejected) {
  Dataset dataset = TestDataset(53, 100);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 4});
  EXPECT_TRUE(engine.ExecuteBatch({}, Algorithm::kPSPQ)
                  .status()
                  .IsInvalidArgument());
}

TEST(BatchTest, InvalidQueryInBatchRejected) {
  Dataset dataset = TestDataset(54, 100);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 4});
  Query good;
  good.k = 1;
  good.radius = 0.1;
  good.keywords = text::KeywordSet({1});
  Query bad = good;
  bad.k = 0;
  EXPECT_TRUE(engine.ExecuteBatch({good, bad}, Algorithm::kPSPQ)
                  .status()
                  .IsInvalidArgument());
}

TEST(BatchTest, HeterogeneousKRadiusAndKeywords) {
  Dataset dataset = TestDataset(55);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 8});
  std::vector<Query> queries(3);
  queries[0] = {.k = 1, .radius = 0.01, .keywords = text::KeywordSet({1})};
  queries[1] = {.k = 20, .radius = 0.08,
                .keywords = text::KeywordSet({2, 3, 4})};
  queries[2] = {.k = 5, .radius = 0.0, .keywords = text::KeywordSet({5})};
  auto batch = engine.ExecuteBatch(queries, Algorithm::kESPQLen);
  ASSERT_TRUE(batch.ok());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto oracle = BruteForceSpq(dataset, queries[q]);
    ASSERT_EQ(batch->per_query[q].size(), oracle.size()) << "query " << q;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch->per_query[q][i].score, oracle[i].score);
    }
  }
}

TEST(BatchTest, SharedScanShipsDataObjectsOnce) {
  Dataset dataset = TestDataset(56);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 6});
  Rng rng(1);
  const auto queries = RandomBatch(rng, 4, 40);
  auto batch = engine.ExecuteBatch(queries, Algorithm::kESPQSco);
  ASSERT_TRUE(batch.ok());
  // The input is scanned once regardless of batch size...
  EXPECT_EQ(batch->job.input_records,
            dataset.data.size() + dataset.features.size());
  // ...and each data object crosses the shuffle exactly once (the cached
  // sentinel-group design), not once per query.
  EXPECT_EQ(batch->job.counters.Get(counter::kDataObjects),
            dataset.data.size());
  const uint64_t features_shuffled =
      batch->job.counters.Get(counter::kFeaturesKept) +
      batch->job.counters.Get(counter::kFeatureDuplicates);
  EXPECT_EQ(batch->job.map_output_records,
            dataset.data.size() + features_shuffled);
}

}  // namespace
}  // namespace spq::core
