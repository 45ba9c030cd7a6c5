// SpqEngine::QueryBatch(): one warm call answering a batch of queries that
// may differ in k, radius and keywords, each exactly as the paper's
// single-query job would (testing/batch_oracle.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "spq/engine.h"
#include "spq/sequential.h"
#include "testing/batch_oracle.h"

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

/// The largest radius of `queries`: the store radius that serves them all
/// warm.
double MaxRadius(const std::vector<Query>& queries) {
  double r = 0.0;
  for (const Query& q : queries) r = std::max(r, q.radius);
  return r;
}

class BatchAlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BatchAlgorithmTest, BatchMatchesPerQueryExecution) {
  const Algorithm algo = GetParam();
  const uint32_t vocab = 40;
  Dataset dataset = TestDataset();
  SpqEngine engine(dataset, EngineOptions{.grid_size = 8});
  Rng rng(99);
  const auto queries = RandomBatch(rng, 6, vocab);
  ASSERT_TRUE(engine.BuildStore(MaxRadius(queries)).ok());

  auto batch = engine.QueryBatch(queries, algo);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->warm_path);
  testing::ExpectBatchMatchesSingleQueryJobs(engine, queries, algo, *batch,
                                             AlgorithmName(algo));

  // Truthful scores vs the oracle.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const auto& e : batch->per_query[q]) {
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
  ASSERT_TRUE(engine.BuildStore(q.radius).ok());
  auto batch = engine.QueryBatch({q}, Algorithm::kESPQSco);
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
  ASSERT_TRUE(engine.BuildStore(0.1).ok());
  EXPECT_TRUE(engine.QueryBatch({}, Algorithm::kPSPQ)
                  .status()
                  .IsInvalidArgument());
}

TEST(BatchTest, InvalidQueryInBatchRejected) {
  Dataset dataset = TestDataset(54, 100);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 4});
  ASSERT_TRUE(engine.BuildStore(0.1).ok());
  Query good;
  good.k = 1;
  good.radius = 0.1;
  good.keywords = text::KeywordSet({1});
  Query bad = good;
  bad.k = 0;
  EXPECT_TRUE(engine.QueryBatch({good, bad}, Algorithm::kPSPQ)
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
  ASSERT_TRUE(engine.BuildStore(MaxRadius(queries)).ok());
  auto batch = engine.QueryBatch(queries, Algorithm::kESPQLen);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->warm_path);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto oracle = BruteForceSpq(dataset, queries[q]);
    ASSERT_EQ(batch->per_query[q].size(), oracle.size()) << "query " << q;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch->per_query[q][i].score, oracle[i].score);
    }
  }
}

}  // namespace
}  // namespace spq::core
