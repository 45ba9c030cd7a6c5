// End-to-end integration: every optional runtime feature enabled at once
// (fault injection + retries, out-of-core shuffle, balanced partitioner,
// DFS-hosted dataset, a store built under faults and batched warm queries)
// must still produce exactly the oracle's answers.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "io/dataset_io.h"
#include "spq/engine.h"
#include "spq/sequential.h"
#include "testing/batch_oracle.h"

namespace spq::core {
namespace {

TEST(IntegrationTest, EverythingOnAtOnce) {
  // Clustered dataset on a DFS cluster with dead nodes.
  auto generated = datagen::MakeClusteredDataset(
      {.num_objects = 8000, .seed = 71, .vocab_size = 50,
       .min_keywords = 1, .max_keywords = 9, .num_clusters = 5,
       .cluster_sigma = 0.03});
  ASSERT_TRUE(generated.ok());
  dfs::MiniDfs cluster({.num_datanodes = 6, .block_size = 32768,
                        .replication = 3, .seed = 7});
  ASSERT_TRUE(io::StoreDataset(cluster, "d", *generated).ok());
  cluster.datanode(1).Kill();
  cluster.datanode(4).Kill();

  EngineOptions options;
  options.grid_size = 10;
  options.num_reduce_tasks = 7;  // fewer reducers than cells
  options.partitioner = PartitionerKind::kBalanced;
  options.faults.map_failure_prob = 0.25;
  options.faults.reduce_failure_prob = 0.25;
  options.faults.seed = 3;
  options.max_task_attempts = 40;
  options.spill_dir =
      (std::filesystem::temp_directory_path() / "spq_integration").string();

  auto engine = io::MakeEngineFromDfs(cluster, "d", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // A batch of heterogeneous queries, every algorithm.
  datagen::WorkloadSpec spec;
  spec.num_keywords = 3;
  spec.radius = 0.01;
  spec.k = 7;
  spec.vocab_size = 50;
  spec.seed = 9;
  auto queries = datagen::MakeQueries(spec, 4);
  queries[1].k = 1;
  queries[2].radius = 0.03;

  // The store build job runs under the same faults and spill directory.
  ASSERT_TRUE((*engine)->BuildStore(0.03).ok());
  const mapreduce::JobStats& build = (*engine)->store()->build_stats();
  EXPECT_GT(build.map_task_failures + build.reduce_task_failures, 0u);

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    auto batch = (*engine)->QueryBatch(queries, algo);
    ASSERT_TRUE(batch.ok()) << AlgorithmName(algo) << ": "
                            << batch.status().ToString();
    ASSERT_TRUE(batch->warm_path);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto oracle = BruteForceSpq(*generated, queries[q]);
      ASSERT_EQ(batch->per_query[q].size(), oracle.size())
          << AlgorithmName(algo) << " query " << q;
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_DOUBLE_EQ(batch->per_query[q][i].score, oracle[i].score)
            << AlgorithmName(algo) << " query " << q << " rank " << i;
      }
    }
    // Each query's cold job, faults retried, agrees with the batch.
    testing::ExpectBatchMatchesSingleQueryJobs(**engine, queries, algo,
                                               *batch, AlgorithmName(algo));
  }
  std::filesystem::remove_all(options.spill_dir);
}

TEST(IntegrationTest, SingleQueriesUnderSameConditions) {
  auto generated = datagen::MakeUniformDataset(
      {.num_objects = 5000, .seed = 72, .vocab_size = 30,
       .min_keywords = 1, .max_keywords = 8});
  ASSERT_TRUE(generated.ok());

  EngineOptions options;
  options.grid_size = 8;
  options.num_reduce_tasks = 5;
  options.partitioner = PartitionerKind::kBalanced;
  options.faults.map_failure_prob = 0.3;
  options.faults.seed = 4;
  options.max_task_attempts = 40;
  options.spill_dir =
      (std::filesystem::temp_directory_path() / "spq_integration2").string();
  SpqEngine engine(*generated, options);

  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    Query q;
    q.k = 1 + rng.NextUint32(8);
    q.radius = 0.01 + rng.NextDouble() * 0.05;
    q.keywords = text::KeywordSet({rng.NextUint32(30), rng.NextUint32(30)});
    auto oracle = BruteForceSpq(*generated, q);
    for (Algorithm algo :
         {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
      auto result = engine.Execute(q, algo);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->entries.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_DOUBLE_EQ(result->entries[i].score, oracle[i].score);
      }
    }
  }
  std::filesystem::remove_all(options.spill_dir);
}

}  // namespace
}  // namespace spq::core
