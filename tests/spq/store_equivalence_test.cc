// Property test for the resident CellStore serving layer: across all
// three algorithms and spill/no-spill, the warm path
// (BuildStore() once + Query()/QueryBatch() joining feature streams
// against the resident per-cell partitions) must return results
// bit-identical to the cold single-shot path, with identical SPQ counters
// — including reduce.groups, which the warm path must account even for
// cells the feature stream never visits. Only the map-phase dataset-side
// figures (map.data_objects, map_output_records, shuffle_bytes) may
// differ: the warm path legitimately skips mapping and shuffling the data
// objects — that is the point of the store.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/cell_store.h"
#include "spq/engine.h"
#include "testing/batch_oracle.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 9;

/// The "faults"-labeled ctest entries set SPQ_TEST_FAULTS: the whole
/// suite then runs under injected task + storage faults with a generous
/// retry budget — warm/cold equivalence must survive the full retry
/// machinery (task re-execution, spill verify-after-write, page-CRC
/// re-reads) too.
void ApplyEnvFaults(EngineOptions& options) {
  const char* env = std::getenv("SPQ_TEST_FAULTS");
  if (env == nullptr || *env == '\0' || *env == '0') return;
  options.faults.map_failure_prob = 0.15;
  options.faults.reduce_failure_prob = 0.15;
  options.faults.storage_fault_prob = 0.05;
  options.faults.seed = 1307;
  options.max_task_attempts = 50;
}

Dataset MakeDataset(uint64_t seed, bool clustered) {
  if (clustered) {
    datagen::ClusteredSpec spec;
    spec.num_objects = 3'000;
    spec.seed = seed;
    spec.vocab_size = 150;
    spec.min_keywords = 2;
    spec.max_keywords = 20;
    spec.num_clusters = 6;
    auto dataset = datagen::MakeClusteredDataset(spec);
    EXPECT_TRUE(dataset.ok());
    return *std::move(dataset);
  }
  datagen::UniformSpec spec;
  spec.num_objects = 3'000;
  spec.seed = seed;
  spec.vocab_size = 150;
  spec.min_keywords = 2;
  spec.max_keywords = 20;
  auto dataset = datagen::MakeUniformDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

Query MakeStoreQuery(uint64_t seed, uint32_t num_keywords, double radius) {
  datagen::WorkloadSpec spec;
  spec.num_keywords = num_keywords;
  spec.radius = radius;
  spec.k = 5;
  spec.vocab_size = 150;
  spec.seed = seed;
  Query q = datagen::MakeQuery(spec, 0);
  q.radius = radius;  // pin exactly (boundary cases below)
  return q;
}

void ExpectWarmMatchesCold(const SpqResult& cold, const SpqResult& warm,
                           const std::string& label) {
  EXPECT_TRUE(warm.info.warm_path) << label;
  EXPECT_FALSE(warm.info.cold_fallback) << label;
  ASSERT_EQ(cold.entries.size(), warm.entries.size()) << label;
  for (std::size_t i = 0; i < cold.entries.size(); ++i) {
    EXPECT_EQ(cold.entries[i].id, warm.entries[i].id) << label << " @" << i;
    // Bit-identical: the warm join must feed each reduce core the same
    // data objects in the same order as the cold stream did.
    EXPECT_EQ(cold.entries[i].score, warm.entries[i].score)
        << label << " @" << i;
  }
  const SpqRunInfo& a = cold.info;
  const SpqRunInfo& b = warm.info;
  // Feature-side map counters: the warm path maps the same features.
  EXPECT_EQ(a.features_kept, b.features_kept) << label;
  EXPECT_EQ(a.features_pruned, b.features_pruned) << label;
  EXPECT_EQ(a.feature_duplicates, b.feature_duplicates) << label;
  // Reduce counters must match exactly — including groups for data-only
  // cells, which the warm path accounts without running a core.
  EXPECT_EQ(a.features_examined, b.features_examined) << label;
  EXPECT_EQ(a.pairs_tested, b.pairs_tested) << label;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << label;
  EXPECT_EQ(a.reduce_groups, b.reduce_groups) << label;
}

class StoreEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(StoreEquivalenceTest, WarmPathMatchesCold) {
  const auto [algo, spill] = GetParam();

  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  options.num_map_tasks = 5;
  // Fewer reducers than cells: partitions hold several cells each, so the
  // warm data-only group accounting and cell interleaving get exercised.
  options.num_reduce_tasks = 7;
  std::string spill_dir;
  if (spill) {
    std::string unique =
        "spq_store_equivalence-" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "-" + std::to_string(static_cast<int>(::getpid()));
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
    spill_dir = (std::filesystem::temp_directory_path() / unique).string();
    options.spill_dir = spill_dir;
  }
  ApplyEnvFaults(options);

  const double cell_edge = 1.0 / kGridSize;
  const double max_radius = 0.6 * cell_edge;

  for (uint64_t seed : {21ull, 22ull}) {
    for (const bool clustered : {false, true}) {
      const Dataset dataset = MakeDataset(seed, clustered);
      SpqEngine engine(dataset, options);
      ASSERT_TRUE(engine.BuildStore(max_radius).ok());
      // Radii below, at a fraction of, and exactly AT the store's build
      // radius (the boundary must still serve warm: the contract is
      // radius <= max_radius).
      for (double radius : {0.15 * max_radius, 0.7 * max_radius, max_radius}) {
        for (uint32_t kw : {1u, 4u}) {
          const Query query = MakeStoreQuery(seed * 100 + kw, kw, radius);
          auto cold = engine.Execute(query, algo);
          auto warm = engine.Query(query, algo);
          ASSERT_TRUE(cold.ok()) << cold.status().ToString();
          ASSERT_TRUE(warm.ok()) << warm.status().ToString();
          ExpectWarmMatchesCold(
              *cold, *warm,
              "seed=" + std::to_string(seed) +
                  (clustered ? " clustered" : " uniform") +
                  " kw=" + std::to_string(kw) +
                  " r=" + std::to_string(radius));
          // Repeat the warm query: the cached per-cell indexes and score
          // scratch must not leak state across queries.
          auto warm2 = engine.Query(query, algo);
          ASSERT_TRUE(warm2.ok());
          ExpectWarmMatchesCold(*cold, *warm2, "repeat");
        }
      }
    }
  }
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, StoreEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Bool()),
    [](const auto& info) {
      // "_bucketed" names the cell-bucketed flat shuffle every job runs.
      return AlgorithmName(std::get<0>(info.param)) + "_bucketed" +
             (std::get<1>(info.param) ? "_spill" : "_mem");
    });

TEST(StoreEquivalenceTest, WarmBatchMatchesColdBatch) {
  const Dataset dataset = MakeDataset(31, /*clustered=*/true);
  const double max_radius = 0.6 / kGridSize;
  std::vector<Query> queries;
  for (uint32_t i = 0; i < 4; ++i) {
    Query q = MakeStoreQuery(700 + i, 1 + i % 3,
                             (0.2 + 0.2 * i) * max_radius);
    q.k = 3 + i;
    queries.push_back(q);
  }
  queries[3].radius = max_radius;  // boundary inside the batch

  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  options.num_map_tasks = 3;
  options.num_reduce_tasks = 5;
  ApplyEnvFaults(options);
  SpqEngine engine(dataset, options);
  ASSERT_TRUE(engine.BuildStore(max_radius).ok());
  for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                         Algorithm::kESPQSco}) {
    auto warm = engine.QueryBatch(queries, algo);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_TRUE(warm->warm_path);
    testing::ExpectBatchMatchesSingleQueryJobs(engine, queries, algo, *warm,
                                               AlgorithmName(algo));
  }
}

// The balanced partitioner (cached at BuildStore, reused per query) must
// route the warm feature stream and the resident-cell group accounting
// identically to the cold path's per-call assignment.
TEST(StoreEquivalenceTest, BalancedPartitionerWarmMatchesCold) {
  const Dataset dataset = MakeDataset(61, /*clustered=*/true);
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  options.num_map_tasks = 5;
  options.num_reduce_tasks = 7;  // < cells, so the LPT assignment engages
  options.partitioner = PartitionerKind::kBalanced;
  ApplyEnvFaults(options);
  SpqEngine engine(dataset, options);
  const double max_radius = 0.6 / kGridSize;
  ASSERT_TRUE(engine.BuildStore(max_radius).ok());
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    for (double radius : {0.3 * max_radius, max_radius}) {
      const Query query = MakeStoreQuery(600 + static_cast<uint64_t>(algo),
                                         3, radius);
      auto cold = engine.Execute(query, algo);
      auto warm = engine.Query(query, algo);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ExpectWarmMatchesCold(*cold, *warm,
                            "balanced " + AlgorithmName(algo) +
                                " r=" + std::to_string(radius));
    }
  }
}

// The max-radius contract: a query beyond the store's radius class cannot
// be served warm — it must take the cold path (flagged, still correct).
TEST(StoreEquivalenceTest, RadiusBeyondStoreFallsBackCold) {
  const Dataset dataset = MakeDataset(41, /*clustered=*/false);
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  SpqEngine engine(dataset, options);
  const double max_radius = 0.5 / kGridSize;
  ASSERT_TRUE(engine.BuildStore(max_radius).ok());

  const Query big = MakeStoreQuery(99, 3, 1.5 * max_radius);
  auto cold = engine.Execute(big, Algorithm::kPSPQ);
  auto warm = engine.Query(big, Algorithm::kPSPQ);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->info.cold_fallback);
  EXPECT_FALSE(warm->info.warm_path);
  ASSERT_EQ(cold->entries.size(), warm->entries.size());
  for (std::size_t i = 0; i < cold->entries.size(); ++i) {
    EXPECT_EQ(cold->entries[i].id, warm->entries[i].id);
    EXPECT_EQ(cold->entries[i].score, warm->entries[i].score);
  }

  // Batch: one oversized radius sends the whole batch to the cold path,
  // one Execute() per query, counted as one fallback per call.
  std::vector<Query> queries{MakeStoreQuery(98, 2, 0.5 * max_radius), big,
                             MakeStoreQuery(97, 1, 0.9 * max_radius)};
  for (int call = 0; call < 2; ++call) {
    const uint64_t fallbacks_before =
        engine.MetricsSnapshot().CounterValue("spq.query.cold_fallbacks");
    auto warm_batch = engine.QueryBatch(queries, Algorithm::kESPQLen);
    ASSERT_TRUE(warm_batch.ok()) << warm_batch.status().ToString();
    EXPECT_EQ(
        engine.MetricsSnapshot().CounterValue("spq.query.cold_fallbacks"),
        fallbacks_before + 1);
    EXPECT_TRUE(warm_batch->cold_fallback);
    EXPECT_FALSE(warm_batch->warm_path);
    ASSERT_EQ(warm_batch->per_query.size(), queries.size());
    mapreduce::Counters sums;
    uint64_t map_output_records = 0;
    uint64_t shuffle_bytes = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto single = engine.Execute(queries[q], Algorithm::kESPQLen);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      const auto& want = single->entries;
      const auto& got = warm_batch->per_query[q];
      ASSERT_EQ(want.size(), got.size()) << "query " << q;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "query " << q << " @" << i;
        EXPECT_EQ(want[i].score, got[i].score) << "query " << q << " @" << i;
      }
      sums.MergeFrom(single->info.job.counters);
      map_output_records += single->info.job.map_output_records;
      shuffle_bytes += single->info.job.shuffle_bytes;
    }
    EXPECT_EQ(warm_batch->job.counters.Snapshot(), sums.Snapshot());
    EXPECT_EQ(warm_batch->job.map_output_records, map_output_records);
    EXPECT_EQ(warm_batch->job.shuffle_bytes, shuffle_bytes);
    EXPECT_EQ(warm_batch->job.input_records,
              queries.size() * (dataset.data.size() + dataset.features.size()));
  }
}

/// A hand-built dataset with spatially disjoint vocabularies: data objects
/// everywhere, left-half features talk about terms 0-9, right-half about
/// terms 100-109. A right-half query with the keyword prefilter DISABLED
/// (with it on, groups of disjoint features never form) gives every
/// left-half cell a group whose features all score 0. Served warm, those
/// groups go through the reduce cores like any other, and the run must
/// match the cold run in results and in every SPQ counter. The suite has
/// its own faults rerun, `faults.kernel_equivalence`.
TEST(KernelEquivalenceTest,
     PrefilterOffWarmMatchesColdOnDisjointVocabularies) {
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.01, 0.99);
  for (ObjectId i = 0; i < 600; ++i) {
    dataset.data.push_back({i, {unit(rng), unit(rng)}});
  }
  std::uniform_int_distribution<text::TermId> left_term(0, 9);
  std::uniform_int_distribution<text::TermId> right_term(100, 109);
  for (ObjectId i = 0; i < 400; ++i) {
    const double x = unit(rng), y = unit(rng);
    const bool left = x < 0.5;
    std::vector<text::TermId> terms;
    for (int t = 0; t < 4; ++t) {
      terms.push_back(left ? left_term(rng) : right_term(rng));
    }
    dataset.features.push_back(
        {1000 + i, {x, y}, text::KeywordSet(std::move(terms))});
  }

  Query query;
  query.k = 5;
  query.radius = 0.05;
  query.keywords = text::KeywordSet{100, 101, 102};

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    EngineOptions options;
    options.grid_size = 8;
    options.num_workers = 2;
    options.keyword_prefilter = false;  // ablation: groups form everywhere
    ApplyEnvFaults(options);
    SpqEngine engine(dataset, options);
    ASSERT_TRUE(engine.BuildStore(query.radius).ok());
    auto cold = engine.Execute(query, algo);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    auto warm = engine.Query(query, algo);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ExpectWarmMatchesCold(*cold, *warm, "prefilter off " + AlgorithmName(algo));
  }
}

TEST(StoreEquivalenceTest, QueryWithoutStoreIsAnError) {
  const Dataset dataset = MakeDataset(51, /*clustered=*/false);
  SpqEngine engine(dataset, EngineOptions{});
  const Query query = MakeStoreQuery(1, 2, 0.01);
  EXPECT_FALSE(engine.Query(query, Algorithm::kPSPQ).ok());
  EXPECT_FALSE(engine.QueryBatch({query}, Algorithm::kPSPQ).ok());
  ASSERT_TRUE(engine.BuildStore(0.05).ok());
  EXPECT_TRUE(engine.has_store());
  EXPECT_TRUE(engine.Query(query, Algorithm::kPSPQ).ok());
}

}  // namespace
}  // namespace spq::core
