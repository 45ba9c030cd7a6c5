// Integration/property tests: the three parallel algorithms must agree
// with the centralized brute-force oracle on randomized datasets across
// grid sizes, radii, k and keyword counts. With deterministic tie-breaking
// the *scores* are always identical; ids can differ only among equal-score
// ties, so we check (a) the score multiset matches and (b) every reported
// (id, score) pair is the object's true τ(p).

#include "spq/algorithms.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "mapreduce/runtime.h"
#include "spq/engine.h"
#include "spq/sequential.h"

namespace spq::core {
namespace {

Dataset RandomDataset(uint64_t seed, uint64_t n, uint32_t vocab) {
  auto dataset = datagen::MakeUniformDataset(
      {.num_objects = n, .seed = seed, .vocab_size = vocab,
       .min_keywords = 1, .max_keywords = 12});
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

Query RandomQuery(Rng& rng, uint32_t vocab, uint32_t max_k,
                  double max_radius) {
  Query q;
  q.k = 1 + rng.NextUint32(max_k);
  q.radius = 0.005 + rng.NextDouble() * max_radius;
  std::vector<text::TermId> ids;
  const uint32_t nkw = 1 + rng.NextUint32(4);
  for (uint32_t i = 0; i < nkw; ++i) ids.push_back(rng.NextUint32(vocab));
  q.keywords = text::KeywordSet(std::move(ids));
  return q;
}

void ExpectMatchesOracle(const std::vector<ResultEntry>& got,
                         const std::vector<ResultEntry>& oracle,
                         const Dataset& dataset, const Query& query,
                         const std::string& label) {
  ASSERT_EQ(got.size(), oracle.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Same score at every rank.
    ASSERT_DOUBLE_EQ(got[i].score, oracle[i].score)
        << label << " rank " << i;
  }
  // Every reported pair is truthful: score == τ(id).
  for (const auto& e : got) {
    const DataObject* obj = nullptr;
    for (const auto& p : dataset.data) {
      if (p.id == e.id) {
        obj = &p;
        break;
      }
    }
    ASSERT_NE(obj, nullptr) << label << " unknown id " << e.id;
    EXPECT_DOUBLE_EQ(e.score, BruteForceScore(*obj, dataset, query))
        << label << " id " << e.id;
  }
}

// ---- parameterized agreement sweep: algorithm x grid size ----

class AlgorithmAgreementTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, uint32_t>> {};

TEST_P(AlgorithmAgreementTest, MatchesBruteForceOnRandomQueries) {
  const auto [algo, grid_size] = GetParam();
  const uint32_t vocab = 60;
  Dataset dataset = RandomDataset(/*seed=*/101, /*n=*/3000, vocab);
  EngineOptions options;
  options.grid_size = grid_size;
  options.num_workers = 4;
  SpqEngine engine(dataset, options);
  Rng rng(999);
  for (int trial = 0; trial < 15; ++trial) {
    Query q = RandomQuery(rng, vocab, /*max_k=*/15, /*max_radius=*/0.08);
    auto oracle = BruteForceSpq(dataset, q);
    auto result = engine.Execute(q, algo);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesOracle(result->entries, oracle, dataset, q,
                        AlgorithmName(algo) + "/grid" +
                            std::to_string(grid_size) + "/trial" +
                            std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByGrid, AlgorithmAgreementTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Values(1u, 3u, 8u, 16u)),
    [](const auto& info) {
      return AlgorithmName(std::get<0>(info.param)) + "_grid" +
             std::to_string(std::get<1>(info.param));
    });

// ---- radius stress: up to and beyond a full cell edge ----

class RadiusSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(RadiusSweepTest, AllAlgorithmsCorrectEvenWithHeavyDuplication) {
  const double cell_fraction = GetParam();
  const uint32_t grid_size = 8;
  const uint32_t vocab = 40;
  Dataset dataset = RandomDataset(/*seed=*/77, /*n=*/1500, vocab);
  EngineOptions options;
  options.grid_size = grid_size;
  SpqEngine engine(dataset, options);
  Query q;
  q.k = 10;
  q.radius = cell_fraction * (1.0 / grid_size);
  q.keywords = text::KeywordSet({1, 2, 3});
  auto oracle = BruteForceSpq(dataset, q);
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    auto result = engine.Execute(q, algo);
    ASSERT_TRUE(result.ok());
    ExpectMatchesOracle(result->entries, oracle, dataset, q,
                        AlgorithmName(algo) + "/rfrac" +
                            std::to_string(cell_fraction));
  }
}

INSTANTIATE_TEST_SUITE_P(RadiusFractions, RadiusSweepTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 1.0, 1.5));

// ---- k stress ----

class KSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KSweepTest, TopKSizesHonored) {
  const uint32_t k = GetParam();
  const uint32_t vocab = 30;
  Dataset dataset = RandomDataset(/*seed=*/31, /*n=*/2000, vocab);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 6});
  Query q;
  q.k = k;
  q.radius = 0.05;
  q.keywords = text::KeywordSet({0, 5});
  auto oracle = BruteForceSpq(dataset, q);
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    auto result = engine.Execute(q, algo);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->entries.size(), k);
    ExpectMatchesOracle(result->entries, oracle, dataset, q,
                        AlgorithmName(algo) + "/k" + std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KSweepTest,
                         ::testing::Values(1u, 2u, 5u, 10u, 50u, 100u));

// ---- early termination behaviour ----

TEST(EarlyTerminationTest, EspqScoExaminesFewerFeaturesThanPspq) {
  const uint32_t vocab = 50;
  Dataset dataset = RandomDataset(/*seed=*/55, /*n=*/20000, vocab);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 5});
  Query q;
  q.k = 5;
  q.radius = 0.04;
  q.keywords = text::KeywordSet({2, 7, 11});

  auto pspq = engine.Execute(q, Algorithm::kPSPQ);
  auto sco = engine.Execute(q, Algorithm::kESPQSco);
  ASSERT_TRUE(pspq.ok());
  ASSERT_TRUE(sco.ok());
  // pSPQ examines every shuffled feature copy.
  EXPECT_EQ(pspq->info.features_examined,
            pspq->info.features_kept + pspq->info.feature_duplicates);
  // eSPQsco reads only a handful per cell.
  EXPECT_LT(sco->info.features_examined, pspq->info.features_examined / 5);
  EXPECT_GT(sco->info.early_terminations, 0u);
}

TEST(EarlyTerminationTest, EspqLenExaminesNoMoreThanPspq) {
  const uint32_t vocab = 50;
  Dataset dataset = RandomDataset(/*seed=*/56, /*n=*/10000, vocab);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 5});
  Query q;
  q.k = 5;
  q.radius = 0.04;
  q.keywords = text::KeywordSet({1});
  auto pspq = engine.Execute(q, Algorithm::kPSPQ);
  auto len = engine.Execute(q, Algorithm::kESPQLen);
  ASSERT_TRUE(pspq.ok());
  ASSERT_TRUE(len.ok());
  EXPECT_LE(len->info.features_examined, pspq->info.features_examined);
}

TEST(EarlyTerminationTest, ShuffleVolumeIdenticalAcrossAlgorithms) {
  // All three ship the same objects (same pruning + duplication); only the
  // composite key differs.
  const uint32_t vocab = 50;
  Dataset dataset = RandomDataset(/*seed=*/57, /*n=*/5000, vocab);
  SpqEngine engine(dataset, EngineOptions{.grid_size = 6});
  Query q;
  q.k = 10;
  q.radius = 0.03;
  q.keywords = text::KeywordSet({3, 4});
  auto a = engine.Execute(q, Algorithm::kPSPQ);
  auto b = engine.Execute(q, Algorithm::kESPQLen);
  auto c = engine.Execute(q, Algorithm::kESPQSco);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->info.features_kept, b->info.features_kept);
  EXPECT_EQ(b->info.features_kept, c->info.features_kept);
  EXPECT_EQ(a->info.feature_duplicates, b->info.feature_duplicates);
  EXPECT_EQ(b->info.feature_duplicates, c->info.feature_duplicates);
  EXPECT_EQ(a->info.job.map_output_records, b->info.job.map_output_records);
  EXPECT_EQ(b->info.job.map_output_records, c->info.job.map_output_records);
}

// ---- prefilter ablation ----

TEST(PrefilterAblationTest, DisabledPrefilterStillCorrect) {
  const uint32_t vocab = 40;
  Dataset dataset = RandomDataset(/*seed=*/61, /*n=*/3000, vocab);
  EngineOptions no_filter;
  no_filter.grid_size = 6;
  no_filter.keyword_prefilter = false;
  SpqEngine engine(dataset, no_filter);
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Query q = RandomQuery(rng, vocab, 10, 0.06);
    auto oracle = BruteForceSpq(dataset, q);
    for (Algorithm algo :
         {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
      auto result = engine.Execute(q, algo);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->info.features_pruned, 0u);
      // Every feature is shuffled now.
      EXPECT_EQ(result->info.features_kept, dataset.features.size());
      ExpectMatchesOracle(result->entries, oracle, dataset, q,
                          AlgorithmName(algo) + "/nofilter" +
                              std::to_string(trial));
    }
  }
}

TEST(PrefilterAblationTest, PrefilterShrinksShuffle) {
  const uint32_t vocab = 50;
  Dataset dataset = RandomDataset(/*seed=*/62, /*n=*/4000, vocab);
  Query q;
  q.k = 5;
  q.radius = 0.03;
  q.keywords = text::KeywordSet({7});
  EngineOptions with;
  with.grid_size = 6;
  EngineOptions without = with;
  without.keyword_prefilter = false;
  SpqEngine filtered(dataset, with);
  SpqEngine unfiltered(dataset, without);
  auto a = filtered.Execute(q, Algorithm::kESPQSco);
  auto b = unfiltered.Execute(q, Algorithm::kESPQSco);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->info.job.shuffle_bytes, b->info.job.shuffle_bytes / 2);
  // Identical answers.
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (std::size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_EQ(a->entries[i].id, b->entries[i].id);
    EXPECT_DOUBLE_EQ(a->entries[i].score, b->entries[i].score);
  }
}

// ---- clustered data correctness ----

TEST(ClusteredDataTest, AlgorithmsAgreeOnSkewedData) {
  auto dataset_or = datagen::MakeClusteredDataset(
      {.num_objects = 4000, .seed = 9, .vocab_size = 40,
       .min_keywords = 1, .max_keywords = 10, .num_clusters = 5,
       .cluster_sigma = 0.03});
  ASSERT_TRUE(dataset_or.ok());
  const Dataset& dataset = *dataset_or;
  SpqEngine engine(dataset, EngineOptions{.grid_size = 10});
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    Query q = RandomQuery(rng, 40, 10, 0.05);
    auto oracle = BruteForceSpq(dataset, q);
    for (Algorithm algo :
         {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
      auto result = engine.Execute(q, algo);
      ASSERT_TRUE(result.ok());
      ExpectMatchesOracle(result->entries, oracle, dataset, q,
                          AlgorithmName(algo) + "/clustered" +
                              std::to_string(trial));
    }
  }
}

// ---- misc unit checks ----

TEST(AlgorithmNameTest, PaperNames) {
  EXPECT_EQ(AlgorithmName(Algorithm::kPSPQ), "pSPQ");
  EXPECT_EQ(AlgorithmName(Algorithm::kESPQLen), "eSPQlen");
  EXPECT_EQ(AlgorithmName(Algorithm::kESPQSco), "eSPQsco");
}

TEST(FlattenDatasetTest, TagsAndCountsPreserved) {
  Dataset dataset;
  dataset.bounds = {0, 0, 1, 1};
  dataset.data = {{1, {0.2, 0.2}}, {2, {0.4, 0.4}}};
  dataset.features = {{3, {0.6, 0.6}, text::KeywordSet({1, 2})}};
  auto flat = FlattenDataset(dataset);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_TRUE(flat[0].is_data());
  EXPECT_TRUE(flat[1].is_data());
  EXPECT_TRUE(flat[2].is_feature());
  EXPECT_EQ(flat[2].keywords, (std::vector<text::TermId>{1, 2}));
}

// CellKey has FlatShuffleTraits, so an SPQ job runs the flat shuffle or
// nothing: a spec missing a part that pipeline needs is rejected up front.
TEST(SpqJobSpecTest, RunJobRejectsIncompleteFlatSpec) {
  Rng rng(8);
  const Dataset dataset = RandomDataset(8, 200, 20);
  const std::vector<ShuffleObject> input = FlattenDataset(dataset);
  auto grid = geo::UniformGrid::Make(dataset.bounds, 4, 4);
  ASSERT_TRUE(grid.ok());
  const Query query = RandomQuery(rng, 20, 5, 0.1);
  using Spec = mapreduce::JobSpec<ShuffleObject, CellKey, ShuffleObject,
                                  ResultEntry>;
  struct Row {
    const char* name;
    void (*strip)(Spec&);
  };
  const Row rows[] = {
      {"no mapper_factory", [](Spec& s) { s.mapper_factory = nullptr; }},
      {"no partitioner", [](Spec& s) { s.partitioner = nullptr; }},
      {"no flat_reducer_factory",
       [](Spec& s) { s.flat_reducer_factory = nullptr; }},
  };
  mapreduce::JobConfig config;
  config.num_workers = 2;
  ASSERT_TRUE(mapreduce::RunJob(MakeSpqJobSpec(Algorithm::kPSPQ, query, *grid),
                                config, input)
                  .ok());
  for (const Row& row : rows) {
    Spec spec = MakeSpqJobSpec(Algorithm::kPSPQ, query, *grid);
    row.strip(spec);
    EXPECT_TRUE(mapreduce::RunJob(spec, config, input).status()
                    .IsInvalidArgument())
        << row.name;
  }
}

}  // namespace
}  // namespace spq::core
