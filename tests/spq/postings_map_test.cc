// The postings-driven warm map under SpqEngine::Query()/QueryBatch(),
// against the cold MapReduce job (Execute(), whose mapper screens every
// feature with the signature test and the exact merge): same answers, the
// same seven shared SPQ counters, and the same feature-side map output
// (the cold job also maps the data objects, map.data_objects of them),
// with the keyword prefilter on and off. A batch is checked against one
// cold job per query (testing/batch_oracle.h). The dataset and queries
// aim at the map's edges: a term no feature has, term ids 0 and 2^32 - 1,
// empty q.W, features without keywords, features sharing 256 and 300
// terms with a query (an 8-bit count would wrap), a batch repeating one
// query, and a batch with more than 256 distinct terms.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "spq/engine.h"
#include "testing/batch_oracle.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 6;
constexpr double kStoreRadius = 0.08;
constexpr text::TermId kMaxTerm = std::numeric_limits<text::TermId>::max();
constexpr text::TermId kWideBase = 2000;  // terms of the wide batch

std::vector<text::TermId> TermRange(text::TermId first, uint32_t count) {
  std::vector<text::TermId> ids;
  for (uint32_t i = 0; i < count; ++i) ids.push_back(first + i);
  return ids;
}

/// 1500 data objects and 800 features. Most features draw a few terms from
/// {0, 1..40, 2^32 - 1} plus, for some, one of the wide batch's terms;
/// every tenth has no keywords at all. Two features carry long runs of
/// terms: 1000..1399 and 1000..1255.
Dataset HostileTermDataset() {
  Rng rng(4242);
  Dataset dataset;
  dataset.bounds = {0.0, 0.0, 1.0, 1.0};
  for (ObjectId id = 0; id < 1500; ++id) {
    dataset.data.push_back({id, {rng.NextDouble(), rng.NextDouble()}});
  }
  for (ObjectId i = 0; i < 800; ++i) {
    FeatureObject f;
    f.id = 100'000 + i;
    f.pos = {rng.NextDouble(), rng.NextDouble()};
    std::vector<text::TermId> ids;
    if (i == 11) {
      ids = TermRange(1000, 400);
    } else if (i == 12) {
      ids = TermRange(1000, 256);
    } else if (i % 10 != 0) {
      const uint32_t n = 1 + rng.NextUint32(4);
      for (uint32_t t = 0; t < n; ++t) {
        const uint32_t pick = rng.NextUint32(44);
        ids.push_back(pick == 0 ? 0 : pick == 1 ? kMaxTerm : pick - 1);
      }
      if (rng.NextUint32(3) == 0) ids.push_back(kWideBase + rng.NextUint32(300));
    }
    f.keywords = text::KeywordSet(std::move(ids));
    dataset.features.push_back(std::move(f));
  }
  return dataset;
}

Query MakeQuery(std::vector<text::TermId> ids, double radius, uint32_t k) {
  Query q;
  q.keywords = text::KeywordSet(std::move(ids));
  q.radius = radius;
  q.k = k;
  return q;
}

/// The single-query cases, labelled.
std::vector<std::pair<std::string, Query>> EdgeQueries() {
  return {
      {"term no feature has", MakeQuery({123'456'789}, kStoreRadius, 5)},
      {"term ids 0 and 2^32-1", MakeQuery({0, kMaxTerm}, 0.05, 4)},
      {"empty q.W", MakeQuery({}, kStoreRadius, 3)},
      {"300 terms shared", MakeQuery(TermRange(1000, 300), kStoreRadius, 2)},
      {"mixed", MakeQuery({0, 3, 7, 19, kMaxTerm}, 0.03, 6)},
      {"plain", MakeQuery({2, 5}, 0.0, 5)},
  };
}

/// The batch cases: every edge query at once, one query repeated, and 24
/// queries with 12 terms each — 288 distinct terms.
std::vector<std::pair<std::string, std::vector<Query>>> EdgeBatches() {
  std::vector<Query> all;
  for (const auto& [label, q] : EdgeQueries()) all.push_back(q);
  const Query repeated = MakeQuery({0, 3, 7, kMaxTerm}, 0.06, 4);
  std::vector<Query> wide;
  for (uint32_t i = 0; i < 24; ++i) {
    std::vector<text::TermId> ids = TermRange(kWideBase + 12 * i, 12);
    ids.push_back(i % 40);
    wide.push_back(MakeQuery(std::move(ids), kStoreRadius * (i % 4) / 4,
                             1 + i % 5));
  }
  return {{"edge queries", all},
          {"repeated query", {repeated, repeated, repeated}},
          {"more than 256 distinct terms", wide}};
}

/// The seven SPQ counters the warm route shares with the cold job (the
/// cell-summary screening counters are warm-only).
std::vector<uint64_t> SharedCounters(const mapreduce::Counters& c) {
  return {c.Get(counter::kFeaturesKept),     c.Get(counter::kFeaturesPruned),
          c.Get(counter::kFeatureDuplicates), c.Get(counter::kFeaturesExamined),
          c.Get(counter::kPairsTested),      c.Get(counter::kEarlyTerminations),
          c.Get(counter::kGroups)};
}

/// The cold job's map output minus its data-object records: the feature
/// emissions, which are all the warm map emits.
uint64_t ColdFeatureRecords(const mapreduce::JobStats& job) {
  return job.map_output_records - job.counters.Get(counter::kDataObjects);
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

SpqEngine MakeEngine(const Dataset& dataset, bool keyword_prefilter) {
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 3;
  options.keyword_prefilter = keyword_prefilter;
  return SpqEngine(dataset, options);
}

constexpr Algorithm kAlgos[] = {Algorithm::kPSPQ, Algorithm::kESPQLen,
                                Algorithm::kESPQSco};

TEST(PostingsMapTest, QueryMatchesCold) {
  const Dataset dataset = HostileTermDataset();
  for (bool prefilter : {true, false}) {
    SpqEngine engine = MakeEngine(dataset, prefilter);
    ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
    for (Algorithm algo : kAlgos) {
      for (const auto& [name, query] : EdgeQueries()) {
        const std::string label = std::string("prefilter ") +
                                  (prefilter ? "on, " : "off, ") +
                                  AlgorithmName(algo) + ", " + name;
        auto cold = engine.Execute(query, algo);
        auto warm = engine.Query(query, algo);
        ASSERT_TRUE(cold.ok()) << label << ": " << cold.status().ToString();
        ASSERT_TRUE(warm.ok()) << label << ": " << warm.status().ToString();
        ASSERT_TRUE(warm->info.warm_path) << label;
        ExpectSameEntries(cold->entries, warm->entries, label);
        EXPECT_EQ(SharedCounters(cold->info.job.counters),
                  SharedCounters(warm->info.job.counters))
            << label;
        EXPECT_EQ(ColdFeatureRecords(cold->info.job),
                  warm->info.job.map_output_records)
            << label;
        EXPECT_EQ(warm->info.job.input_records, dataset.features.size())
            << label;
      }
    }
  }
}

TEST(PostingsMapTest, QueryBatchMatchesCold) {
  const Dataset dataset = HostileTermDataset();
  for (bool prefilter : {true, false}) {
    SpqEngine engine = MakeEngine(dataset, prefilter);
    ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
    for (Algorithm algo : kAlgos) {
      for (const auto& [name, batch] : EdgeBatches()) {
        const std::string label = std::string("prefilter ") +
                                  (prefilter ? "on, " : "off, ") +
                                  AlgorithmName(algo) + ", " + name;
        auto warm = engine.QueryBatch(batch, algo);
        ASSERT_TRUE(warm.ok()) << label << ": " << warm.status().ToString();
        ASSERT_TRUE(warm->warm_path) << label;
        testing::ExpectBatchMatchesSingleQueryJobs(engine, batch, algo, *warm,
                                                   label);
      }
    }
  }
}

// The long-run features are where an 8-bit intersection count would
// wrap: 300 shared terms would read as 44, and 256 as 0 (pruned).
TEST(PostingsMapTest, IntersectionCountsAboveAByte) {
  const Dataset dataset = HostileTermDataset();
  SpqEngine engine = MakeEngine(dataset, /*keyword_prefilter=*/true);
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  const Query query = MakeQuery(TermRange(1000, 300), kStoreRadius, 2);
  auto warm = engine.Query(query, Algorithm::kESPQSco);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->info.features_kept, 2u);
  EXPECT_EQ(warm->info.features_pruned, dataset.features.size() - 2);
  ASSERT_FALSE(warm->entries.empty());
  // The 400-term feature scores 300 / 400; the 256-term one 256 / 300.
  EXPECT_EQ(warm->entries[0].score, 256.0 / 300.0);
}

}  // namespace
}  // namespace spq::core
