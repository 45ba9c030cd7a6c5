// Concurrency property tests for the warm serving layer (run under the
// tsan preset and via the "concurrency" ctest label):
//
//   1. N threads hammering Query() concurrently get results bit-identical
//      to the same queries run serially — per-query scratch isolation and
//      the latched first-touch materialization must not perturb scores,
//      order, or counters.
//   2. The documented cold_fallback contract under concurrency: an
//      oversized-radius query served WHILE the store is live never
//      touches snapshot-mutable state (a recovered store's lazy
//      restore counters stay at zero) and stays loud (cold_fallback set).
//   3. Queries keep serving, bit-identically, while the store is
//      checkpointed and swapped out underneath them (CheckpointStore +
//      OpenStore's RCU publication).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "geo/point.h"
#include "spq/cell_store.h"
#include "spq/engine.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 7;
constexpr double kCellEdge = 1.0 / kGridSize;
constexpr double kStoreRadius = 0.9 * kCellEdge;

Dataset MakeConcurrencyDataset() {
  datagen::ClusteredSpec spec;
  spec.num_objects = 1'200;
  spec.seed = 77;
  spec.vocab_size = 120;
  spec.min_keywords = 2;
  spec.max_keywords = 12;
  spec.num_clusters = 5;
  auto dataset = datagen::MakeClusteredDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

EngineOptions MakeConcurrencyOptions() {
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 2;
  options.num_map_tasks = 3;
  // Fewer reducers than cells so partitions interleave several cells.
  options.num_reduce_tasks = 5;
  return options;
}

std::vector<Query> MakeQueryMix(std::size_t count) {
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    datagen::WorkloadSpec spec;
    spec.num_keywords = 2 + (i % 3);
    spec.radius = kStoreRadius * (0.3 + 0.1 * static_cast<double>(i % 7));
    spec.k = 4 + (i % 4);
    spec.vocab_size = 120;
    spec.seed = 900 + i;
    queries.push_back(datagen::MakeQuery(spec, 0));
  }
  return queries;
}

Algorithm AlgoFor(std::size_t i) {
  switch (i % 3) {
    case 0: return Algorithm::kPSPQ;
    case 1: return Algorithm::kESPQLen;
    default: return Algorithm::kESPQSco;
  }
}

void ExpectSameResult(const SpqResult& expected, const SpqResult& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].id, actual.entries[i].id)
        << label << " @" << i;
    // Bit-identical, not approximately equal: concurrency must not change
    // the order data objects are scored in.
    EXPECT_EQ(expected.entries[i].score, actual.entries[i].score)
        << label << " @" << i;
  }
  EXPECT_EQ(expected.info.features_examined, actual.info.features_examined)
      << label;
  EXPECT_EQ(expected.info.pairs_tested, actual.info.pairs_tested) << label;
  EXPECT_EQ(expected.info.reduce_groups, actual.info.reduce_groups) << label;
}

TEST(ConcurrencyTest, ConcurrentQueriesMatchSerialBitIdentically) {
  SpqEngine engine(MakeConcurrencyDataset(), MakeConcurrencyOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeQueryMix(6);
  std::vector<SpqResult> serial;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = engine.Query(queries[i], AlgoFor(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    serial.push_back(*std::move(result));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the mix at a different phase so distinct
        // queries overlap in time.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t q = (i + static_cast<std::size_t>(t)) %
                                queries.size();
          auto result = engine.Query(queries[q], AlgoFor(q));
          if (!result.ok()) {
            ADD_FAILURE() << "thread " << t << " query " << q << ": "
                          << result.status().ToString();
            failures.fetch_add(1);
            return;
          }
          ExpectSameResult(serial[q], *result,
                           "thread " + std::to_string(t) + " query " +
                               std::to_string(q));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Satellite contract: the documented cold fallback (radius > max_radius)
// under concurrent callers. Served from a RECOVERED store whose cells are
// all still lazy, so "never touches snapshot-mutable state" is observable:
// cells_restored/cells_rebuilt stay 0 through any number of fallbacks.
TEST(ConcurrencyTest, ColdFallbackIsLoudAndTouchesNoStoreState) {
  Dataset dataset = MakeConcurrencyDataset();
  dfs::MiniDfs dfs({.num_datanodes = 4, .block_size = 4096, .replication = 2});
  {
    SpqEngine writer(dataset, MakeConcurrencyOptions());
    ASSERT_TRUE(writer.BuildStore(kStoreRadius).ok());
    ASSERT_TRUE(writer.CheckpointStore(dfs, "store").ok());
  }
  SpqEngine engine(dataset, MakeConcurrencyOptions());
  ASSERT_TRUE(engine.OpenStore(dfs, "store").ok());
  ASSERT_EQ(engine.store()->cells_restored(), 0u);
  ASSERT_EQ(engine.store()->cells_rebuilt(), 0u);

  Query oversized = MakeQueryMix(1).front();
  oversized.radius = 2.0 * kStoreRadius;  // > build radius: must fall back
  auto reference = engine.Execute(oversized, Algorithm::kPSPQ);
  ASSERT_TRUE(reference.ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = engine.Query(oversized, Algorithm::kPSPQ);
      if (!result.ok()) {
        ADD_FAILURE() << "thread " << t << ": "
                      << result.status().ToString();
        return;
      }
      EXPECT_TRUE(result->info.cold_fallback) << "thread " << t;
      EXPECT_FALSE(result->info.warm_path) << "thread " << t;
      ExpectSameResult(*reference, *result,
                       "fallback thread " + std::to_string(t));
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The loud fallback ran entirely on the cold path: no cell of the
  // recovered store was materialized (restored or rebuilt) on its behalf.
  EXPECT_EQ(engine.store()->cells_restored(), 0u);
  EXPECT_EQ(engine.store()->cells_rebuilt(), 0u);
}

// Rebuild/checkpoint/recovery proceed under traffic: query threads hammer
// the engine while the main thread checkpoints the live store and then
// swaps in a recovered generation via OpenStore. Every query — on either
// generation — must stay bit-identical to the serial baseline.
TEST(ConcurrencyTest, QueriesServeAcrossCheckpointAndStoreSwap) {
  Dataset dataset = MakeConcurrencyDataset();
  SpqEngine engine(dataset, MakeConcurrencyOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeQueryMix(4);
  std::vector<SpqResult> serial;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = engine.Query(queries[i], AlgoFor(i));
    ASSERT_TRUE(result.ok());
    serial.push_back(*std::move(result));
  }

  dfs::MiniDfs dfs({.num_datanodes = 4, .block_size = 4096, .replication = 2});
  std::atomic<bool> stop{false};
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t q = i++ % queries.size();
        auto result = engine.Query(queries[q], AlgoFor(q));
        if (!result.ok()) {
          ADD_FAILURE() << "in-flight query " << q << ": "
                        << result.status().ToString();
          return;
        }
        ExpectSameResult(serial[q], *result,
                         "swap thread " + std::to_string(t) + " query " +
                             std::to_string(q));
      }
    });
  }

  // Under live traffic: persist the current generation, then publish a
  // recovered one (lazy cells — queries drive concurrent materialization),
  // then checkpoint THAT and swap again.
  auto epoch1 = engine.CheckpointStore(dfs, "store");
  ASSERT_TRUE(epoch1.ok()) << epoch1.status().ToString();
  ASSERT_TRUE(engine.OpenStore(dfs, "store").ok());
  auto epoch2 = engine.CheckpointStore(dfs, "store");
  ASSERT_TRUE(epoch2.ok()) << epoch2.status().ToString();
  EXPECT_GT(*epoch2, *epoch1);
  ASSERT_TRUE(engine.OpenStore(dfs, "store").ok());

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
}

// Mutation layer under live readers (tentpole contract, PR "Mutable
// CellStore"): Insert/Delete/CompactStore publish new RCU generations
// while reader threads hammer Query(). A reader pins whatever generation
// is current when it starts and finishes on it untouched. The mutations
// insert objects provably outside every query's influence — farther than
// the store build radius from EVERY feature, so they can never score and
// never enter any top-k — which makes the result ENTRIES
// generation-invariant and comparable to the pre-mutation serial
// baseline from any pinned generation (counters legitimately differ per
// generation: extra resident rows change pairs_tested/groups). After the
// churn deletes everything it inserted, the logical dataset equals the
// original again and FULL bit-identity — counters included — must hold.
TEST(ConcurrencyTest, ReadersStayBitIdenticalAcrossMutationPublishes) {
  Dataset dataset = MakeConcurrencyDataset();
  SpqEngine engine(dataset, MakeConcurrencyOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeQueryMix(4);
  std::vector<SpqResult> serial;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = engine.Query(queries[i], AlgoFor(i));
    ASSERT_TRUE(result.ok());
    serial.push_back(*std::move(result));
  }

  // Quiet positions: beyond the build radius (every query radius is
  // smaller) from every feature.
  std::vector<geo::Point> quiet;
  const double safe2 = (1.05 * kStoreRadius) * (1.05 * kStoreRadius);
  for (int gx = 0; gx < 40 && quiet.size() < 6; ++gx) {
    for (int gy = 0; gy < 40 && quiet.size() < 6; ++gy) {
      const geo::Point p{(gx + 0.5) / 40.0, (gy + 0.5) / 40.0};
      double min2 = std::numeric_limits<double>::infinity();
      for (const FeatureObject& f : dataset.features) {
        min2 = std::min(min2, geo::Distance2(p, f.pos));
      }
      if (min2 > safe2) quiet.push_back(p);
    }
  }
  ASSERT_FALSE(quiet.empty()) << "dataset has no feature-free region";

  std::atomic<bool> stop{false};
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t q = i++ % queries.size();
        auto result = engine.Query(queries[q], AlgoFor(q));
        if (!result.ok()) {
          ADD_FAILURE() << "in-flight query " << q << ": "
                        << result.status().ToString();
          return;
        }
        const auto& want = serial[q].entries;
        const auto& got = result->entries;
        if (want.size() != got.size()) {
          ADD_FAILURE() << "entry count drift under mutation, query " << q;
          continue;
        }
        for (std::size_t e = 0; e < want.size(); ++e) {
          EXPECT_EQ(want[e].id, got[e].id) << "query " << q << " @" << e;
          EXPECT_EQ(want[e].score, got[e].score) << "query " << q << " @" << e;
        }
      }
    });
  }

  // Mutator (this thread): waves of insert / compact / checkpoint-attempt
  // / delete, each op an RCU publish under the readers.
  dfs::MiniDfs dfs({.num_datanodes = 4, .block_size = 4096, .replication = 2});
  constexpr int kWaves = 8;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<ObjectId> ids;
    for (std::size_t j = 0; j < quiet.size(); ++j) {
      DataObject object;
      object.id = 90'000'000 + static_cast<ObjectId>(wave) * 100 + j;
      object.pos = quiet[j];
      ASSERT_TRUE(engine.Insert(object).ok());
      ids.push_back(object.id);
    }
    if (wave % 3 == 1) {
      ASSERT_TRUE(engine.CompactStore().ok());
    }
    // A checkpoint racing mutations either persists the clean generation
    // it pinned or refuses loudly — never a torn state, never a crash.
    auto epoch = engine.CheckpointStore(dfs, "mut-race");
    EXPECT_TRUE(epoch.ok() || epoch.status().IsFailedPrecondition())
        << epoch.status().ToString();
    for (ObjectId id : ids) {
      ASSERT_TRUE(engine.Delete(id).ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  // Logical dataset is back to the original: full bit-identity, counters
  // included, against the pre-mutation baseline (invariant M2 — the store
  // still carries tombstones, masked out of geometry and scratch).
  EXPECT_TRUE(engine.store()->mutated());
  EXPECT_EQ(engine.store()->data_objects(), dataset.data.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = engine.Query(queries[i], AlgoFor(i));
    ASSERT_TRUE(result.ok());
    ExpectSameResult(serial[i], *result,
                     "post-churn query " + std::to_string(i));
    EXPECT_EQ(serial[i].info.early_terminations,
              result->info.early_terminations);
  }
  // And a mutated store keeps refusing checkpoints deterministically once
  // no pre-mutation generation can be pinned.
  auto refused = engine.CheckpointStore(dfs, "mut-final");
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
}

}  // namespace
}  // namespace spq::core
