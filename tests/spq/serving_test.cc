// Tests for the admission/batching front door (spq/serving.h), also run
// under the "concurrency" ctest label and the tsan preset:
//   - coalesced serving returns exactly what direct engine.Query() returns
//     (per-query entries bit-identical), with the coalescing visible in
//     ServingStats;
//   - backpressure: a zero-capacity queue rejects every submission with
//     Unavailable, deterministically, and counts it;
//   - oversized-radius queries are routed individually through the loud
//     cold fallback instead of dragging their batchmates cold;
//   - Shutdown() fulfills every admitted future;
//   - an invalid query is rejected at Submit() and never fails the batch
//     it would have joined;
//   - out-of-range max_batch and max_wait_ms are clamped, not undefined.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/engine.h"
#include "spq/serving.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 7;
constexpr double kStoreRadius = 0.9 / kGridSize;

Dataset MakeServingDataset() {
  datagen::UniformSpec spec;
  spec.num_objects = 1'000;
  spec.seed = 41;
  spec.vocab_size = 100;
  spec.min_keywords = 2;
  spec.max_keywords = 10;
  auto dataset = datagen::MakeUniformDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

EngineOptions MakeServingOptions() {
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 2;
  options.num_map_tasks = 3;
  options.num_reduce_tasks = 5;
  options.serving.max_batch = 8;
  options.serving.max_wait_ms = 5.0;
  options.serving.queue_capacity = 64;
  return options;
}

std::vector<Query> MakeServingQueries(std::size_t count) {
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    datagen::WorkloadSpec spec;
    spec.num_keywords = 2 + (i % 3);
    spec.radius = kStoreRadius * (0.4 + 0.08 * static_cast<double>(i % 6));
    spec.k = 5;
    spec.vocab_size = 100;
    spec.seed = 500 + i;
    queries.push_back(datagen::MakeQuery(spec, 0));
  }
  return queries;
}

void ExpectSameEntries(const SpqResult& expected, const SpqResult& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].id, actual.entries[i].id)
        << label << " @" << i;
    EXPECT_EQ(expected.entries[i].score, actual.entries[i].score)
        << label << " @" << i;
  }
}

TEST(FrontDoorTest, CoalescedResultsMatchDirectQueries) {
  SpqEngine engine(MakeServingDataset(), MakeServingOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeServingQueries(12);
  std::vector<SpqResult> direct;
  for (const Query& query : queries) {
    auto result = engine.Query(query, Algorithm::kPSPQ);
    ASSERT_TRUE(result.ok());
    direct.push_back(*std::move(result));
  }

  SpqFrontDoor door(engine);
  // Submit the whole burst before any future is waited on: with one
  // executor and a 5 ms budget the burst coalesces into shared batches.
  std::vector<std::future<StatusOr<SpqResult>>> futures;
  futures.reserve(queries.size());
  for (const Query& query : queries) {
    futures.push_back(door.Submit(query, Algorithm::kPSPQ));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    StatusOr<SpqResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->info.warm_path) << "query " << i;
    ExpectSameEntries(direct[i], *result, "query " + std::to_string(i));
  }

  const ServingStats stats = door.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.admitted, queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  // A 12-query burst against a 1-executor door must have shared at least
  // one job (the first query may run alone while the rest queue).
  EXPECT_GE(stats.coalesced, 2u);
  uint64_t histogram_total = 0;
  for (std::size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
    histogram_total += s * stats.batch_size_hist[s];
  }
  EXPECT_EQ(histogram_total, queries.size());  // every query lands in a batch
}

TEST(FrontDoorTest, ZeroCapacityQueueRejectsDeterministically) {
  EngineOptions options = MakeServingOptions();
  options.serving.queue_capacity = 0;
  SpqEngine engine(MakeServingDataset(), options);
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  SpqFrontDoor door(engine);
  const std::vector<Query> queries = MakeServingQueries(5);
  for (const Query& query : queries) {
    StatusOr<SpqResult> result = door.Submit(query, Algorithm::kPSPQ).get();
    EXPECT_TRUE(result.status().IsUnavailable())
        << result.status().ToString();
  }
  const ServingStats stats = door.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, queries.size());
  EXPECT_EQ(stats.batches, 0u);
}

TEST(FrontDoorTest, OversizedRadiusRoutedIndividually) {
  SpqEngine engine(MakeServingDataset(), MakeServingOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  std::vector<Query> queries = MakeServingQueries(4);
  queries[1].radius = 2.0 * kStoreRadius;  // out of the store's contract
  std::vector<SpqResult> direct;
  for (const Query& query : queries) {
    auto result = engine.Query(query, Algorithm::kESPQLen);
    ASSERT_TRUE(result.ok());
    direct.push_back(*std::move(result));
  }
  ASSERT_TRUE(direct[1].info.cold_fallback);

  SpqFrontDoor door(engine);
  std::vector<std::future<StatusOr<SpqResult>>> futures;
  for (const Query& query : queries) {
    futures.push_back(door.Submit(query, Algorithm::kESPQLen));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    StatusOr<SpqResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The oversized query stays loud; its batchmates stay warm.
    EXPECT_EQ(result->info.cold_fallback, i == 1) << "query " << i;
    EXPECT_EQ(result->info.warm_path, i != 1) << "query " << i;
    ExpectSameEntries(direct[i], *result, "query " + std::to_string(i));
  }
  EXPECT_EQ(door.stats().cold_routed, 1u);
}

TEST(FrontDoorTest, ShutdownFulfillsEveryAdmittedFuture) {
  SpqEngine engine(MakeServingDataset(), MakeServingOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  auto door = std::make_unique<SpqFrontDoor>(engine);
  const std::vector<Query> queries = MakeServingQueries(6);
  std::vector<std::future<StatusOr<SpqResult>>> futures;
  for (const Query& query : queries) {
    futures.push_back(door->Submit(query, Algorithm::kPSPQ));
  }
  door->Shutdown();  // admitted queries are served, not dropped
  for (std::size_t i = 0; i < futures.size(); ++i) {
    StatusOr<SpqResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->entries.empty() && queries[i].k > 0 &&
                 result->info.reduce_groups == 0)
        << "query " << i << " looks unserved";
  }
  // Submissions after shutdown are rejected, not queued forever.
  StatusOr<SpqResult> late = door->Submit(queries[0], Algorithm::kPSPQ).get();
  EXPECT_TRUE(late.status().IsUnavailable());
}

// An invalid query (k = 0, NaN radius, negative radius) resolves at once to
// InvalidArgument and is never admitted: QueryBatch rejects a whole batch
// on one invalid query, so admitting it would fail every batchmate. The
// 200 ms budget makes the burst one coalesced batch.
TEST(FrontDoorTest, InvalidQueryFailsAloneNotItsBatch) {
  EngineOptions options = MakeServingOptions();
  options.serving.max_wait_ms = 200.0;
  SpqEngine engine(MakeServingDataset(), options);
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeServingQueries(4);
  std::vector<SpqResult> direct;
  for (const Query& query : queries) {
    auto result = engine.Query(query, Algorithm::kESPQSco);
    ASSERT_TRUE(result.ok());
    direct.push_back(*std::move(result));
  }

  Query zero_k = queries[1];
  zero_k.k = 0;
  Query nan_radius = queries[1];
  nan_radius.radius = std::numeric_limits<double>::quiet_NaN();
  Query negative_radius = queries[1];
  negative_radius.radius = -1.0;
  for (const Query& invalid : {zero_k, nan_radius, negative_radius}) {
    SpqFrontDoor door(engine);
    std::vector<std::future<StatusOr<SpqResult>>> futures;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      futures.push_back(
          door.Submit(i == 1 ? invalid : queries[i], Algorithm::kESPQSco));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      StatusOr<SpqResult> result = futures[i].get();
      if (i == 1) {
        EXPECT_TRUE(result.status().IsInvalidArgument())
            << result.status().ToString();
        continue;
      }
      ASSERT_TRUE(result.ok()) << "query " << i << ": "
                               << result.status().ToString();
      ExpectSameEntries(direct[i], *result, "query " + std::to_string(i));
    }
    const ServingStats stats = door.stats();
    EXPECT_EQ(stats.submitted, queries.size());
    EXPECT_EQ(stats.admitted, queries.size() - 1);
    EXPECT_EQ(stats.rejected, 1u);
  }
}

// The front door under true multi-threaded submission: callers from many
// threads get exactly their own query's results back (no cross-wiring of
// promises under contention).
TEST(FrontDoorTest, ConcurrentSubmittersGetTheirOwnResults) {
  SpqEngine engine(MakeServingDataset(), MakeServingOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeServingQueries(6);
  std::vector<SpqResult> direct;
  for (const Query& query : queries) {
    auto result = engine.Query(query, Algorithm::kPSPQ);
    ASSERT_TRUE(result.ok());
    direct.push_back(*std::move(result));
  }

  SpqFrontDoor door(engine);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::size_t q = (i + static_cast<std::size_t>(t)) %
                              queries.size();
        StatusOr<SpqResult> result =
            door.Query(queries[q], Algorithm::kPSPQ);
        if (!result.ok()) {
          ADD_FAILURE() << "thread " << t << " query " << q << ": "
                        << result.status().ToString();
          return;
        }
        ExpectSameEntries(direct[q], *result,
                          "thread " + std::to_string(t) + " query " +
                              std::to_string(q));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ServingStats stats = door.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads) * queries.size());
  EXPECT_EQ(stats.rejected, 0u);
}

// max_batch = 2^32 - 1: the door's batch-size table has max_batch + 1
// slots, which in 32 bits is zero, so the first dispatched batch would
// write past its end. The door clamps max_batch to 4096.
TEST(FrontDoorTest, HugeMaxBatchIsClamped) {
  EngineOptions options = MakeServingOptions();
  options.serving.max_batch = std::numeric_limits<uint32_t>::max();
  SpqEngine engine(MakeServingDataset(), options);
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const std::vector<Query> queries = MakeServingQueries(6);
  std::vector<SpqResult> direct;
  for (const Query& query : queries) {
    auto result = engine.Query(query, Algorithm::kPSPQ);
    ASSERT_TRUE(result.ok());
    direct.push_back(*std::move(result));
  }

  SpqFrontDoor door(engine);
  std::vector<std::future<StatusOr<SpqResult>>> futures;
  for (const Query& query : queries) {
    futures.push_back(door.Submit(query, Algorithm::kPSPQ));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    StatusOr<SpqResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameEntries(direct[i], *result, "query " + std::to_string(i));
  }
  const ServingStats stats = door.stats();
  EXPECT_EQ(stats.batch_size_hist.size(), 4096u + 1);
  uint64_t histogram_total = 0;
  for (std::size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
    histogram_total += s * stats.batch_size_hist[s];
  }
  EXPECT_EQ(histogram_total, queries.size());
}

// A wait budget of +inf or 1e300 ms overflows the batch-close deadline's
// cast to the integer clock: undefined behaviour, which on x86 lands the
// deadline in the past, so a batch would never wait for batchmates. The
// door caps the budget at one minute, so a lone query waits until its
// batch fills.
TEST(FrontDoorTest, UnboundedMaxWaitHoldsTheBatchUntilFull) {
  for (const double max_wait_ms :
       {std::numeric_limits<double>::infinity(), 1e300}) {
    SCOPED_TRACE("max_wait_ms " + std::to_string(max_wait_ms));
    EngineOptions options = MakeServingOptions();
    options.serving.max_batch = 4;
    options.serving.max_wait_ms = max_wait_ms;
    SpqEngine engine(MakeServingDataset(), options);
    ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

    const std::vector<Query> queries = MakeServingQueries(4);
    std::vector<SpqResult> direct;
    for (const Query& query : queries) {
      auto result = engine.Query(query, Algorithm::kPSPQ);
      ASSERT_TRUE(result.ok());
      direct.push_back(*std::move(result));
    }

    SpqFrontDoor door(engine);
    std::vector<std::future<StatusOr<SpqResult>>> futures;
    futures.push_back(door.Submit(queries[0], Algorithm::kPSPQ));
    EXPECT_EQ(futures[0].wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    for (std::size_t i = 1; i < queries.size(); ++i) {
      futures.push_back(door.Submit(queries[i], Algorithm::kPSPQ));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      StatusOr<SpqResult> result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->info.warm_path) << "query " << i;
      ExpectSameEntries(direct[i], *result, "query " + std::to_string(i));
    }
    const ServingStats stats = door.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.coalesced, queries.size());
    ASSERT_EQ(stats.batch_size_hist.size(), 5u);
    EXPECT_EQ(stats.batch_size_hist[4], 1u);
  }
}

}  // namespace
}  // namespace spq::core
