// End-to-end tests for the unified observability layer, run under the
// "observability" ctest label and the tsan preset:
//   - a warm query leaves the expected footprint in the global registry
//     (latency histograms, job counters) without touching its results;
//   - ServingStats is internally consistent under concurrent readers:
//     submitted == admitted + rejected for EVERY read (the torn-read fix);
//   - cold fallbacks bump spq.query.cold_fallbacks once per cold query;
//   - the slow-query log threshold drives spq.query.slow;
//   - a traced coalesced batch yields the full span chain and a valid
//     chrome://tracing export;
//   - SpqEngine::MetricsSnapshot()/DumpMetrics() expose the surface.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/engine.h"
#include "spq/serving.h"
#include "testing/json_lite.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 7;
constexpr double kStoreRadius = 0.9 / kGridSize;

Dataset MakeObsDataset() {
  datagen::UniformSpec spec;
  spec.num_objects = 1'000;
  spec.seed = 97;
  spec.vocab_size = 100;
  spec.min_keywords = 2;
  spec.max_keywords = 10;
  auto dataset = datagen::MakeUniformDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

EngineOptions MakeObsOptions() {
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

Query MakeObsQuery(uint64_t seed, double radius_scale = 0.5) {
  datagen::WorkloadSpec spec;
  spec.num_keywords = 2;
  spec.radius = kStoreRadius * radius_scale;
  spec.k = 5;
  spec.vocab_size = 100;
  spec.seed = seed;
  return datagen::MakeQuery(spec, 0);
}

/// Every test starts from zeroed global metrics and a clean, disabled
/// tracer; the logger is silenced for the noisy (cold/slow) scenarios.
struct ObservabilitySandbox {
  ObservabilitySandbox() {
    trace::SetEnabled(false);
    trace::Clear();
    metrics::MetricsRegistry::Global().ResetForTest();
  }
  ~ObservabilitySandbox() {
    trace::SetEnabled(false);
    trace::Clear();
    Logger::SetMinLevel(LogLevel::kInfo);
  }
};

TEST(ObservabilityTest, WarmQueryLeavesRegistryFootprint) {
  ObservabilitySandbox sandbox;
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  metrics::MetricsRegistry::Global().ResetForTest();

  auto result = engine.Query(MakeObsQuery(11), Algorithm::kPSPQ);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->info.warm_path);

  const metrics::RegistrySnapshot snap = engine.MetricsSnapshot();
  const metrics::HistogramSnapshot warm =
      snap.HistogramValue("spq.query.warm_ns");
  EXPECT_EQ(warm.count, 1u);
  EXPECT_GT(warm.sum, 0u);
  EXPECT_EQ(snap.CounterValue("spq.job.runs"), 1u);  // one warm reduce job
  EXPECT_EQ(snap.HistogramValue("spq.job.total_ns").count, 1u);
  EXPECT_EQ(snap.CounterValue("spq.query.cold_fallbacks"), 0u);
  EXPECT_EQ(snap.CounterValue("spq.query.slow"), 0u);
}

// Instrumentation must never alter results: the same query answered with
// tracing + metrics hot is bit-identical to the quiet answer.
TEST(ObservabilityTest, TracingDoesNotChangeResults) {
  ObservabilitySandbox sandbox;
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());

  const Query query = MakeObsQuery(23);
  auto quiet = engine.Query(query, Algorithm::kESPQSco);
  ASSERT_TRUE(quiet.ok());

  trace::SetEnabled(true);
  auto traced = engine.Query(query, Algorithm::kESPQSco);
  trace::SetEnabled(false);
  ASSERT_TRUE(traced.ok());

  ASSERT_EQ(quiet->entries.size(), traced->entries.size());
  for (std::size_t i = 0; i < quiet->entries.size(); ++i) {
    EXPECT_EQ(quiet->entries[i].id, traced->entries[i].id) << i;
    EXPECT_EQ(quiet->entries[i].score, traced->entries[i].score) << i;
  }
  EXPECT_EQ(quiet->info.reduce_groups, traced->info.reduce_groups);
  EXPECT_FALSE(trace::Collect().empty());
}

// The torn-read fix: stats() derives `submitted` from the same counter
// reads it reports, so EVERY observed snapshot satisfies
// submitted == admitted + rejected — even while submitters are mid-burst
// against a zero-capacity (always-rejecting) sibling door.
TEST(ObservabilityTest, ServingStatsNeverTear) {
  ObservabilitySandbox sandbox;
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  SpqFrontDoor door(engine);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServingStats stats = door.stats();
      if (stats.submitted != stats.admitted + stats.rejected) {
        ADD_FAILURE() << "torn stats: submitted=" << stats.submitted
                      << " admitted=" << stats.admitted
                      << " rejected=" << stats.rejected;
        return;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result =
            door.Submit(MakeObsQuery(100 + t * kPerThread + i),
                        Algorithm::kPSPQ)
                .get();
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const ServingStats stats = door.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.admitted, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(reads.load(), 0u);
}

TEST(ObservabilityTest, ColdFallbacksCountedPerColdQuery) {
  ObservabilitySandbox sandbox;
  Logger::SetMinLevel(LogLevel::kOff);  // cold fallbacks warn on purpose
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  metrics::MetricsRegistry::Global().ResetForTest();

  constexpr int kCold = 3;
  for (int i = 0; i < kCold; ++i) {
    // Radius beyond the store's contract forces the cold path.
    auto result = engine.Query(MakeObsQuery(200 + i, 2.0), Algorithm::kPSPQ);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->info.cold_fallback);
  }
  auto warm = engine.Query(MakeObsQuery(300), Algorithm::kPSPQ);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->info.warm_path);

  const metrics::RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("spq.query.cold_fallbacks"),
            static_cast<uint64_t>(kCold));
  EXPECT_EQ(snap.HistogramValue("spq.query.warm_ns").count, 1u);
}

TEST(ObservabilityTest, SlowQueryThresholdDrivesCounter) {
  ObservabilitySandbox sandbox;
  Logger::SetMinLevel(LogLevel::kOff);  // the slow-query WARN is the point
  EngineOptions slow_options = MakeObsOptions();
  slow_options.slow_query_ms = 1e-6;  // everything is "slow"
  SpqEngine slow_engine(MakeObsDataset(), slow_options);
  ASSERT_TRUE(slow_engine.BuildStore(kStoreRadius).ok());
  metrics::MetricsRegistry::Global().ResetForTest();

  ASSERT_TRUE(slow_engine.Query(MakeObsQuery(41), Algorithm::kPSPQ).ok());
  EXPECT_EQ(slow_engine.MetricsSnapshot().CounterValue("spq.query.slow"), 1u);

  // Threshold <= 0 disables the slow-query path entirely.
  EngineOptions quiet_options = MakeObsOptions();
  quiet_options.slow_query_ms = 0.0;
  SpqEngine quiet_engine(MakeObsDataset(), quiet_options);
  ASSERT_TRUE(quiet_engine.BuildStore(kStoreRadius).ok());
  metrics::MetricsRegistry::Global().ResetForTest();
  ASSERT_TRUE(quiet_engine.Query(MakeObsQuery(43), Algorithm::kPSPQ).ok());
  EXPECT_EQ(quiet_engine.MetricsSnapshot().CounterValue("spq.query.slow"), 0u);
}

// The acceptance capture: a coalesced front-door burst traced end to end
// produces the whole span chain (admission → batch close → serve →
// warm batch → job phases → reduce groups) and a valid chrome export.
TEST(ObservabilityTest, CoalescedBatchTraceCapture) {
  ObservabilitySandbox sandbox;
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  SpqFrontDoor door(engine);

  trace::Clear();
  trace::SetEnabled(true);
  std::vector<std::future<StatusOr<SpqResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(door.Submit(MakeObsQuery(400 + i), Algorithm::kPSPQ));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  // Quiesce before collecting: a fulfilled future only proves the batch's
  // RESULTS are ready — the executor may still be inside the tail of its
  // door.serve_batch span, and a span recorded between Collect() and the
  // export below would break the size equality. Shutdown joins it.
  door.Shutdown();
  trace::SetEnabled(false);

  const std::vector<trace::SpanEvent> events = trace::Collect();
  auto count_named = [&events](const char* name) {
    std::size_t n = 0;
    for (const auto& event : events) {
      if (std::string(name) == event.name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_named("door.admit"), 12u);
  EXPECT_GE(count_named("door.batch_close"), 1u);
  EXPECT_GE(count_named("door.serve_batch"), 1u);
  EXPECT_GE(count_named("query.warm_batch"), 1u);
  EXPECT_GE(count_named("query.snapshot_pin"), 1u);
  EXPECT_GE(count_named("job.run"), 1u);
  EXPECT_GE(count_named("job.map"), 1u);
  EXPECT_GE(count_named("job.reduce"), 1u);
  EXPECT_GE(count_named("reduce.join"), 1u);  // per reduce group

  std::ostringstream os;
  trace::ExportChromeTrace(os);
  testing::JsonValue doc;
  ASSERT_TRUE(testing::JsonLite::Parse(os.str(), &doc));
  const testing::JsonValue* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_EQ(trace_events->array.size(), events.size());

  const ServingStats stats = door.stats();
  EXPECT_GE(stats.coalesced, 2u);  // the burst genuinely coalesced
  const metrics::RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_GE(snap.HistogramValue("spq.serving.queue_wait_ns").count, 12u);
  EXPECT_GE(snap.HistogramValue("spq.serving.batch_size").count, 1u);
  EXPECT_EQ(snap.CounterValue("spq.serving.admitted"), 12u);
}

TEST(ObservabilityTest, DumpMetricsExposesPrometheusText) {
  ObservabilitySandbox sandbox;
  SpqEngine engine(MakeObsDataset(), MakeObsOptions());
  ASSERT_TRUE(engine.BuildStore(kStoreRadius).ok());
  ASSERT_TRUE(engine.Query(MakeObsQuery(51), Algorithm::kPSPQ).ok());

  std::ostringstream os;
  engine.DumpMetrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("spq_query_warm_ns_count"), std::string::npos);
  EXPECT_NE(text.find("spq_job_runs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
}

}  // namespace
}  // namespace spq::core
