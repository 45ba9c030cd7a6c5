// Benchmark of the resident CellStore serving layer: cold single-shot
// Execute() (the paper's model — the whole dataset re-mapped and
// re-shuffled per query) against warm Query() (BuildStore() once, each
// query shuffles only its features and joins against the resident
// per-cell partitions) and warm QueryBatch() (one feature-side job for
// the whole query set).
//
// The workload is data-heavy — many rankable objects, a smaller feature
// set — which is exactly the shape the store targets: the dataset-side
// map/shuffle dominates the cold path and is amortized away by the build.
// Results go to stdout and BENCH_store.json (records/sec and p50 query
// latency per mode, for cross-PR perf tracking).
//
// The open-loop section replays one Poisson arrival trace (offered at
// ~3x the warm single-caller capacity) under three admission
// disciplines — serial FIFO executor, concurrent direct callers, and
// SpqFrontDoor coalescing — reporting p50/p99 latency against scheduled
// arrivals plus achieved qps for each.
//
// The durability section measures the checkpoint/recovery path on the
// same store: checkpoint write time, OpenStore (WAL + manifest only) and
// recovery-to-first-warm-query latency — which, thanks to cell-granular
// lazy restore, must come in under 10% of a full cold BuildStore(). Both
// sides of that gate are medians of 5 runs.
//
// The churn section runs a 10% turnover wave (strided deletes + fresh
// inserts) against the live store, reporting mutation throughput and the
// warm p50 on the mutated and the compacted layout against an
// interleaved fresh-rebuild reference — gated on per-query work parity
// (identical counters: mutation cost is paid at publish time, never on
// the read path) plus a p50 ceiling above the container's measured
// allocator-placement noise band.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "spq/cell_store.h"
#include "spq/engine.h"
#include "spq/serving.h"

namespace spq {
namespace {

constexpr uint32_t kGridSize = 50;
constexpr std::size_t kNumQueries = 24;

struct ModeResult {
  std::string mode;
  double p50_ms = 0.0;
  double qps = 0.0;
  double records_per_sec = 0.0;  ///< dataset records served per second
  double setup_seconds = 0.0;    ///< store build (warm modes only)
  /// True when p50_ms is really total/N (one shared batch job has no
  /// per-query latency distribution); emitted under a distinct JSON key
  /// so cross-PR tracking never compares a mean against a true p50.
  bool amortized = false;
};

double Percentile(std::vector<double> seconds, double pct) {
  std::sort(seconds.begin(), seconds.end());
  const std::size_t idx = std::min(
      seconds.size() - 1, static_cast<std::size_t>(pct * seconds.size()));
  return seconds[idx];
}

double Percentile50(std::vector<double> seconds) {
  return Percentile(std::move(seconds), 0.5);
}

/// One open-loop replay's outcome: per-query latency = completion minus
/// *scheduled* arrival (queueing delay included — the open-loop point),
/// achieved qps = trace size / last completion.
struct OpenLoopResult {
  std::string mode;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

OpenLoopResult SummarizeOpenLoop(std::string mode, std::vector<double> lat,
                                 double makespan_seconds) {
  OpenLoopResult r;
  r.mode = std::move(mode);
  r.qps = static_cast<double>(lat.size()) / makespan_seconds;
  r.p50_ms = Percentile(lat, 0.5) * 1e3;
  r.p99_ms = Percentile(std::move(lat), 0.99) * 1e3;
  return r;
}

std::vector<core::Query> MakeQueries(double radius) {
  std::vector<core::Query> queries;
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    datagen::WorkloadSpec wspec;
    wspec.num_keywords = 5;
    wspec.radius = radius;
    wspec.k = 10;
    wspec.vocab_size = 1'000;
    wspec.seed = 9000 + i;
    queries.push_back(datagen::MakeQuery(wspec, 0));
  }
  return queries;
}

}  // namespace
}  // namespace spq

int main() {
  using namespace spq;
  Logger::SetMinLevel(LogLevel::kWarn);

  std::printf("==== CellStore serving A/B: cold single-shot vs warm "
              "resident path ====\n\n");

  // Data-heavy workload: 200k data objects, 10k features (the store's
  // target regime — the rankable set dwarfs the per-query feature side).
  datagen::UniformSpec dspec;
  dspec.num_objects = 400'000;  // generator splits half data / half features
  dspec.seed = 2017;
  dspec.vocab_size = 1'000;
  dspec.min_keywords = 4;
  dspec.max_keywords = 24;
  auto dataset_or = datagen::MakeUniformDataset(dspec);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "%s\n", dataset_or.status().ToString().c_str());
    return 1;
  }
  core::Dataset dataset = *std::move(dataset_or);
  dataset.features.resize(10'000);
  const uint64_t total_records = dataset.data.size() + dataset.features.size();
  std::printf("workload: %zu data objects, %zu features, %ux%u grid, "
              "%zu queries\n\n",
              dataset.data.size(), dataset.features.size(), kGridSize,
              kGridSize, kNumQueries);

  const double max_radius =
      datagen::RadiusFromCellFraction(0.5, 1.0, kGridSize);
  const auto queries = MakeQueries(0.8 * max_radius);

  core::EngineOptions options;
  options.grid_size = kGridSize;
  // Reducers sized to cluster slots as in the paper's deployment (not the
  // library default of one per cell): 2500 near-empty reduce tasks on a
  // handful of workers is pure per-task overhead on every query, cold and
  // warm alike.
  options.num_reduce_tasks =
      8 * std::max(1u, std::thread::hardware_concurrency());
  // Front-door knobs for the open-loop section: deep batches (the
  // feature-side scan amortizes further the more queries share it) and a
  // queue deep enough that the deliberately saturating trace is never
  // bounced with Unavailable.
  options.serving.max_batch = 64;
  options.serving.queue_capacity = 512;
  // Latency-sensitive serving profile for the churn section: compact a
  // cell as soon as 5% of its rows are dead, so a 10% turnover wave
  // cannot accumulate enough dead rows to tax the read path — the
  // compaction cost lands on mutation throughput (paid at publish time),
  // which is what the churn section reports.
  options.compact_dead_fraction = 0.05;
  core::SpqEngine engine(dataset, options);

  std::vector<ModeResult> results;
  const core::Algorithm algo = core::Algorithm::kESPQSco;

  // ---- cold: one full map/shuffle job per query ----------------------------
  {
    ModeResult cold;
    cold.mode = "cold_single_shot";
    std::vector<double> lat;
    Stopwatch total;
    for (const core::Query& q : queries) {
      Stopwatch watch;
      auto r = engine.Execute(q, algo);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      lat.push_back(watch.ElapsedSeconds());
    }
    const double secs = total.ElapsedSeconds();
    cold.p50_ms = Percentile50(lat) * 1e3;
    cold.qps = kNumQueries / secs;
    cold.records_per_sec = cold.qps * static_cast<double>(total_records);
    results.push_back(cold);
  }

  // ---- warm: build once, then feature-only jobs ----------------------------
  {
    ModeResult warm;
    warm.mode = "warm_query";
    Stopwatch build_watch;
    if (Status st = engine.BuildStore(max_radius); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    warm.setup_seconds = build_watch.ElapsedSeconds();
    std::vector<double> lat;
    Stopwatch total;
    for (const core::Query& q : queries) {
      Stopwatch watch;
      auto r = engine.Query(q, algo);
      if (!r.ok() || !r->info.warm_path) {
        std::fprintf(stderr, "warm query failed or fell back\n");
        return 1;
      }
      lat.push_back(watch.ElapsedSeconds());
    }
    const double secs = total.ElapsedSeconds();
    warm.p50_ms = Percentile50(lat) * 1e3;
    warm.qps = kNumQueries / secs;
    warm.records_per_sec = warm.qps * static_cast<double>(total_records);
    results.push_back(warm);

    ModeResult batch;
    batch.mode = "warm_batch";
    batch.setup_seconds = warm.setup_seconds;
    Stopwatch batch_watch;
    auto r = engine.QueryBatch(queries, algo);
    if (!r.ok() || !r->warm_path) {
      std::fprintf(stderr, "warm batch failed or fell back\n");
      return 1;
    }
    const double secs_batch = batch_watch.ElapsedSeconds();
    batch.p50_ms = secs_batch / kNumQueries * 1e3;
    batch.amortized = true;
    batch.qps = kNumQueries / secs_batch;
    batch.records_per_sec = batch.qps * static_cast<double>(total_records);
    results.push_back(batch);
  }

  // ---- open-loop serving: Poisson arrivals, three admission disciplines ----
  // One deterministic arrival trace at ~3x the warm single-caller
  // capacity (deliberate saturation: every discipline has a growing
  // backlog, so achieved qps measures sustained service rate, not offered
  // load — and the door's batches fill to max_batch quickly instead of
  // dribbling through the ramp-up transient). The same trace is replayed
  // three ways:
  //   serial_executor   — one thread, FIFO, engine.Query() per arrival
  //                       (the "back-to-back serial calls" baseline);
  //   concurrent_direct — four callers each running engine.Query()
  //                       directly (safe under the immutable-snapshot
  //                       design, but no sharing of the feature scan);
  //   coalesced_door    — arrivals Submit()ed to SpqFrontDoor, which
  //                       coalesces the backlog into shared batch jobs.
  // Latency is completion minus *scheduled* arrival, so queueing delay
  // counts against every discipline equally.
  std::vector<OpenLoopResult> open_results;
  double offered_qps = 0.0;
  uint64_t door_batches = 0;
  uint64_t door_coalesced = 0;
  {
    using Clock = spq::metrics::Clock;
    constexpr std::size_t kTrace = 320;
    offered_qps = 3.0 * results[1].qps;
    std::mt19937_64 rng(20260808);
    std::exponential_distribution<double> gap(offered_qps);
    std::vector<double> arrival(kTrace);
    double at = 0.0;
    for (double& a : arrival) {
      at += gap(rng);
      a = at;
    }
    const auto due_at = [&](Clock::time_point t0, std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrival[i]));
    };
    const auto seconds_since = [](Clock::time_point from) {
      return std::chrono::duration<double>(Clock::now() - from).count();
    };
    std::atomic<bool> failed{false};

    {  // serial executor
      std::vector<double> lat(kTrace);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kTrace; ++i) {
        const auto due = due_at(t0, i);
        std::this_thread::sleep_until(due);
        auto r = engine.Query(queries[i % kNumQueries], algo);
        if (!r.ok() || !r->info.warm_path) failed = true;
        lat[i] = std::chrono::duration<double>(Clock::now() - due).count();
      }
      open_results.push_back(SummarizeOpenLoop("serial_executor",
                                               std::move(lat),
                                               seconds_since(t0)));
    }

    {  // concurrent direct submit
      constexpr std::size_t kCallers = 4;
      std::vector<double> lat(kTrace);
      std::atomic<std::size_t> next{0};
      const auto t0 = Clock::now();
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&]() {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= kTrace) return;
            const auto due = due_at(t0, i);
            std::this_thread::sleep_until(due);
            auto r = engine.Query(queries[i % kNumQueries], algo);
            if (!r.ok() || !r->info.warm_path) failed = true;
            lat[i] = std::chrono::duration<double>(Clock::now() - due).count();
          }
        });
      }
      for (std::thread& th : callers) th.join();
      open_results.push_back(SummarizeOpenLoop("concurrent_direct",
                                               std::move(lat),
                                               seconds_since(t0)));
    }

    {  // coalesced through the front door
      core::SpqFrontDoor door(engine);
      std::vector<std::future<StatusOr<core::SpqResult>>> futures(kTrace);
      std::vector<double> lat(kTrace);
      std::atomic<std::size_t> submitted{0};
      double makespan = 0.0;
      const auto t0 = Clock::now();
      // Single in-order harvester: the lone executor finishes batches
      // FIFO (and a batch resolves all of its futures at once), so
      // stamping completions in submission order loses only the get()
      // call itself, not real waiting.
      std::thread harvester([&]() {
        for (std::size_t i = 0; i < kTrace; ++i) {
          while (submitted.load(std::memory_order_acquire) <= i) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          auto r = futures[i].get();
          if (!r.ok() || !r->info.warm_path) failed = true;
          lat[i] = std::chrono::duration<double>(Clock::now() - due_at(t0, i))
                       .count();
        }
        makespan = seconds_since(t0);
      });
      for (std::size_t i = 0; i < kTrace; ++i) {
        std::this_thread::sleep_until(due_at(t0, i));
        futures[i] = door.Submit(queries[i % kNumQueries], algo);
        submitted.store(i + 1, std::memory_order_release);
      }
      harvester.join();
      door.Shutdown();
      const core::ServingStats stats = door.stats();
      door_batches = stats.batches;
      door_coalesced = stats.coalesced;
      if (stats.rejected > 0) {
        std::fprintf(stderr, "front door rejected %llu of the trace\n",
                     static_cast<unsigned long long>(stats.rejected));
        failed = true;
      }
      open_results.push_back(SummarizeOpenLoop("coalesced_door",
                                               std::move(lat), makespan));
    }

    if (failed.load()) {
      std::fprintf(stderr, "open-loop replay had failed queries\n");
      return 1;
    }
    std::printf("\nopen-loop (Poisson, offered %.0f q/s, %zu queries):\n",
                offered_qps, kTrace);
    for (const OpenLoopResult& r : open_results) {
      std::printf("  %-18s p50 %8.2f ms   p99 %8.2f ms   %8.2f q/s achieved\n",
                  r.mode.c_str(), r.p50_ms, r.p99_ms, r.qps);
    }
    std::printf("  coalesced_door dispatched %llu batch jobs; %llu of %zu "
                "queries shared a job\n",
                static_cast<unsigned long long>(door_batches),
                static_cast<unsigned long long>(door_coalesced), kTrace);
  }

  // ---- observability: disabled-tracer overhead gate + traced capture -------
  // The tracer's entire disabled cost is one relaxed load + branch per
  // TRACE_SPAN site (checked at span construction only). Gate: that cost,
  // multiplied by every span a warm query can open — the fixed
  // query.warm/snapshot_pin/job.* chain plus one per map task, reduce
  // task, and reduce group — must stay under 3% of the measured warm p50,
  // i.e. unmeasurable. A coalesced front-door burst is then captured with
  // tracing ON and archived as a chrome://tracing file next to
  // BENCH_store.json.
  double span_ns = 0.0;
  double span_overhead_pct = 0.0;
  uint64_t spans_per_query = 0;
  uint64_t traced_events = 0;
  uint64_t traced_batches = 0;
  {
    trace::SetEnabled(false);
    constexpr uint64_t kSpanIters = 4'000'000;
    Stopwatch span_watch;
    for (uint64_t i = 0; i < kSpanIters; ++i) {
      TRACE_SPAN("bench.disabled");
    }
    span_ns = static_cast<double>(span_watch.ElapsedNanos()) /
              static_cast<double>(kSpanIters);

    auto probe = engine.Query(queries[0], algo);
    if (!probe.ok() || !probe->info.warm_path) {
      std::fprintf(stderr, "observability probe query failed\n");
      return 1;
    }
    spans_per_query = 6 + probe->info.job.map_task_seconds.size() +
                      probe->info.job.reduce_task_seconds.size() +
                      probe->info.reduce_groups;
    const double overhead_ms =
        span_ns * static_cast<double>(spans_per_query) / 1e6;
    span_overhead_pct = overhead_ms / results[1].p50_ms * 100.0;

    core::SpqFrontDoor door(engine);
    trace::Clear();
    trace::SetEnabled(true);
    std::vector<std::future<StatusOr<core::SpqResult>>> futures;
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      futures.push_back(door.Submit(queries[i], algo));
    }
    bool trace_failed = false;
    for (auto& f : futures) {
      auto r = f.get();
      if (!r.ok() || !r->info.warm_path) trace_failed = true;
    }
    trace::SetEnabled(false);
    door.Shutdown();
    if (trace_failed) {
      std::fprintf(stderr, "traced batch replay had failed queries\n");
      return 1;
    }
    traced_events = trace::Collect().size();
    traced_batches = door.stats().batches;
    std::ofstream trace_file("BENCH_store_trace.json");
    trace::ExportChromeTrace(trace_file);
    std::printf("\nobservability: disabled span %.2f ns, est. %.4f%% of "
                "warm p50 over %llu spans/query; traced capture: %llu spans "
                "across %llu batch jobs -> BENCH_store_trace.json\n",
                span_ns, span_overhead_pct,
                static_cast<unsigned long long>(spans_per_query),
                static_cast<unsigned long long>(traced_events),
                static_cast<unsigned long long>(traced_batches));
  }

  // ---- durability: checkpoint + cell-granular recovery ---------------------
  // Both sides of the recovery gate are medians of kRecoveryRuns samples:
  // a full BuildStore over the whole dataset (the recovery alternative) in
  // its own engine, and a fresh engine's OpenStore plus first warm query.
  constexpr int kRecoveryRuns = 5;
  std::vector<double> rebuild_samples;
  {
    core::SpqEngine rebuilt(dataset, options);
    for (int run = 0; run < kRecoveryRuns; ++run) {
      Stopwatch watch;
      if (Status st = rebuilt.BuildStore(max_radius); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      rebuild_samples.push_back(watch.ElapsedSeconds());
    }
  }
  const double cold_rebuild_seconds = Percentile50(rebuild_samples);
  double checkpoint_seconds = 0.0;
  double checkpoint_mb = 0.0;
  double open_seconds = 0.0;
  double first_query_ms = 0.0;
  double recovery_seconds = 0.0;
  {
    dfs::DfsOptions dfs_options;
    dfs_options.num_datanodes = 8;
    dfs_options.replication = 3;
    dfs::MiniDfs dfs(dfs_options);

    Stopwatch ckpt_watch;
    auto epoch = engine.CheckpointStore(dfs, "store");
    if (!epoch.ok()) {
      std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
      return 1;
    }
    checkpoint_seconds = ckpt_watch.ElapsedSeconds();
    for (const std::string& f : dfs.ListFiles()) {
      auto meta = dfs.GetMetadata(f);
      if (meta.ok()) checkpoint_mb += static_cast<double>(meta->size) / 1e6;
    }

    // Recovery: OpenStore reads only the WAL and the manifest; the first
    // query then restores just the cells it touches. A narrow-footprint
    // probe: ONE keyword keeps the surviving feature set (and therefore
    // the set of store cells whose reduce groups form and lazily restore)
    // small — the instant-recovery case the lazy design exists for. Every
    // cell a query does not touch stays on the DFS, unread.
    datagen::WorkloadSpec wspec;
    wspec.num_keywords = 1;
    wspec.radius = 0.05 * max_radius;
    wspec.k = 10;
    wspec.vocab_size = 1'000;
    wspec.seed = 9999;
    const core::Query probe = datagen::MakeQuery(wspec, 0);
    std::vector<double> open_samples, query_samples, recovery_samples;
    uint64_t touched_cells = 0;
    uint32_t num_cells = 0;
    for (int run = 0; run < kRecoveryRuns; ++run) {
      core::SpqEngine reopened(dataset, options);
      Stopwatch open_watch;
      if (Status st = reopened.OpenStore(dfs, "store"); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      const double open_run_seconds = open_watch.ElapsedSeconds();
      Stopwatch query_watch;
      auto r = reopened.Query(probe, algo);
      if (!r.ok() || !r->info.warm_path) {
        std::fprintf(stderr, "recovered warm query failed or fell back\n");
        return 1;
      }
      const double query_run_seconds = query_watch.ElapsedSeconds();
      open_samples.push_back(open_run_seconds);
      query_samples.push_back(query_run_seconds);
      recovery_samples.push_back(open_run_seconds + query_run_seconds);
      touched_cells = reopened.store()->cells_restored() +
                      reopened.store()->cells_rebuilt();
      num_cells = reopened.store()->num_cells();
    }
    open_seconds = Percentile50(open_samples);
    first_query_ms = Percentile50(query_samples) * 1e3;
    recovery_seconds = Percentile50(recovery_samples);

    std::printf("\ndurability: checkpoint %.3fs (%.1f MB on dfs, epoch %llu); "
                "medians of %d runs: open %.4fs, first warm query %.2f ms "
                "(touched %llu of %u cells), cold rebuild %.4fs\n",
                checkpoint_seconds, checkpoint_mb,
                static_cast<unsigned long long>(*epoch), kRecoveryRuns,
                open_seconds, first_query_ms,
                static_cast<unsigned long long>(touched_cells), num_cells,
                cold_rebuild_seconds);
  }
  const double recovery_ratio = recovery_seconds / cold_rebuild_seconds;

  // ---- churn: 10% turnover against the live store, then warm p50 -----------
  // Deletes one data object in ten (strided, so every grid region loses
  // rows) and inserts an equal count of fresh objects at uniform
  // positions, each mutation publishing a new snapshot RCU-style. The
  // mutated store must then serve the same warm query suite with no
  // extra per-query work (counter parity) and a p50 comparable to a
  // static store's: mutation cost is paid at publish time (the cell's
  // copy + masked index rebuild), never smeared over the read path. The
  // static reference is a from-scratch build in a SECOND engine,
  // measured interleaved (ABBA) with the churned store after the wave:
  // the wave's 40k snapshot publishes shift allocator/cache state
  // enough that a before/after or sequential comparison measures
  // process drift, not store layout. A CompactStore() pass re-times the
  // churned store on its dead-row-free layout as well.
  const std::size_t churn_count = dataset.data.size() / 10;
  double deletes_per_sec = 0.0;
  double inserts_per_sec = 0.0;
  double churn_static_p50_ms = 0.0;
  double churn_p50_ms = 0.0;
  double compacted_p50_ms = 0.0;
  uint64_t churn_cells_compacted = 0;
  bool churn_work_parity = false;
  {
    // One warm pass over the suite on the given engine → p50 ms.
    const auto OnePassP50Ms = [&](core::SpqEngine& target) -> double {
      std::vector<double> lat;
      for (const core::Query& q : queries) {
        Stopwatch watch;
        auto r = target.Query(q, algo);
        if (!r.ok() || !r->info.warm_path) {
          std::fprintf(stderr, "churn-section warm query failed\n");
          std::exit(1);
        }
        lat.push_back(watch.ElapsedSeconds());
      }
      return Percentile50(lat) * 1e3;
    };

    Stopwatch del_watch;
    for (std::size_t i = 0; i < churn_count; ++i) {
      if (Status st = engine.Delete(dataset.data[i * 10].id); !st.ok()) {
        std::fprintf(stderr, "churn delete: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    deletes_per_sec = static_cast<double>(churn_count) /
                      del_watch.ElapsedSeconds();

    uint64_t next_id = 0;
    for (const core::DataObject& o : dataset.data) {
      next_id = std::max(next_id, o.id);
    }
    ++next_id;
    std::mt19937_64 churn_rng(4242);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Stopwatch ins_watch;
    for (std::size_t i = 0; i < churn_count; ++i) {
      core::DataObject fresh;
      fresh.id = next_id + i;
      fresh.pos = {unit(churn_rng), unit(churn_rng)};
      if (Status st = engine.Insert(fresh); !st.ok()) {
        std::fprintf(stderr, "churn insert: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    inserts_per_sec = static_cast<double>(churn_count) /
                      ins_watch.ElapsedSeconds();
    churn_cells_compacted = engine.store()->cells_compacted();

    // Static reference engine, built fresh AFTER the wave so both
    // measurement targets see the same process state — and with every
    // cell materialized, because the churned store is fully resident
    // (each mutation touched its cell): a lazily-thin store interleaves
    // its few hot cells on dense pages, which measures residency, not
    // the mutation layer.
    core::SpqEngine reference(dataset, options);
    if (Status st = reference.BuildStore(max_radius); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    for (uint32_t c = 0; c < reference.store()->num_cells(); ++c) {
      if (auto served = reference.store()->Serve(c); !served.ok()) {
        std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
        return 1;
      }
    }

    // Interleaved best-of-N on an ABBA palindrome schedule: alternating
    // passes cancel monotone drift (cache warming, allocator settling),
    // and flipping the pair order each rep cancels within-pair bias too.
    const auto InterleavedBest = [&](core::SpqEngine& a, double* best_a,
                                     double* best_b) {
      constexpr int kReps = 6;
      for (int rep = 0; rep < kReps; ++rep) {
        core::SpqEngine& first = rep % 2 == 0 ? a : reference;
        core::SpqEngine& second = rep % 2 == 0 ? reference : a;
        const double p_first = OnePassP50Ms(first);
        const double p_second = OnePassP50Ms(second);
        const double p_a = rep % 2 == 0 ? p_first : p_second;
        const double p_ref = rep % 2 == 0 ? p_second : p_first;
        if (*best_a == 0.0 || p_a < *best_a) *best_a = p_a;
        if (*best_b == 0.0 || p_ref < *best_b) *best_b = p_ref;
      }
    };
    InterleavedBest(engine, &churn_p50_ms, &churn_static_p50_ms);

    // Work parity: the noise-free half of the churn gate. The churned
    // store must do the SAME per-query work as the fresh reference —
    // identical feature-side counters (mutations never touch features)
    // and pairs_tested within a hair (it tracks the 10% of rows whose
    // positions changed). A mutation-layer leak into the read path
    // (e.g. a geometry drift) shows up here exactly,
    // where a p50 comparison on this container drowns it in allocator
    // placement noise.
    struct SuiteWork {
      uint64_t pairs = 0, groups = 0, kept = 0;
    };
    const auto SuiteWorkOf = [&](core::SpqEngine& target) {
      SuiteWork w;
      for (const core::Query& q : queries) {
        auto r = target.Query(q, algo);
        if (!r.ok() || !r->info.warm_path) {
          std::fprintf(stderr, "churn-section warm query failed\n");
          std::exit(1);
        }
        w.pairs += r->info.pairs_tested;
        w.groups += r->info.reduce_groups;
        w.kept += r->info.features_kept;
      }
      return w;
    };
    const SuiteWork churned_work = SuiteWorkOf(engine);
    const SuiteWork static_work = SuiteWorkOf(reference);

    if (Status st = engine.CompactStore(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    InterleavedBest(engine, &compacted_p50_ms, &churn_static_p50_ms);

    std::printf("\nchurn: %zu deletes (%.0f/s) + %zu inserts (%.0f/s), "
                "%llu cells auto-compacted; warm p50 %.2f ms churned, "
                "%.2f ms compacted (static rebuild %.2f ms)\n",
                churn_count, deletes_per_sec, churn_count, inserts_per_sec,
                static_cast<unsigned long long>(churn_cells_compacted),
                churn_p50_ms, compacted_p50_ms, churn_static_p50_ms);
    std::printf("churn work parity: pairs %llu vs %llu, groups %llu vs "
                "%llu\n",
                static_cast<unsigned long long>(churned_work.pairs),
                static_cast<unsigned long long>(static_work.pairs),
                static_cast<unsigned long long>(churned_work.groups),
                static_cast<unsigned long long>(static_work.groups));
    churn_work_parity =
        churned_work.groups == static_work.groups &&
        churned_work.kept == static_work.kept &&
        churned_work.pairs <=
            static_work.pairs + static_work.pairs / 50 &&
        static_work.pairs <= churned_work.pairs + churned_work.pairs / 50;
  }
  const double churn_ratio = churn_p50_ms / churn_static_p50_ms;

  for (const ModeResult& m : results) {
    std::printf("%-18s %s %8.2f ms/query   %8.2f queries/s   "
                "%12.0f records/s%s\n",
                m.mode.c_str(), m.amortized ? "avg" : "p50", m.p50_ms, m.qps,
                m.records_per_sec,
                m.setup_seconds > 0.0
                    ? ("   (one-time build " +
                       std::to_string(m.setup_seconds) + "s)")
                          .c_str()
                    : "");
  }

  // ---- machine-readable output ---------------------------------------------
  std::ofstream json("BENCH_store.json");
  json << "{\n  \"benchmark\": \"store_serving\",\n"
       << "  \"workload\": {\"data_objects\": " << dataset.data.size()
       << ", \"features\": " << dataset.features.size()
       << ", \"grid\": " << kGridSize << ", \"queries\": " << kNumQueries
       << ", \"algorithm\": \"" << core::AlgorithmName(algo) << "\"},\n"
       << "  \"modes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ModeResult& m = results[i];
    json << "    {\"mode\": \"" << m.mode << "\", \""
         << (m.amortized ? "amortized_ms" : "p50_ms") << "\": " << m.p50_ms
         << ", \"queries_per_sec\": " << m.qps
         << ", \"records_per_sec\": " << static_cast<uint64_t>(m.records_per_sec)
         << ", \"setup_seconds\": " << m.setup_seconds << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  const double speedup = results[1].qps / results[0].qps;
  const double coalesce_gain = open_results[2].qps / results[1].qps;
  json << "  ],\n  \"warm_vs_cold_speedup\": " << speedup << ",\n"
       << "  \"open_loop\": {\"offered_qps\": " << offered_qps
       << ", \"coalesced_batches\": " << door_batches
       << ", \"coalesced_queries\": " << door_coalesced
       << ", \"coalesced_vs_single_caller_qps\": " << coalesce_gain
       << ",\n    \"modes\": [\n";
  for (std::size_t i = 0; i < open_results.size(); ++i) {
    const OpenLoopResult& m = open_results[i];
    json << "      {\"mode\": \"" << m.mode << "\", \"p50_ms\": " << m.p50_ms
         << ", \"p99_ms\": " << m.p99_ms
         << ", \"queries_per_sec\": " << m.qps << "}"
         << (i + 1 < open_results.size() ? "," : "") << "\n";
  }
  json << "  ]},\n"
       << "  \"durability\": {\"checkpoint_seconds\": " << checkpoint_seconds
       << ", \"checkpoint_mb\": " << checkpoint_mb
       << ", \"open_seconds\": " << open_seconds
       << ", \"first_warm_query_ms\": " << first_query_ms
       << ", \"recovery_to_first_query_seconds\": " << recovery_seconds
       << ", \"cold_rebuild_seconds\": " << cold_rebuild_seconds
       << ", \"recovery_vs_rebuild_ratio\": " << recovery_ratio
       << ", \"median_of_runs\": " << kRecoveryRuns << "},\n"
       << "  \"churn\": {\"turnover\": 0.10"
       << ", \"deletes\": " << churn_count
       << ", \"deletes_per_sec\": " << static_cast<uint64_t>(deletes_per_sec)
       << ", \"inserts\": " << churn_count
       << ", \"inserts_per_sec\": " << static_cast<uint64_t>(inserts_per_sec)
       << ", \"cells_auto_compacted\": " << churn_cells_compacted
       << ",\n    \"warm_p50_ms_churned\": " << churn_p50_ms
       << ", \"warm_p50_ms_compacted\": " << compacted_p50_ms
       << ", \"warm_p50_ms_static\": " << churn_static_p50_ms
       << ", \"churned_vs_static_p50_ratio\": " << churn_ratio
       << ", \"work_parity\": " << (churn_work_parity ? "true" : "false")
       << "},\n"
       << "  \"observability\": {\"disabled_span_ns\": " << span_ns
       << ", \"spans_per_query\": " << spans_per_query
       << ", \"est_overhead_pct_of_warm_p50\": " << span_overhead_pct
       << ", \"trace_events\": " << traced_events
       << ", \"trace_file\": \"BENCH_store_trace.json\"},\n";
  // The whole run's registry footprint (counters verbatim, histograms as
  // count/p50/p99/max), so cross-PR tracking sees the serving-layer
  // internals — queue waits, batch sizes, materialize/compact activity —
  // next to the latency numbers they explain.
  {
    const metrics::RegistrySnapshot msnap = engine.MetricsSnapshot();
    json << "  \"metrics\": {\n    \"counters\": {";
    for (std::size_t i = 0; i < msnap.counters.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "\"" << msnap.counters[i].first
           << "\": " << msnap.counters[i].second;
    }
    json << "},\n    \"histograms\": {";
    for (std::size_t i = 0; i < msnap.histograms.size(); ++i) {
      const auto& [name, hist] = msnap.histograms[i];
      json << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"count\": "
           << hist.count << ", \"p50\": " << hist.Percentile(0.5)
           << ", \"p99\": " << hist.Percentile(0.99)
           << ", \"max\": " << hist.max << "}";
    }
    json << "}\n  }\n}\n";
  }
  std::printf("\nWrote BENCH_store.json\n");

  // Acceptance bars: warm per-query throughput >= 3x cold (the store
  // tentpole), recovery-to-first-warm-query < 10% of a full cold rebuild
  // (the durability tentpole — lazy cell-granular restore), and coalesced
  // open-loop serving >= 1.5x the single-caller warm qps at a p99 no
  // worse than the serial executor's on the same arrival trace (the
  // concurrent-serving tentpole).
  std::printf("acceptance (warm >= 3x cold queries/s): %.2fx %s\n", speedup,
              speedup >= 3.0 ? "PASS" : "FAIL");
  std::printf("acceptance (recovery < 10%% of cold rebuild): %.1f%% %s\n",
              recovery_ratio * 100.0,
              recovery_ratio < 0.10 ? "PASS" : "FAIL");
  const bool coalesce_pass =
      coalesce_gain >= 1.5 && open_results[2].p99_ms <= open_results[0].p99_ms;
  std::printf("acceptance (coalesced >= 1.5x single-caller q/s, p99 <= "
              "serial): %.2fx, p99 %.1f vs %.1f ms %s\n",
              coalesce_gain, open_results[2].p99_ms, open_results[0].p99_ms,
              coalesce_pass ? "PASS" : "FAIL");
  // The mutation tentpole, gated in two halves. Work parity is the sharp
  // edge: identical per-query counters prove the mutated store's read
  // path does no extra work (a geometry leak would break it
  // exactly). The p50 ratio is the blunt edge: interleaved ABBA passes
  // against a same-process fresh rebuild measure 1.05-1.15x on this
  // container even with IDENTICAL logical data and identical counters —
  // pure allocator-placement noise of a long-lived process — so its
  // ceiling sits at 1.25x, above the noise band but far below any real
  // read-path regression.
  const bool churn_pass = churn_ratio <= 1.25 && churn_work_parity;
  std::printf("acceptance (churn: work parity AND warm p50 <= 1.25x "
              "static): parity %s, %.2fx %s\n",
              churn_work_parity ? "yes" : "NO", churn_ratio,
              churn_pass ? "PASS" : "FAIL");
  // The observability tentpole: instrumentation that is free when off.
  // Estimated from the measured disabled-span cost times every span a
  // warm query can open — a direct A/B of two warm passes would be
  // dominated by this container's run-to-run noise, exactly because the
  // real overhead sits orders of magnitude below it.
  const bool obs_pass = span_overhead_pct <= 3.0 && traced_events > 0;
  std::printf("acceptance (disabled tracing <= 3%% of warm p50, traced "
              "capture non-empty): %.4f%%, %llu spans %s\n",
              span_overhead_pct,
              static_cast<unsigned long long>(traced_events),
              obs_pass ? "PASS" : "FAIL");
  return speedup >= 3.0 && recovery_ratio < 0.10 && coalesce_pass &&
                 churn_pass && obs_pass
             ? 0
             : 1;
}
