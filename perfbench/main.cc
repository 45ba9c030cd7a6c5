// The SPQ benchmark: three seeded workloads driven only through the
// engine's public API, end-to-end metrics with tracing off, per-layer
// metrics from a traced run, and answers checked against the sequential
// oracle outside the timed region.
//
//   spq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//
// Workloads (reasons, inputs, fixed rates and set options are recorded in
// perfbench/workloads.json):
//   warm_skewed      closed loop, one caller, warm SpqEngine::Query() over a
//                    Flickr-like dataset; the three algorithms in thirds.
//   door_poisson     open loop through SpqFrontDoor::Submit() at a fixed
//                    moderate rate (latency) and a fixed overload rate
//                    (capacity), eSPQsco only.
//   store_lifecycle  CheckpointStore -> fresh-engine OpenStore -> first
//                    query cycles, then a fixed-rate Insert/Delete stream
//                    beside one closed-loop query caller.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics — the end-to-end set with --trace 0, the per-layer set with
// --trace 1. Everything above it is a human-readable report.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "perfbench/harness.h"
#include "spq/cell_store.h"
#include "spq/engine.h"
#include "spq/sequential.h"
#include "spq/serving.h"

namespace spq::perfbench {
namespace {

using Clock = metrics::Clock;
using QueryCall = std::function<StatusOr<core::SpqResult>(
    const core::Query&, core::Algorithm)>;

// ---------------------------------------------------------------------------
// Fixed workload parameters, mirrored with their reasons in
// perfbench/workloads.json; none is derived from a measurement taken at run
// time.

/// Flickr-like family: generated half data / half features; the feature
/// side is cut to a tenth of the data side (the store's data-heavy regime).
constexpr uint64_t kFlickrObjects = 400'000;
constexpr std::size_t kFlickrFeatures = 20'000;
/// Library default grid; the warm store is built for half a cell edge.
constexpr uint32_t kGridSize = 50;
constexpr double kBuildCellFraction = 0.5;
/// Distinct queries per workload; callers cycle through them.
constexpr std::size_t kQueryListSize = 960;
/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds have
/// passed; setup_s is their median. The time floor spreads the set-ups over
/// several seconds, so the median is not one second's host speed.
constexpr int kMinSetups = 9;
constexpr double kSetupSeconds = 4.0;
/// Queries of the exact-count probe run after every set-up.
constexpr std::size_t kWarmCountProbe = 30;
/// Distinct queries whose answers are checked against the oracle (also
/// the number of recovery cycles whose first answer is checked).
constexpr std::size_t kOracleQueries = 12;
/// Open-loop rates, queries or mutations per second (absolute).
constexpr double kDoorModerateQps = 15.0;
constexpr double kDoorOverloadQps = 400.0;
constexpr double kMutationsPerSecond = 1000.0;
/// Shares of --seconds given to each phase of the multi-phase workloads.
constexpr double kDoorModerateShare = 0.75;
constexpr double kDoorOverloadShare = 0.15;
constexpr double kLifecycleCycleShare = 0.3;
constexpr int kMinLifecycleCycles = 3;
/// The chrome trace keeps the spans of the traced phase's last stretch
/// only (the rings hold 16k spans per thread).
constexpr double kTraceCaptureSeconds = 0.5;
/// Highest tail quantile a workload reports (the run reports the highest
/// quantile up to this one with at least ten samples beyond it).
constexpr double kTailCap = 0.99;

constexpr core::Algorithm kAlgorithms[] = {core::Algorithm::kPSPQ,
                                           core::Algorithm::kESPQLen,
                                           core::Algorithm::kESPQSco};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "spq_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point After(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Engine options of every workload: library defaults except the worker
/// count. ParallelFor runs the calling thread beside the pool's workers, so
/// the default (one worker per hardware thread) puts one compute thread
/// more than there are cores to run on, and the benchmark's own sender and
/// harvester threads compete with them; on a shared 4-vCPU host that
/// oversubscription doubled the run-to-run spread of the door's p50.
core::EngineOptions BenchOptions() {
  core::EngineOptions options;
  options.num_workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  return options;
}

// ------------------------------------------------------------------ inputs

struct QuerySpec {
  core::Query query;
  core::Algorithm algo = core::Algorithm::kPSPQ;
};

/// The workload's query list: 1-8 frequency-weighted keywords, radius
/// 0.1-1.0 of the build radius, k from {1, 5, 10, 25, 50}; the algorithms
/// in equal thirds unless `sco_only`.
std::vector<QuerySpec> MakeQueryList(uint64_t seed, uint32_t vocab,
                                     double term_zipf, bool sco_only) {
  static constexpr uint32_t kKs[] = {1, 5, 10, 25, 50};
  const double build_radius =
      datagen::RadiusFromCellFraction(kBuildCellFraction, 1.0, kGridSize);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<QuerySpec> list;
  for (std::size_t i = 0; i < kQueryListSize; ++i) {
    datagen::WorkloadSpec w;
    w.num_keywords = 1 + rng.NextUint32(8);
    w.radius = build_radius * rng.NextDouble(0.1, 1.0);
    w.k = kKs[rng.NextUint32(5)];
    w.selection = datagen::KeywordSelection::kFrequencyWeighted;
    w.term_zipf = term_zipf;
    w.vocab_size = vocab;
    w.seed = rng.NextUint64();
    QuerySpec q;
    q.query = datagen::MakeQuery(w, 0);
    q.algo = sco_only ? core::Algorithm::kESPQSco : kAlgorithms[i % 3];
    list.push_back(std::move(q));
  }
  return list;
}

struct Inputs {
  core::Dataset dataset;
  std::vector<QuerySpec> list;
};

Inputs FlickrInputs(uint64_t seed, bool sco_only) {
  const datagen::RealLikeSpec spec =
      datagen::FlickrLikeSpec(kFlickrObjects, seed);
  auto ds = datagen::MakeRealLikeDataset(spec);
  if (!ds.ok()) Die(ds.status().ToString());
  ds->features.resize(kFlickrFeatures);
  return {*std::move(ds),
          MakeQueryList(seed, spec.vocab_size, spec.term_zipf, sco_only)};
}

/// The query-list indices whose answers are checked: a seeded subset.
std::set<std::size_t> OracleIndices(uint64_t seed) {
  Rng rng(seed ^ 0x0AC1E5ULL);
  std::set<std::size_t> picked;
  while (picked.size() < kOracleQueries) {
    picked.insert(rng.NextUint32(kQueryListSize));
  }
  return picked;
}

// ---------------------------------------------------------------- records

/// Per-query SPQ work counts, as SpqRunInfo and JobStats report them.
struct Counts {
  double shuffle_bytes = 0, map_output_records = 0, kept = 0, pruned = 0,
         dups = 0, examined = 0, pairs = 0, early = 0, groups = 0,
         cells_pruned = 0, sig_checks = 0;

  void Add(const Counts& o, double weight) {
    shuffle_bytes += weight * o.shuffle_bytes;
    map_output_records += weight * o.map_output_records;
    kept += weight * o.kept;
    pruned += weight * o.pruned;
    dups += weight * o.dups;
    examined += weight * o.examined;
    pairs += weight * o.pairs;
    early += weight * o.early;
    groups += weight * o.groups;
    cells_pruned += weight * o.cells_pruned;
    sig_checks += weight * o.sig_checks;
  }
  bool operator==(const Counts&) const = default;

  std::string Json() const {
    return Fmt(
        "{\"shuffle_bytes\": %.17g, \"map_output_records\": %.17g, "
        "\"kept\": %.17g, \"pruned\": %.17g, \"dups\": %.17g, "
        "\"examined\": %.17g, \"pairs\": %.17g, \"early\": %.17g, "
        "\"groups\": %.17g, \"cells_pruned\": %.17g, \"sig_checks\": %.17g}",
        shuffle_bytes, map_output_records, kept, pruned, dups, examined,
        pairs, early, groups, cells_pruned, sig_checks);
  }
};

Counts CountsOf(const core::SpqRunInfo& info) {
  Counts c;
  c.shuffle_bytes = static_cast<double>(info.job.shuffle_bytes);
  c.map_output_records = static_cast<double>(info.job.map_output_records);
  c.kept = static_cast<double>(info.features_kept);
  c.pruned = static_cast<double>(info.features_pruned);
  c.dups = static_cast<double>(info.feature_duplicates);
  c.examined = static_cast<double>(info.features_examined);
  c.pairs = static_cast<double>(info.pairs_tested);
  c.early = static_cast<double>(info.early_terminations);
  c.groups = static_cast<double>(info.reduce_groups);
  c.cells_pruned = static_cast<double>(info.cells_pruned);
  c.sig_checks = static_cast<double>(info.signature_checks);
  return c;
}

/// One timed request, reduced to what the report needs (JobStats carries
/// per-task vectors as long as the reducer count; they are not kept).
struct CallRecord {
  double latency_s = 0;
  LayerSplit split;
  double busy_frac = 0;
  double straggler = 0;
  double task_failures = 0;
  Counts counts;
};

CallRecord RecordOf(double latency_s, double call_s,
                    const core::SpqRunInfo& info) {
  const mapreduce::JobStats& job = info.job;
  CallRecord r;
  r.latency_s = latency_s;
  r.split = SplitLayers(latency_s, call_s, job);
  double task_sum = 0;
  for (double s : job.reduce_task_seconds) task_sum += s;
  // The engine's reduce phase runs its workers and the calling thread.
  static const double threads = BenchOptions().num_workers + 1.0;
  r.busy_frac = Ratio(task_sum, job.reduce_seconds * threads);
  r.straggler = job.ReduceStragglerRatio();
  r.task_failures = job.map_task_failures + job.reduce_task_failures;
  r.counts = CountsOf(info);
  return r;
}

std::vector<double> Latencies(const std::vector<CallRecord>& calls) {
  std::vector<double> v;
  v.reserve(calls.size());
  for (const CallRecord& c : calls) v.push_back(c.latency_s);
  return v;
}

Counts MeanCounts(const std::vector<CallRecord>& calls) {
  Counts mean;
  for (const CallRecord& c : calls) {
    mean.Add(c.counts, 1.0 / static_cast<double>(calls.size()));
  }
  return mean;
}

/// An answer kept for the oracle check: which query, which logical dataset
/// (0 = as generated, 1 = after the mutation stream) and the entries.
struct Answer {
  std::size_t index = 0;
  int version = 0;
  std::vector<core::ResultEntry> entries;
};

/// The tallies behind `attempted`, `failed` and error_rate.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatches{0};

  void Fail(const std::string& what) {
    if (failed.fetch_add(1) < 5) {
      std::fprintf(stderr, "spq_perfbench: failed call: %s\n", what.c_str());
    }
  }
  /// Counts one call; a non-OK status fails it. True when OK.
  bool Check(const Status& st) {
    attempted.fetch_add(1);
    if (st.ok()) return true;
    Fail(st.ToString());
    return false;
  }
  /// Counts a query outcome: a non-OK status (Unavailable included) and an
  /// answer not served warm (a cold fallback) both fail the call. True when
  /// usable.
  bool Check(const StatusOr<core::SpqResult>& r) {
    if (!Check(r.status())) return false;
    if (r->info.cold_fallback || !r->info.warm_path) {
      Fail("unexpected cold fallback");
      return false;
    }
    return true;
  }
};

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;  // JSON with --trace 0
  std::vector<Metric> per_layer;   // JSON with --trace 1
  std::vector<std::string> notes;  // human-readable lines
  bool counts_repeat = true;
  bool has_exact_counts = false;
  Counts exact_counts;  // count probe of the single-caller workloads

  void Note(std::string line) { notes.push_back(std::move(line)); }
};

void AddMetric(std::vector<Metric>& into, std::string name, double value,
               std::string unit) {
  if (!std::isfinite(value)) value = 0.0;
  into.push_back({std::move(name), value, std::move(unit)});
}

struct LatencySummary {
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_q = 0.5;
  std::size_t n = 0;

  std::string Describe(const char* name) const {
    return Fmt("%s_p50_ms = %.4f ms; %s_tail_ms = %.4f ms (p%g of %zu)", name,
               p50_ms, name, tail_ms, tail_q * 100, n);
  }
};

LatencySummary Summarize(const std::vector<double>& seconds) {
  LatencySummary s;
  s.n = seconds.size();
  s.tail_q = TailQuantile(s.n, kTailCap);
  s.p50_ms = Quantile(seconds, 0.5) * 1e3;
  s.tail_ms = Quantile(seconds, s.tail_q) * 1e3;
  return s;
}

/// The end-to-end metrics, every workload: its primary request's median
/// latency, its completions per second, set-up time and peak RSS. The tail
/// latency is reported (LatencySummary::Describe) but not a bounded metric:
/// its run-to-run spread on a shared host exceeds any usable bound.
void AddEndToEnd(Report& report, const LatencySummary& lat, double qps,
                 double setup_s) {
  AddMetric(report.end_to_end, "p50_ms", lat.p50_ms, "ms");
  AddMetric(report.end_to_end, "throughput_qps", qps, "1/s");
  AddMetric(report.end_to_end, "setup_s", setup_s, "s");
  AddMetric(report.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  report.Note(Fmt("setup_s = %.4f s; peak_rss_mb = %.1f MB", setup_s,
                  PeakRssMb()));
}

/// Inputs of the per-layer metrics. Every workload reports every metric;
/// a layer the workload does not exercise reports 0.
struct LayerInputs {
  std::vector<CallRecord> calls;  // the traced primary requests
  Counts counts;                  // per-query mean work counts
  double serving_batch_mean = 0;
  double serving_rejected = 0;
  double batch_job_ms_per_query = 0;
  std::vector<double> materialize_ms;
  double cells_restored = 0, cells_rebuilt = 0, cells_compacted = 0;
  double checkpoint_bytes_per_row = 0;
  double checkpoint_s = 0, recovery_s = 0;
  double mutation_p50_us = 0, mutation_tail_us = 0;
  double wal_appends = 0, dfs_files = 0, dfs_bytes_per_user_byte = 0;
  double trace_overhead_ms = 0;
};

double P50Of(const std::vector<CallRecord>& calls,
             double (*field)(const CallRecord&)) {
  std::vector<double> v;
  v.reserve(calls.size());
  for (const CallRecord& c : calls) v.push_back(field(c));
  return Quantile(std::move(v), 0.5);
}

void AddLayerMetrics(const LayerInputs& in, Report& report) {
  const auto& calls = in.calls;
  auto outside = [](const CallRecord& c) { return c.split.outside; };
  auto engine = [](const CallRecord& c) { return c.split.engine; };
  auto map = [](const CallRecord& c) { return c.split.map; };
  auto shuffle = [](const CallRecord& c) { return c.split.shuffle; };
  auto reduce = [](const CallRecord& c) { return c.split.reduce; };
  std::vector<double> waits;
  double total = 0;
  LayerSplit sum;
  for (const CallRecord& c : calls) {
    waits.push_back(c.split.outside);
    total += c.latency_s;
    sum.outside += c.split.outside;
    sum.engine += c.split.engine;
    sum.map += c.split.map;
    sum.shuffle += c.split.shuffle;
    sum.reduce += c.split.reduce;
  }
  const Counts& c = in.counts;
  auto& m = report.per_layer;
  AddMetric(m, "serving.wait_ms.p50", Quantile(waits, 0.5) * 1e3, "ms");
  AddMetric(m, "serving.wait_ms.tail",
            Quantile(waits, TailQuantile(waits.size(), kTailCap)) * 1e3, "ms");
  AddMetric(m, "serving.wait.share", Ratio(sum.outside, total), "ratio");
  AddMetric(m, "serving.batch_size.mean", in.serving_batch_mean, "count");
  AddMetric(m, "serving.rejected", in.serving_rejected, "count");
  AddMetric(m, "batch.job_ms_per_query", in.batch_job_ms_per_query, "ms");
  AddMetric(m, "engine.overhead_ms.p50", P50Of(calls, engine) * 1e3, "ms");
  AddMetric(m, "engine.share", Ratio(sum.engine, total), "ratio");
  AddMetric(m, "mapreduce.map_ms.p50", P50Of(calls, map) * 1e3, "ms");
  AddMetric(m, "mapreduce.shuffle_ms.p50", P50Of(calls, shuffle) * 1e3, "ms");
  AddMetric(m, "mapreduce.reduce_ms.p50", P50Of(calls, reduce) * 1e3, "ms");
  AddMetric(m, "mapreduce.map.share", Ratio(sum.map, total), "ratio");
  AddMetric(m, "mapreduce.shuffle.share", Ratio(sum.shuffle, total), "ratio");
  AddMetric(m, "mapreduce.reduce.share", Ratio(sum.reduce, total), "ratio");
  AddMetric(m, "mapreduce.shuffle_bytes", c.shuffle_bytes, "bytes");
  AddMetric(m, "mapreduce.map_output_records", c.map_output_records, "count");
  AddMetric(m, "mapreduce.reduce_busy_frac",
            P50Of(calls, [](const CallRecord& r) { return r.busy_frac; }),
            "ratio");
  AddMetric(m, "mapreduce.reduce_straggler",
            P50Of(calls, [](const CallRecord& r) { return r.straggler; }),
            "ratio");
  double failures = 0;
  for (const CallRecord& r : calls) failures += r.task_failures;
  AddMetric(m, "mapreduce.task_failures", failures, "count");
  AddMetric(m, "map.prune_ratio", Ratio(c.pruned, c.kept + c.pruned),
            "ratio");
  AddMetric(m, "map.duplication_factor", Ratio(c.kept + c.dups, c.kept),
            "ratio");
  AddMetric(m, "reduce_core.pairs_tested", c.pairs, "count");
  AddMetric(m, "reduce_core.groups", c.groups, "count");
  AddMetric(m, "reduce_core.examination_ratio",
            Ratio(c.examined, c.kept + c.dups), "ratio");
  AddMetric(m, "reduce_core.early_term_ratio", Ratio(c.early, c.groups),
            "ratio");
  AddMetric(m, "reduce_core.cell_prune_ratio",
            Ratio(c.cells_pruned, c.sig_checks), "ratio");
  AddMetric(m, "cell_store.materialize_ms.p50",
            Quantile(in.materialize_ms, 0.5), "ms");
  AddMetric(m, "cell_store.cells_restored", in.cells_restored, "count");
  AddMetric(m, "cell_store.cells_rebuilt", in.cells_rebuilt, "count");
  AddMetric(m, "cell_store.cells_compacted", in.cells_compacted, "count");
  AddMetric(m, "cell_store.checkpoint_bytes_per_row",
            in.checkpoint_bytes_per_row, "bytes/row");
  AddMetric(m, "cell_store.checkpoint_s", in.checkpoint_s, "s");
  AddMetric(m, "cell_store.recovery_s", in.recovery_s, "s");
  AddMetric(m, "cell_store.mutation_p50_us", in.mutation_p50_us, "us");
  AddMetric(m, "cell_store.mutation_tail_us", in.mutation_tail_us, "us");
  AddMetric(m, "wal.appends", in.wal_appends, "count");
  AddMetric(m, "dfs.files_written", in.dfs_files, "count");
  AddMetric(m, "dfs.bytes_per_user_byte", in.dfs_bytes_per_user_byte,
            "ratio");
  AddMetric(m, "trace.overhead_ms.p50", in.trace_overhead_ms, "ms");

  // The layer table. Per request the rows add up to its latency by
  // construction (SplitLayers), so the shares sum to 100%.
  report.Note(Fmt("layer table over %zu traced requests (p50 self time, "
                  "share of end-to-end time, counts per query):",
                  calls.size()));
  auto row = [&](const char* layer, double p50_s, double layer_total,
                 const std::string& counts) {
    report.Note(Fmt("  %-20s %10.4f ms %7.2f%%  %s", layer, p50_s * 1e3,
                    100.0 * Ratio(layer_total, total), counts.c_str()));
  };
  row("serving.wait", P50Of(calls, outside), sum.outside,
      Fmt("batch size %.2f", in.serving_batch_mean));
  row("engine", P50Of(calls, engine), sum.engine, "");
  row("mapreduce.map", P50Of(calls, map), sum.map,
      Fmt("%.0f records out; features kept %.1f, pruned %.1f, dup %.1f",
          c.map_output_records, c.kept, c.pruned, c.dups));
  row("mapreduce.shuffle", P50Of(calls, shuffle), sum.shuffle,
      Fmt("%.0f bytes", c.shuffle_bytes));
  row("mapreduce.reduce", P50Of(calls, reduce), sum.reduce,
      Fmt("%.1f groups, %.1f pairs, %.1f early stops", c.groups, c.pairs,
          c.early));
  report.Note(Fmt("  %-20s %10.4f ms %7.2f%%  (sum of rows / end-to-end)",
                  "end-to-end", Quantile(Latencies(calls), 0.5) * 1e3,
                  100.0 * Ratio(sum.Total(), total)));
  report.Note(Fmt("tracing overhead (traced - untraced p50): %.4f ms",
                  in.trace_overhead_ms));
}

// ------------------------------------------------------------------ set-up

struct Setup {
  std::unique_ptr<core::SpqEngine> engine;
  double seconds = 0;
  std::vector<double> materialize_ms;
};

/// Engine construction + BuildStore + a warm-up pass that materializes
/// every cell (each Serve(c) timed): the state the warm workloads serve.
Setup SetUpWarm(const core::Dataset& dataset,
                const core::EngineOptions& options) {
  Setup s;
  TRACE_SPAN("bench.setup");
  Stopwatch watch;
  s.engine = std::make_unique<core::SpqEngine>(dataset, options);
  if (Status st = s.engine->BuildStore(
          datagen::RadiusFromCellFraction(kBuildCellFraction, 1.0, kGridSize));
      !st.ok()) {
    Die("BuildStore: " + st.ToString());
  }
  const core::CellStore* store = s.engine->store();
  s.materialize_ms.reserve(store->num_cells());
  for (uint32_t c = 0; c < store->num_cells(); ++c) {
    Stopwatch cell_watch;
    if (auto served = store->Serve(c); !served.ok()) {
      Die("Serve: " + served.status().ToString());
    }
    s.materialize_ms.push_back(cell_watch.ElapsedMillis());
  }
  s.seconds = watch.ElapsedSeconds();
  return s;
}

/// Per-query mean counts of the first `n` queries of the list through
/// `call` — exact, a fixed sum over a fixed divisor.
Counts CountProbe(const std::vector<QuerySpec>& list, std::size_t n,
                  const QueryCall& call) {
  Counts sum;
  for (std::size_t i = 0; i < n; ++i) {
    auto r = call(list[i].query, list[i].algo);
    if (!r.ok()) Die("count probe: " + r.status().ToString());
    sum.Add(CountsOf(r->info), 1.0);
  }
  Counts mean;
  mean.Add(sum, 1.0 / static_cast<double>(n));
  return mean;
}

/// Runs `set_up` at least kMinSetups times and for at least kSetupSeconds,
/// each on a fresh engine (the previous one destroyed first), and returns
/// the last; setup_s is the median. With a `probe`, each set-up's probe
/// counts must repeat exactly.
Setup RepeatSetup(const std::function<Setup()>& set_up,
                  const std::function<Counts(const core::SpqEngine&)>& probe,
                  Report& report, double* setup_s) {
  std::vector<double> seconds;
  Setup last;
  const Stopwatch watch;
  for (int i = 0; i < kMinSetups || watch.ElapsedSeconds() < kSetupSeconds;
       ++i) {
    last = Setup{};
    last = set_up();
    seconds.push_back(last.seconds);
    if (!probe) continue;
    const Counts counts = probe(*last.engine);
    if (i == 0) {
      report.exact_counts = counts;
      report.has_exact_counts = true;
    } else if (!(counts == report.exact_counts)) {
      report.counts_repeat = false;
    }
  }
  *setup_s = Quantile(seconds, 0.5);
  std::string line = "set-ups (s):";
  for (double s : seconds) line += Fmt(" %.4f", s);
  report.Note(line);
  if (probe) {
    report.Note(std::string("exact-count check across set-ups: ") +
                (report.counts_repeat ? "counts repeat" : "COUNTS DIFFER"));
  }
  return last;
}

// ------------------------------------------------------------ closed loop

/// One caller issuing list[i % size] for i = *next, *next + 1, ... until
/// `deadline`. Answers of the `oracle` queries are kept.
std::vector<CallRecord> ClosedLoop(const std::vector<QuerySpec>& list,
                                   Clock::time_point deadline,
                                   const QueryCall& call,
                                   const std::set<std::size_t>& oracle,
                                   std::vector<Answer>& answers, Tally& tally,
                                   std::size_t* next) {
  std::vector<CallRecord> calls;
  for (; Clock::now() < deadline; ++*next) {
    const std::size_t idx = *next % list.size();
    const QuerySpec& q = list[idx];
    const auto t0 = Clock::now();
    StatusOr<core::SpqResult> r = [&] {
      TRACE_SPAN("bench.query");
      return call(q.query, q.algo);
    }();
    const double wall = SecondsBetween(t0, Clock::now());
    if (!tally.Check(r)) continue;
    calls.push_back(RecordOf(wall, wall, r->info));
    if (oracle.count(idx) != 0) {
      answers.push_back({idx, 0, std::move(r->entries)});
    }
  }
  return calls;
}

/// A closed-loop phase. In trace mode its first half runs untraced (the
/// overhead baseline) and its second half traced; only the traced half
/// feeds the per-layer metrics.
struct Phase {
  std::vector<CallRecord> untraced;
  std::vector<CallRecord> traced;  // every call when not tracing

  std::vector<CallRecord> All() const {
    std::vector<CallRecord> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    return all;
  }
  double TraceOverheadMs() const {
    if (untraced.empty() || traced.empty()) return 0.0;
    return (Quantile(Latencies(traced), 0.5) -
            Quantile(Latencies(untraced), 0.5)) *
           1e3;
  }
};

Phase TimedClosedLoop(const Args& args, double seconds,
                      const std::vector<QuerySpec>& list,
                      const QueryCall& call,
                      const std::set<std::size_t>& oracle,
                      std::vector<Answer>& answers, Tally& tally) {
  Phase out;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  if (args.trace) {
    out.untraced = ClosedLoop(list, After(t0, seconds / 2), call, oracle,
                              answers, tally, &next);
    trace::Clear();
    trace::SetEnabled(true);
  }
  const auto end = After(t0, seconds);
  out.traced =
      ClosedLoop(list, args.trace ? After(end, -kTraceCaptureSeconds) : end,
                 call, oracle, answers, tally, &next);
  if (args.trace) {
    trace::Clear();
    auto capture =
        ClosedLoop(list, end, call, oracle, answers, tally, &next);
    out.traced.insert(out.traced.end(), capture.begin(), capture.end());
  }
  trace::SetEnabled(false);
  return out;
}

/// Completions per second of a closed loop: calls over their summed time.
double ClosedLoopQps(const std::vector<CallRecord>& calls) {
  double busy = 0;
  for (const CallRecord& c : calls) busy += c.latency_s;
  return Ratio(static_cast<double>(calls.size()), busy);
}

void ExportTrace(const Args& args, Report& report) {
  if (!args.trace) return;
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  trace::ExportChromeTrace(out);
  report.Note(Fmt("chrome trace: %s (%zu spans kept, %llu dropped)",
                  path.c_str(), trace::Collect().size(),
                  static_cast<unsigned long long>(trace::DroppedSpans())));
}

/// Checks every kept answer against SequentialGridSpq over the dataset
/// version it was served from; the oracle runs once per distinct query.
void CheckAnswers(const std::vector<QuerySpec>& list,
                  const std::vector<Answer>& answers,
                  const std::vector<const core::Dataset*>& versions,
                  Tally& tally, Report& report) {
  std::map<std::pair<int, std::size_t>, std::vector<core::ResultEntry>> cache;
  for (const Answer& a : answers) {
    const auto key = std::make_pair(a.version, a.index);
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto want = core::SequentialGridSpq(*versions[a.version],
                                          list[a.index].query, kGridSize);
      if (!want.ok()) Die("oracle: " + want.status().ToString());
      it = cache.emplace(key, *std::move(want)).first;
    }
    const std::string diff = CompareTopK(a.entries, it->second);
    if (diff.empty()) continue;
    tally.failed.fetch_add(1);
    if (tally.mismatches.fetch_add(1) < 5) {
      std::fprintf(stderr, "spq_perfbench: oracle mismatch, query %zu: %s\n",
                   a.index, diff.c_str());
    }
  }
  report.Note(Fmt("oracle: %zu answers of %zu distinct queries checked, "
                  "%llu mismatches",
                  answers.size(), cache.size(),
                  static_cast<unsigned long long>(tally.mismatches.load())));
}

// -------------------------------------------------------------- workloads

void RunWarmSkewed(const Args& args, Report& report, Tally& tally) {
  const Inputs in = FlickrInputs(args.seed, /*sco_only=*/false);
  const core::EngineOptions options = BenchOptions();
  double setup_s = 0;
  const Setup setup = RepeatSetup(
      [&] { return SetUpWarm(in.dataset, options); },
      [&](const core::SpqEngine& engine) {
        return CountProbe(in.list, kWarmCountProbe,
                          [&](const core::Query& q, core::Algorithm a) {
                            return engine.Query(q, a);
                          });
      },
      report, &setup_s);

  const core::SpqEngine& engine = *setup.engine;
  std::vector<Answer> answers;
  const Phase phase = TimedClosedLoop(
      args, args.seconds, in.list,
      [&](const core::Query& q, core::Algorithm a) {
        return engine.Query(q, a);
      },
      OracleIndices(args.seed), answers, tally);
  ExportTrace(args, report);
  CheckAnswers(in.list, answers, {&in.dataset}, tally, report);

  const auto all = phase.All();
  const LatencySummary lat = Summarize(Latencies(all));
  report.Note(lat.Describe("warm_query"));
  AddEndToEnd(report, lat, ClosedLoopQps(all), setup_s);

  LayerInputs layers;
  layers.calls = phase.traced;
  layers.counts = report.exact_counts;
  layers.materialize_ms = setup.materialize_ms;
  layers.trace_overhead_ms = phase.TraceOverheadMs();
  AddLayerMetrics(layers, report);
}

/// One open-loop pass through a fresh front door: Poisson sends at `rate`
/// for `seconds`, each request timed from its scheduled send to its
/// future's resolution. One in-order harvester resolves the futures (the
/// single executor serves batches in admission order) and keeps only a
/// compact record per request.
struct DoorPass {
  std::vector<CallRecord> records;  // per usable request, admission order
  std::vector<double> job_s;        // per usable request: its batch's job
  std::vector<Answer> answers;      // the oracle sample
  std::vector<double> done_s;       // completion, seconds from the start
  std::vector<double> late_s;       // send time minus schedule
  core::ServingStats stats;
  uint64_t engine_calls = 0;  // warm Query/QueryBatch calls by the door
  double engine_call_s = 0;   // their summed wall time
};

/// Count and summed seconds of the engine's warm calls so far.
std::pair<uint64_t, double> WarmCallTotals(const core::SpqEngine& engine) {
  const metrics::RegistrySnapshot snap = engine.MetricsSnapshot();
  const auto single = snap.HistogramValue("spq.query.warm_ns");
  const auto batch = snap.HistogramValue("spq.query.warm_batch_ns");
  return {single.count + batch.count,
          static_cast<double>(single.sum + batch.sum) * 1e-9};
}

DoorPass RunDoorPass(const core::SpqEngine& engine,
                     const std::vector<QuerySpec>& list,
                     const std::set<std::size_t>& oracle, uint64_t seed,
                     double rate, double seconds, Tally& tally) {
  const std::vector<double> schedule = PoissonSchedule(seed, rate, seconds);
  const std::size_t n = schedule.size();
  std::vector<std::future<StatusOr<core::SpqResult>>> futures(n);
  std::atomic<std::size_t> submitted{0};
  DoorPass pass;
  pass.late_s.assign(n, 0.0);
  const auto calls_before = WarmCallTotals(engine);
  core::SpqFrontDoor door(engine);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread harvester([&] {
    for (std::size_t i = 0; i < n; ++i) {
      // Blocks until request i is submitted: a polling harvester would be
      // one more runnable thread beside the door's compute threads.
      for (std::size_t s; (s = submitted.load(std::memory_order_acquire)) <= i;) {
        submitted.wait(s, std::memory_order_acquire);
      }
      StatusOr<core::SpqResult> r = futures[i].get();
      const double done = SecondsBetween(t0, Clock::now());
      if (!tally.Check(r)) continue;
      const double latency = done - schedule[i];
      pass.done_s.push_back(done);
      const double job_s = r->info.job.total_seconds;
      pass.records.push_back(RecordOf(latency, job_s, r->info));
      pass.job_s.push_back(job_s);
      const std::size_t idx = i % list.size();
      if (oracle.count(idx) != 0) {
        pass.answers.push_back({idx, 0, std::move(r->entries)});
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = After(t0, schedule[i]);
    std::this_thread::sleep_until(due);
    pass.late_s[i] = SecondsBetween(due, Clock::now());
    const QuerySpec& q = list[i % list.size()];
    TRACE_SPAN("bench.submit");
    futures[i] = door.Submit(q.query, q.algo);
    submitted.store(i + 1, std::memory_order_release);
    submitted.notify_one();
  }
  harvester.join();
  door.Shutdown();
  pass.stats = door.stats();
  const auto calls_after = WarmCallTotals(engine);
  pass.engine_calls = calls_after.first - calls_before.first;
  pass.engine_call_s = calls_after.second - calls_before.second;
  return pass;
}

/// Index of each batch's first request in a door pass. Requests of one
/// batch share one job (bit-identical JobStats), so consecutive equal job
/// times mark a batch.
std::vector<std::size_t> BatchStarts(const DoorPass& pass) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < pass.job_s.size(); ++i) {
    if (i == 0 || pass.job_s[i] != pass.job_s[i - 1]) starts.push_back(i);
  }
  return starts;
}

/// Shared job time per request served: the batch layer's cost per query.
double JobMsPerQuery(const DoorPass& pass) {
  double job_sum = 0;
  for (std::size_t b : BatchStarts(pass)) job_sum += pass.job_s[b];
  return Ratio(job_sum * 1e3, static_cast<double>(pass.job_s.size()));
}

/// Per-query work of a door pass: each batch's counts once, over the
/// requests served.
Counts DoorCounts(const DoorPass& pass) {
  Counts sum;
  for (std::size_t b : BatchStarts(pass)) sum.Add(pass.records[b].counts, 1.0);
  Counts mean;
  mean.Add(sum, Ratio(1.0, static_cast<double>(pass.records.size())));
  return mean;
}

/// Splits each door request's latency into door wait, engine overhead and
/// its batch job. The engine's own call time per batch is known only in
/// sum (the registry's warm latency histograms), so each request is
/// charged the mean engine overhead per batch and its door wait is the
/// rest of its latency.
std::vector<CallRecord> DoorRecords(const DoorPass& pass, Report& report) {
  const std::vector<std::size_t> starts = BatchStarts(pass);
  double job_sum = 0;
  for (std::size_t b : starts) job_sum += pass.job_s[b];
  if (pass.engine_calls != starts.size()) {
    report.Note(Fmt("door: %llu engine calls for %zu batches",
                    static_cast<unsigned long long>(pass.engine_calls),
                    starts.size()));
  }
  const double engine_s = Ratio(pass.engine_call_s - job_sum,
                                static_cast<double>(starts.size()));
  std::vector<CallRecord> records = pass.records;
  for (CallRecord& r : records) {
    r.split.engine = engine_s;
    r.split.outside -= engine_s;
  }
  return records;
}

double BatchSizeMean(const core::ServingStats& stats) {
  double batches = 0, queries = 0;
  for (std::size_t s = 0; s < stats.batch_size_hist.size(); ++s) {
    batches += static_cast<double>(stats.batch_size_hist[s]);
    queries += static_cast<double>(s * stats.batch_size_hist[s]);
  }
  return Ratio(queries, batches);
}

std::string LateNote(const std::vector<double>& late_s) {
  return Fmt("generator_late_ms: p50 %.4f, p99 %.4f, max %.4f (%zu sends)",
             Quantile(late_s, 0.5) * 1e3, Quantile(late_s, 0.99) * 1e3,
             Quantile(late_s, 1.0) * 1e3, late_s.size());
}

void RunDoorPoisson(const Args& args, Report& report, Tally& tally) {
  const Inputs in = FlickrInputs(args.seed, /*sco_only=*/true);
  core::EngineOptions options = BenchOptions();
  // The overload pass must queue, not refuse: a refusal would count as an
  // error and cap the measured capacity at the queue bound.
  options.serving.queue_capacity = 1u << 16;
  double setup_s = 0;
  const Setup setup = RepeatSetup(
      [&] { return SetUpWarm(in.dataset, options); }, nullptr, report,
      &setup_s);
  const core::SpqEngine& engine = *setup.engine;
  const auto oracle = OracleIndices(args.seed);
  std::vector<Answer> answers;

  // Moderate rate: the latency pass (split in trace mode as elsewhere).
  const double moderate_s = kDoorModerateShare * args.seconds;
  std::vector<DoorPass> moderate;
  if (args.trace) {
    moderate.push_back(RunDoorPass(engine, in.list, oracle, args.seed * 3 + 1,
                                   kDoorModerateQps, moderate_s / 2, tally));
    trace::Clear();
    trace::SetEnabled(true);
    moderate.push_back(RunDoorPass(engine, in.list, oracle, args.seed * 3 + 2,
                                   kDoorModerateQps, moderate_s / 2, tally));
    trace::SetEnabled(false);
    ExportTrace(args, report);
  } else {
    moderate.push_back(RunDoorPass(engine, in.list, oracle, args.seed * 3 + 1,
                                   kDoorModerateQps, moderate_s, tally));
  }
  // Overload rate: the capacity pass; the backlog drains after the sends.
  const uint64_t overload_seed = args.seed * 3 + 3;
  const double sends_s = kDoorOverloadShare * args.seconds;
  const DoorPass overload = RunDoorPass(engine, in.list, oracle, overload_seed,
                                        kDoorOverloadQps, sends_s, tally);

  std::vector<double> latency, late;
  auto absorb = [&](const DoorPass& p) {
    late.insert(late.end(), p.late_s.begin(), p.late_s.end());
    answers.insert(answers.end(), p.answers.begin(), p.answers.end());
  };
  for (const DoorPass& p : moderate) {
    absorb(p);
    const auto l = Latencies(p.records);
    latency.insert(latency.end(), l.begin(), l.end());
  }
  absorb(overload);
  CheckAnswers(in.list, answers, {&in.dataset}, tally, report);

  const LatencySummary lat = Summarize(latency);
  // Capacity: completions per second while every batch can fill — from a
  // quarter into the sends (the queue has built up) to the last completion
  // that still left a full batch queued behind it, well into the drain
  // after the last send.
  const std::vector<double> sent =
      PoissonSchedule(overload_seed, kDoorOverloadQps, sends_s);
  std::vector<double> in_window;
  for (std::size_t i = 0; i < overload.done_s.size(); ++i) {
    const double t = overload.done_s[i];
    if (t < 0.25 * sends_s) continue;
    const auto sent_by_t = static_cast<std::size_t>(
        std::upper_bound(sent.begin(), sent.end(), t) - sent.begin());
    if (sent_by_t < i + 1 + options.serving.max_batch) break;
    in_window.push_back(t);
  }
  const double capacity =
      in_window.size() < 2
          ? 0.0
          : static_cast<double>(in_window.size() - 1) /
                (in_window.back() - in_window.front());
  report.Note(lat.Describe("door") +
              Fmt(" at %.0f q/s offered", kDoorModerateQps));
  report.Note(Fmt("door_capacity_qps = %.2f 1/s (%zu completions while "
                  "backlogged, at %.0f q/s offered)",
                  capacity, in_window.size(), kDoorOverloadQps));
  report.Note(LateNote(late));
  AddEndToEnd(report, lat, capacity, setup_s);

  // Latency split and work counts from the (traced) moderate pass; the
  // batch layer from the overload pass, where batches actually fill.
  const DoorPass& traced = moderate.back();
  LayerInputs layers;
  layers.calls = DoorRecords(traced, report);
  layers.counts = DoorCounts(traced);
  layers.serving_batch_mean = BatchSizeMean(overload.stats);
  layers.batch_job_ms_per_query = JobMsPerQuery(overload);
  double rejected = static_cast<double>(overload.stats.rejected);
  for (const DoorPass& p : moderate) {
    rejected += static_cast<double>(p.stats.rejected);
  }
  layers.serving_rejected = rejected;
  layers.materialize_ms = setup.materialize_ms;
  if (moderate.size() == 2) {
    layers.trace_overhead_ms =
        (Quantile(Latencies(moderate[1].records), 0.5) -
         Quantile(Latencies(moderate[0].records), 0.5)) *
        1e3;
  }
  AddLayerMetrics(layers, report);
}

/// Checkpoint files written to a fresh MiniDfs, sized: logical bytes of
/// every file and of the cell images, and the bytes the replicas hold.
struct DfsFootprint {
  double files = 0, bytes = 0, cell_bytes = 0, replicated_bytes = 0;
};

DfsFootprint FootprintOf(const dfs::MiniDfs& dfs) {
  DfsFootprint f;
  for (const std::string& name : dfs.ListFiles()) {
    auto meta = dfs.GetMetadata(name);
    if (!meta.ok()) continue;
    f.files += 1;
    f.bytes += static_cast<double>(meta->size);
    if (name.find("/cell-") != std::string::npos) {
      f.cell_bytes += static_cast<double>(meta->size);
    }
  }
  for (uint32_t n = 0; n < dfs.num_datanodes(); ++n) {
    f.replicated_bytes += static_cast<double>(dfs.datanode(n).stored_bytes());
  }
  return f;
}

void RunStoreLifecycle(const Args& args, Report& report, Tally& tally) {
  const Inputs in = FlickrInputs(args.seed, /*sco_only=*/false);
  const core::EngineOptions options = BenchOptions();
  double setup_s = 0;
  const Setup setup = RepeatSetup(
      [&] { return SetUpWarm(in.dataset, options); }, nullptr, report,
      &setup_s);
  const auto oracle = OracleIndices(args.seed);
  std::vector<Answer> answers;

  // Checkpoint -> fresh engine -> OpenStore -> first answered query.
  const uint64_t wal_before =
      setup.engine->MetricsSnapshot().CounterValue("spq.wal.appends");
  std::vector<double> checkpoint_s, recovery_s;
  DfsFootprint footprint;
  std::unique_ptr<dfs::MiniDfs> dfs;
  // Declared after its DFS, so destroyed first: a recovered engine reads
  // cells from the DFS lazily.
  std::unique_ptr<core::SpqEngine> recovered;
  const auto cycles_end =
      After(Clock::now(), kLifecycleCycleShare * args.seconds);
  for (int cycle = 0;
       cycle < kMinLifecycleCycles || Clock::now() < cycles_end; ++cycle) {
    auto next_dfs = std::make_unique<dfs::MiniDfs>();
    Stopwatch ckpt_watch;
    StatusOr<uint64_t> epoch = [&] {
      TRACE_SPAN("bench.checkpoint");
      return setup.engine->CheckpointStore(*next_dfs, "store");
    }();
    const double ckpt = ckpt_watch.ElapsedSeconds();
    if (!tally.Check(epoch.status())) continue;
    checkpoint_s.push_back(ckpt);
    if (cycle == 0) footprint = FootprintOf(*next_dfs);

    auto fresh = std::make_unique<core::SpqEngine>(in.dataset, options);
    const std::size_t idx = static_cast<std::size_t>(cycle) % in.list.size();
    Stopwatch recover_watch;
    Status opened = [&] {
      TRACE_SPAN("bench.open_store");
      return fresh->OpenStore(*next_dfs, "store");
    }();
    if (!tally.Check(opened)) continue;
    auto r = fresh->Query(in.list[idx].query, in.list[idx].algo);
    const double rec = recover_watch.ElapsedSeconds();
    if (!tally.Check(r)) continue;
    recovery_s.push_back(rec);
    if (idx < kOracleQueries) answers.push_back({idx, 0, r->entries});
    recovered.reset();  // before the DFS it reads from
    dfs = std::move(next_dfs);
    recovered = std::move(fresh);
  }
  if (recovered == nullptr) Die("no checkpoint/recovery cycle succeeded");
  const double wal_appends =
      Ratio(static_cast<double>(
                setup.engine->MetricsSnapshot().CounterValue(
                    "spq.wal.appends") -
                wal_before),
            static_cast<double>(checkpoint_s.size()));

  // The mutation stream: seeded deletes of generated objects alternating
  // with inserts of fresh ids placed near generated objects, sent at a
  // fixed rate; beside it one closed-loop query caller.
  const double churn_seconds = (1.0 - kLifecycleCycleShare) * args.seconds;
  const std::vector<double> schedule =
      PoissonSchedule(args.seed * 7 + 5, kMutationsPerSecond, churn_seconds);
  Rng rng(args.seed ^ 0xC4A2EULL);
  std::vector<std::size_t> victims(in.dataset.data.size());
  for (std::size_t i = 0; i < victims.size(); ++i) victims[i] = i;
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.NextUint64(i)]);
  }
  core::ObjectId next_id = 0;
  for (const core::DataObject& o : in.dataset.data) {
    next_id = std::max(next_id, o.id + 1);
  }
  for (const core::FeatureObject& f : in.dataset.features) {
    next_id = std::max(next_id, f.id + 1);
  }
  std::vector<core::DataObject> inserts((schedule.size() + 1) / 2);
  for (std::size_t j = 0; j < inserts.size(); ++j) {
    const geo::Point near =
        in.dataset.data[rng.NextUint64(in.dataset.data.size())].pos;
    inserts[j].id = next_id + j;
    inserts[j].pos = {std::clamp(near.x + rng.NextGaussian(0, 1e-3), 0.0, 1.0),
                      std::clamp(near.y + rng.NextGaussian(0, 1e-3), 0.0, 1.0)};
  }

  core::SpqEngine& live = *recovered;
  std::vector<double> mutation_s(schedule.size(), 0.0);
  std::vector<double> late_s(schedule.size(), 0.0);
  std::vector<char> applied(schedule.size(), 0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread writer([&] {
    for (std::size_t j = 0; j < schedule.size(); ++j) {
      const auto due = After(t0, schedule[j]);
      std::this_thread::sleep_until(due);
      late_s[j] = SecondsBetween(due, Clock::now());
      Status st = [&] {
        TRACE_SPAN("bench.mutation");
        return j % 2 == 0
                   ? live.Delete(in.dataset.data[victims[j / 2]].id)
                   : live.Insert(inserts[j / 2]);
      }();
      mutation_s[j] = SecondsBetween(due, Clock::now());
      applied[j] = tally.Check(st) ? 1 : 0;
    }
  });
  Phase phase;
  {
    const std::set<std::size_t> no_oracle;  // answers vary with the stream
    std::vector<Answer> none;
    phase = TimedClosedLoop(
        args, SecondsBetween(Clock::now(), After(t0, churn_seconds)), in.list,
        [&](const core::Query& q, core::Algorithm a) {
          return live.Query(q, a);
        },
        no_oracle, none, tally);
  }
  writer.join();
  ExportTrace(args, report);

  // After the stream: the logical dataset is the surviving generated
  // objects in order, then the applied inserts in order.
  core::Dataset final_ds;
  final_ds.bounds = in.dataset.bounds;
  final_ds.features = in.dataset.features;
  std::vector<char> deleted(in.dataset.data.size(), 0);
  for (std::size_t j = 0; j < schedule.size(); j += 2) {
    if (applied[j]) deleted[victims[j / 2]] = 1;
  }
  for (std::size_t i = 0; i < in.dataset.data.size(); ++i) {
    if (!deleted[i]) final_ds.data.push_back(in.dataset.data[i]);
  }
  for (std::size_t j = 1; j < schedule.size(); j += 2) {
    if (applied[j]) final_ds.data.push_back(inserts[j / 2]);
  }
  for (std::size_t idx : oracle) {
    auto r = live.Query(in.list[idx].query, in.list[idx].algo);
    if (tally.Check(r)) {
      answers.push_back({idx, 1, std::move(r->entries)});
    }
  }
  CheckAnswers(in.list, answers, {&in.dataset, &final_ds}, tally, report);

  const auto all = phase.All();
  const LatencySummary lat = Summarize(Latencies(all));
  const double tail_q = TailQuantile(mutation_s.size(), kTailCap);
  const double ckpt_p50 = Quantile(checkpoint_s, 0.5);
  const double rec_p50 = Quantile(recovery_s, 0.5);
  const double mut_p50_us = Quantile(mutation_s, 0.5) * 1e6;
  const double mut_tail_us = Quantile(mutation_s, tail_q) * 1e6;
  report.Note(Fmt("checkpoint_s = %.4f s; recovery_s = %.4f s (medians of "
                  "%zu cycles)",
                  ckpt_p50, rec_p50, recovery_s.size()));
  report.Note(Fmt("mutation_p50_us = %.2f us; mutation_tail_us = %.2f us "
                  "(p%g of %zu at %.0f/s offered, turnover %.1f%%)",
                  mut_p50_us, mut_tail_us, tail_q * 100, mutation_s.size(),
                  kMutationsPerSecond,
                  100.0 * Ratio(static_cast<double>(schedule.size() / 2),
                                static_cast<double>(in.dataset.data.size()))));
  report.Note(LateNote(late_s));
  report.Note(lat.Describe("churn_query"));
  AddEndToEnd(report, lat, ClosedLoopQps(all), setup_s);

  const core::CellStore* store = live.store();
  LayerInputs layers;
  layers.calls = phase.traced;
  layers.counts = MeanCounts(phase.traced);
  layers.materialize_ms = setup.materialize_ms;
  layers.cells_restored = static_cast<double>(store->cells_restored());
  layers.cells_rebuilt = static_cast<double>(store->cells_rebuilt());
  layers.cells_compacted = static_cast<double>(store->cells_compacted());
  layers.checkpoint_bytes_per_row = Ratio(
      footprint.bytes, static_cast<double>(in.dataset.data.size()));
  layers.checkpoint_s = ckpt_p50;
  layers.recovery_s = rec_p50;
  layers.mutation_p50_us = mut_p50_us;
  layers.mutation_tail_us = mut_tail_us;
  layers.wal_appends = wal_appends;
  layers.dfs_files = footprint.files;
  layers.dfs_bytes_per_user_byte =
      Ratio(footprint.replicated_bytes, footprint.cell_bytes);
  layers.trace_overhead_ms = phase.TraceOverheadMs();
  AddLayerMetrics(layers, report);
}

// -------------------------------------------------------------------- main

const std::map<std::string, void (*)(const Args&, Report&, Tally&)>&
Workloads() {
  static const std::map<std::string, void (*)(const Args&, Report&, Tally&)>
      kWorkloads = {{"warm_skewed", RunWarmSkewed},
                    {"door_poisson", RunDoorPoisson},
                    {"store_lifecycle", RunStoreLifecycle}};
  return kWorkloads;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (Workloads().count(args.workload) == 0) {
    Die("unknown --workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0) || args.seconds > 600.0) {
    Die("--seconds must be in (0, 600]");
  }
  return args;
}

void PrintJson(const Report& report, const Tally& tally, bool trace) {
  const bool correct = tally.mismatches.load() == 0 && report.counts_repeat;
  std::string json = Fmt(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(
          1, tally.attempted.load())),
      static_cast<unsigned long long>(tally.failed.load()));
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace spq::perfbench

int main(int argc, char** argv) {
  using namespace spq::perfbench;
  spq::Logger::SetMinLevel(spq::LogLevel::kWarn);
  const Args args = ParseArgs(argc, argv);
  Report report;
  Tally tally;
  Workloads().at(args.workload)(args, report, tally);

  std::printf("== %s (seed %llu, %.1f s, trace %d) ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("error_rate = %.6g (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(tally.failed.load()),
                    static_cast<double>(tally.attempted.load())),
              static_cast<unsigned long long>(tally.failed.load()),
              static_cast<unsigned long long>(tally.attempted.load()));
  if (report.has_exact_counts) {
    std::printf("exact_counts %s\n", report.exact_counts.Json().c_str());
  }
  const auto& listed = args.trace ? report.end_to_end : report.per_layer;
  for (const Metric& m : listed) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(report, tally, args.trace);
  return 0;
}
