#ifndef SPQ_COMMON_METRICS_H_
#define SPQ_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace spq::metrics {

// ------------------------------------------------------ metric inventory ---
// Every registry metric the request path records, by component. Counters
// unless marked (histogram) / (gauge); `_ns` histograms record NowNanos()
// durations. Registered lazily (a metric exists once its code path has
// run), surfaced via SpqEngine::MetricsSnapshot() / DumpMetrics() and the
// SPQ_METRICS_FILE at-exit dump (trace.h).
//
//   spq.serving.*   — SpqFrontDoor (spq/serving.cc), summed across doors;
//                     per-door exact views live in ServingStats.
//     admitted / rejected / coalesced / batches / cold_routed
//     queue_depth (gauge)       admitted-but-not-yet-drained entries
//     queue_wait_ns (histogram) admission → executor drain, per query
//     batch_size (histogram)    warm queries per dispatched batch job
//   spq.query.*     — SpqEngine::Query / QueryBatch (spq/engine.cc).
//     cold_fallbacks            queries served by the loud cold path
//     slow                      queries over EngineOptions::slow_query_ms
//     warm_ns / warm_batch_ns (histograms)  end-to-end warm latency
//   spq.store.*     — CellStore (spq/cell_store.cc) + engine publishes.
//     publishes                 snapshot swaps (build/mutation/open)
//     cells_materialized        first-touch Serve() materializations,
//                               a query's or a mutation's (mutations
//                               materialize their cell first)
//     cells_restored / cells_rebuilt   recovery restores / fallbacks
//     cells_compacted           partition compactions (auto + explicit)
//     checkpoints / recoveries  whole-store persistence round-trips
//     materialize_ns / checkpoint_ns / recover_ns (histograms)
//   spq.job.*       — mapreduce runtime (mapreduce/runtime.h) and the warm
//                     route (spq/cell_store.cc), every job.
//     runs                      jobs completed (cold, build, warm, batch)
//     map_ns / reduce_ns / total_ns (histograms)  per-job phase walltime
//   spq.wal.*       — StoreWal (spq/wal.cc).
//     appends / replays / records_replayed / torn_records
//     append_ns / replay_ns (histograms)
//
// Recording contract: metrics observe, never steer — no counter or
// histogram value feeds back into control flow, and none of them touch
// mapreduce::Counters or query results (the equivalence suites stay
// bit-identical with metrics hot). The span inventory lives in
// common/trace.h.

// ---------------------------------------------------------------- clock ---
// The ONE steady-clock source of the codebase. Every timing consumer —
// Stopwatch (common/stopwatch.h), the front door's admission timestamps
// and deadlines (spq/serving.cc), the benches' latency samples, and the
// histograms/spans below — derives from this alias, so two measurements
// taken anywhere in the process are always comparable.

using Clock = std::chrono::steady_clock;

/// Monotonic now, in nanoseconds since an arbitrary process-local origin.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Elapsed seconds since a NowNanos() reading.
inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

/// Exact percentile of a sample vector (nearest-rank with linear
/// interpolation), sorting a copy. This is the REFERENCE quantile the
/// histogram estimator is tested against, and the shared helper behind
/// the benches' p50/p99 reporting (one definition instead of a local
/// copy per bench).
double PercentileOfSamples(std::vector<double> samples, double q);

// -------------------------------------------------------------- counters ---

/// Monotonic event tally. Relaxed atomics: counters are reporting-only —
/// no counter ever gates control flow, so no ordering is needed.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time level (queue depth, resident cells). Same relaxed
/// contract as Counter; Add() takes signed deltas.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// ------------------------------------------------------------- histogram ---

/// Aggregated view of one Histogram: merged over every shard at read
/// time. count/sum/max are exact; quantiles are log₂-bucket estimates
/// (the estimate lands in the same power-of-two bucket as the true
/// quantile, so it is within a factor of 2 — see Percentile()).
struct HistogramSnapshot {
  static constexpr int kNumBuckets = 64;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  /// buckets[i] = number of recorded values v with BucketOf(v) == i,
  /// i.e. bucket 0 holds {0, 1} and bucket i holds [2^i, 2^(i+1)).
  std::array<uint64_t, kNumBuckets> buckets{};

  /// Estimated q-quantile (q in [0, 1]), linearly interpolated inside the
  /// rank's bucket. Exact for max (q == 1 returns the tracked maximum);
  /// 0 when empty.
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log₂ histogram with lock-free per-thread shards.
///
/// Record() touches only the calling thread's shard (relaxed fetch_add on
/// the bucket, sum, and a CAS max), so concurrent recorders never contend
/// on a shared line; Read() merges every shard. The trade: count/sum/max
/// are exact, quantiles are bucket-resolution estimates — the right trade
/// for latency tails, where "p99 is ~2ms" is the question and a factor-2
/// bucket is plenty.
///
/// Values are raw uint64s; by convention the registry's `*_ns` histograms
/// record nanoseconds (from NowNanos()) and unit-free ones (batch sizes)
/// record counts.
class Histogram {
 public:
  static constexpr int kNumBuckets = HistogramSnapshot::kNumBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// log₂ bucket index: 0 for {0, 1}, floor(log2(v)) otherwise.
  static int BucketOf(uint64_t value) {
    if (value <= 1) return 0;
    return 63 - __builtin_clzll(value);
  }
  /// Inclusive lower / exclusive upper value bound of bucket i.
  static uint64_t BucketLow(int i) { return i == 0 ? 0 : (uint64_t{1} << i); }
  static uint64_t BucketHigh(int i) {
    return i >= 63 ? ~uint64_t{0} : (uint64_t{1} << (i + 1));
  }

  void Record(uint64_t value);
  /// Merged point-in-time view over all shards.
  HistogramSnapshot Read() const;
  void Reset();

 private:
  /// One cache line per shard keeps recorders on different cores from
  /// false-sharing; the shard count is a fixed small power of two —
  /// threads hash onto shards, they do not own them exclusively, so a
  /// shard's atomics still must be atomics.
  static constexpr int kNumShards = 16;
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Shard, kNumShards> shards_;
};

// -------------------------------------------------------------- registry ---

/// Point-in-time copy of every registered metric, name-sorted.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// The named counter's value, 0 when absent (snapshots are sparse:
  /// a metric exists only once some code path has touched it).
  uint64_t CounterValue(const std::string& name) const;
  /// The named histogram, empty when absent.
  HistogramSnapshot HistogramValue(const std::string& name) const;
};

/// Process-wide named-metric registry.
///
/// Naming scheme: `spq.<component>.<measurement>`, dot-separated, with
/// `_ns` suffixing nanosecond histograms (e.g. `spq.serving.queue_wait_ns`,
/// `spq.store.cells_materialized`). DumpPrometheus() sanitizes names to
/// the Prometheus charset (dots become underscores).
///
/// Usage contract: look a metric up ONCE (the returned reference is
/// stable for the process lifetime — metrics are never unregistered) and
/// cache it, typically in a function-local static:
///
///   static metrics::Counter& checkpoints =
///       metrics::MetricsRegistry::Global().counter("spq.store.checkpoints");
///   checkpoints.Increment();
///
/// Lookup takes a mutex (registration is rare and cold); recording on the
/// returned object is lock-free. ResetForTest() zeroes every value but
/// keeps the objects registered, so cached references stay valid.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  RegistrySnapshot Snapshot() const;
  /// Prometheus text exposition format: counter/gauge samples plus
  /// cumulative `_bucket{le="..."}` / `_sum` / `_count` series per
  /// histogram (le bounds in the histogram's raw unit).
  void DumpPrometheus(std::ostream& os) const;
  /// Zeroes every registered value in place (objects stay registered and
  /// cached references stay valid). For tests and bench section resets.
  void ResetForTest();

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII latency probe: records NowNanos()-elapsed into `hist` on scope
/// exit. `hist` may be null (disabled knob) — then the timer is inert.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? NowNanos() : 0) {}
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) hist_->Record(NowNanos() - start_ns_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

}  // namespace spq::metrics

#endif  // SPQ_COMMON_METRICS_H_
