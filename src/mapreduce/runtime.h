#ifndef SPQ_MAPREDUCE_RUNTIME_H_
#define SPQ_MAPREDUCE_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/statusor.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mapreduce/job.h"
#include "mapreduce/merge.h"

namespace spq::mapreduce {

/// \brief Output of a successful job: the concatenated reducer emissions
/// (in reduce-partition order, deterministic) plus the measured stats.
template <typename Out>
struct JobOutput {
  std::vector<Out> records;
  JobStats stats;
};

namespace internal {

template <typename K, typename V>
class MapContextImpl : public MapContext<K, V> {
 public:
  MapContextImpl(uint32_t num_partitions,
                 const std::function<uint32_t(const K&, uint32_t)>* part)
      : partitions_(num_partitions), partitioner_(part) {}

  void Emit(const K& key, const V& value) override {
    uint32_t p = (*partitioner_)(key, static_cast<uint32_t>(partitions_.size()));
    partitions_[p].emplace_back(key, value);
    ++emitted_;
  }

  Counters& counters() override { return counters_; }

  std::vector<std::vector<std::pair<K, V>>>& partitions() {
    return partitions_;
  }
  uint64_t emitted() const { return emitted_; }

 private:
  std::vector<std::vector<std::pair<K, V>>> partitions_;
  const std::function<uint32_t(const K&, uint32_t)>* partitioner_;
  Counters counters_;
  uint64_t emitted_ = 0;
};

template <typename Out>
class ReduceContextImpl : public ReduceContext<Out> {
 public:
  void Emit(const Out& record) override { records_.push_back(record); }
  Counters& counters() override { return counters_; }
  std::vector<Out>& records() { return records_; }
  Counters& task_counters() { return counters_; }

 private:
  std::vector<Out> records_;
  Counters counters_;
};

/// Map-output layout step of the shuffle: group the partition's records by
/// Traits::Bucket (a hash map — the paper's setup has only a handful of
/// cells per reduce partition), emit buckets in ascending bucket id, and
/// sort *within* each bucket on the 8-byte order key (plus emission index
/// for stability) — a cheap integer sort in place of a comparison sort
/// over composite keys. Records are written straight into the flat-arena
/// segment image.
template <typename K, typename V>
StatusOr<FlatSegment> BuildFlatSegment(
    const std::vector<std::pair<K, V>>& records) {
  using Traits = FlatShuffleTraits<K, V>;
  FlatSegment seg;
  const std::size_t n = records.size();
  seg.num_records = n;
  if (n == 0) return seg;

  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  std::vector<uint64_t> order_keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_keys[i] = Traits::OrderKey(records[i].first);
    buckets[Traits::Bucket(records[i].first)].push_back(
        static_cast<uint32_t>(i));
  }
  std::vector<uint64_t> bucket_ids;
  bucket_ids.reserve(buckets.size());
  for (const auto& [b, unused] : buckets) bucket_ids.push_back(b);
  std::sort(bucket_ids.begin(), bucket_ids.end());

  // Exact-size the whole byte image up front (Traits::PoolBytes pre-pass)
  // so the segment is written in one allocation with no trailing copy.
  uint64_t pool_bytes = 0;
  for (const auto& [key, value] : records) {
    pool_bytes += Traits::PoolBytes(value);
  }
  if (pool_bytes > std::numeric_limits<uint32_t>::max()) {
    // Pool slices are addressed by u32 offsets; wrapping would silently
    // alias spans. More tasks split the records over smaller segments.
    return Status::InvalidArgument(
        "flat segment pool exceeds 4 GiB; run the job with more map or "
        "reduce tasks");
  }
  const std::size_t keys_bytes = n * FlatSegment::kKeyRowBytes;
  const std::size_t payload_bytes = n * Traits::kPayloadStride;
  std::vector<uint8_t> bytes(keys_bytes + payload_bytes + pool_bytes);
  uint8_t* key_dst = bytes.data();
  uint8_t* payload_dst = bytes.data() + keys_bytes;
  uint8_t* pool = bytes.data() + keys_bytes + payload_bytes;
  uint64_t pool_pos = 0;
  std::vector<std::pair<uint64_t, uint32_t>> order;  // (order key, index)
  std::size_t out = 0;
  for (uint64_t b : bucket_ids) {
    const auto& idxs = buckets[b];
    order.clear();
    order.reserve(idxs.size());
    for (uint32_t idx : idxs) order.emplace_back(order_keys[idx], idx);
    std::sort(order.begin(), order.end());
    for (const auto& [okey, idx] : order) {
      wire::StoreU64(key_dst + out * FlatSegment::kKeyRowBytes, b);
      wire::StoreU64(key_dst + out * FlatSegment::kKeyRowBytes + 8, okey);
      Traits::EncodePayload(records[idx].second,
                            payload_dst + out * Traits::kPayloadStride, pool,
                            &pool_pos);
      ++out;
    }
  }
  seg.pool_bytes = pool_pos;
  seg.bytes = std::move(bytes);
  seg.byte_size = seg.bytes.size();
  return seg;
}

/// Job-phase registry metrics of one completed job (the MapReduce runtime
/// and the warm route in spq/cell_store.cc): one sample per job, never per
/// record, so the registry answers "where do jobs spend their time" while
/// the hot loops stay untouched.
inline void RecordJobMetrics(const JobStats& stats) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& jobs = registry.counter("spq.job.runs");
  static metrics::Histogram& map_ns = registry.histogram("spq.job.map_ns");
  static metrics::Histogram& reduce_ns =
      registry.histogram("spq.job.reduce_ns");
  static metrics::Histogram& total_ns = registry.histogram("spq.job.total_ns");
  jobs.Increment();
  map_ns.Record(static_cast<uint64_t>(stats.map_seconds * 1e9));
  reduce_ns.Record(static_cast<uint64_t>(stats.reduce_seconds * 1e9));
  total_ns.Record(static_cast<uint64_t>(stats.total_seconds * 1e9));
}

/// The job driver: runs the map phase (with fault retries and optional
/// spilling), the shuffle accounting and the reduce phase (with fault
/// retries). Each map partition is laid out by BuildFlatSegment;
/// `reduce_partition(segments, ctx)` consumes one reduce partition's
/// segments and returns its Status.
///
/// RunJob below and the store build job (spq/cell_store.cc) differ only
/// in that callable — keeping a single driver guarantees they share fault
/// injection, retry, stats and cleanup semantics exactly (the equivalence
/// tests rely on it).
template <typename In, typename K, typename V, typename Out,
          typename ReducePartitionFn>
StatusOr<JobOutput<Out>> RunJobWith(const JobSpec<In, K, V, Out>& spec,
                                    const JobConfig& config,
                                    const std::vector<In>& input,
                                    ReducePartitionFn&& reduce_partition) {
  JobOutput<Out> result;
  JobStats& stats = result.stats;
  stats.input_records = input.size();

  TRACE_SPAN("job.run");
  Stopwatch total_watch;
  const uint32_t num_maps = config.num_map_tasks;
  const uint32_t num_reduces = config.num_reduce_tasks;
  const uint64_t spill_run_id = NextSpillRunId();

  ThreadPool pool(config.num_workers);

  // ---------------------------------------------------------------- map --
  // segments[m][r]: the sorted run map task m produced for reduce r.
  std::vector<std::vector<FlatSegment>> segments(num_maps);
  std::vector<Counters> map_counters(num_maps);
  std::atomic<uint64_t> map_output_records{0};
  std::atomic<uint32_t> map_failures{0};
  std::atomic<uint32_t> storage_detections{0};
  stats.map_task_seconds.assign(num_maps, 0.0);
  stats.reduce_task_seconds.assign(num_reduces, 0.0);

  std::mutex error_mutex;
  Status first_error;
  auto record_error = [&](const Status& st) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.ok()) first_error = st;
  };

  Stopwatch map_watch;
  {
  TRACE_SPAN("job.map");
  ParallelFor(pool, num_maps, [&](std::size_t m) {
    TRACE_SPAN("map.task");
    const std::size_t begin = input.size() * m / num_maps;
    const std::size_t end = input.size() * (m + 1) / num_maps;
    bool succeeded = false;
    Stopwatch task_watch;
    for (int attempt = 0; attempt < config.max_task_attempts; ++attempt) {
      task_watch.Reset();
      const bool fail_this_attempt =
          AttemptFails(config.faults, /*kind=*/0,
                       static_cast<uint32_t>(m), attempt);
      MapContextImpl<K, V> ctx(num_reduces, &spec.partitioner);
      auto mapper = spec.mapper_factory();
      // A failing attempt dies halfway through its split.
      const std::size_t stop =
          fail_this_attempt ? begin + (end - begin) / 2 : end;
      for (std::size_t i = begin; i < stop; ++i) {
        mapper->Map(input[i], ctx);
      }
      if (fail_this_attempt) {
        ++map_failures;
        continue;  // discard attempt state, retry
      }
      // Spill: lay out each partition's sorted run and serialize it (to
      // disk when the job requests an out-of-core shuffle). Injected
      // storage faults are scoped to this attempt and salted with its
      // number, so a spill write that fails its verify-after-write costs
      // the attempt and the retry re-rolls with fresh fault sites.
      auto& parts = ctx.partitions();
      std::vector<FlatSegment> task_segments(num_reduces);
      Status spill_status;
      {
        ScopedStorageFaults storage_scope(
            &config.faults,
            Mix64((spill_run_id << 20) ^ 0x4d4150ull ^
                  (static_cast<uint64_t>(m) << 8) ^
                  static_cast<uint64_t>(attempt)));
        for (uint32_t r = 0; r < num_reduces; ++r) {
          StatusOr<FlatSegment> seg_or = BuildFlatSegment<K, V>(parts[r]);
          if (!seg_or.ok()) {
            spill_status = seg_or.status();
            break;
          }
          FlatSegment& seg = task_segments[r];
          seg = *std::move(seg_or);
          if (!config.spill_dir.empty() && seg.num_records > 0) {
            seg.spill_path = SpillPath(config.spill_dir, spill_run_id,
                                       static_cast<uint32_t>(m), r);
            spill_status = WriteSpillFile(seg.spill_path, seg.bytes);
            if (!spill_status.ok()) break;
            seg.bytes.clear();
            seg.bytes.shrink_to_fit();
          }
        }
      }
      if (!spill_status.ok()) {
        // The attempt's files, including the one that failed its verify,
        // never reach SpillCleanup below: remove them here.
        for (const FlatSegment& seg : task_segments) {
          if (!seg.spill_path.empty()) RemoveSpillFile(seg.spill_path);
        }
        if (config.faults.storage_enabled() && spill_status.IsIOError()) {
          // Detected storage corruption, not a logic error: retry the
          // whole attempt (layout errors like InvalidArgument stay fatal).
          storage_detections.fetch_add(1, std::memory_order_relaxed);
          if (attempt + 1 < config.max_task_attempts) {
            ++map_failures;
            continue;
          }
        }
        record_error(spill_status);
        return;
      }
      segments[m] = std::move(task_segments);
      map_counters[m].MergeFrom(ctx.counters());
      map_output_records += ctx.emitted();
      stats.map_task_seconds[m] = task_watch.ElapsedSeconds();
      succeeded = true;
      break;
    }
    if (!succeeded) {
      record_error(Status::Aborted(
          "map task " + std::to_string(m) + " exceeded max attempts"));
    }
  });
  }  // TRACE_SPAN("job.map")
  stats.map_seconds = map_watch.ElapsedSeconds();

  // Spill files live until the job completes (reduce retries re-read them).
  struct SpillCleanup {
    std::vector<std::vector<FlatSegment>>* segments;
    ~SpillCleanup() {
      for (auto& task_segments : *segments) {
        for (auto& seg : task_segments) {
          if (!seg.spill_path.empty()) RemoveSpillFile(seg.spill_path);
        }
      }
    }
  } spill_cleanup{&segments};

  if (!first_error.ok()) return first_error;

  stats.map_output_records = map_output_records.load();
  stats.map_task_failures = map_failures.load();
  for (const auto& c : map_counters) stats.counters.MergeFrom(c);

  // ------------------------------------------------------------- shuffle --
  // Reduce partition r reads segments[m][r] for every m. Bytes are counted
  // as shuffle traffic; in Hadoop these cross the network.
  std::vector<std::vector<const FlatSegment*>> reduce_inputs(num_reduces);
  stats.reduce_input_records.assign(num_reduces, 0);
  {
    TRACE_SPAN("job.shuffle");
    for (uint32_t r = 0; r < num_reduces; ++r) {
      for (uint32_t m = 0; m < num_maps; ++m) {
        const FlatSegment& seg = segments[m][r];
        if (seg.num_records == 0) continue;
        reduce_inputs[r].push_back(&seg);
        stats.shuffle_bytes += seg.byte_size;
        stats.reduce_input_records[r] += seg.num_records;
      }
    }
  }

  // -------------------------------------------------------------- reduce --
  std::vector<std::vector<Out>> reduce_outputs(num_reduces);
  std::vector<Counters> reduce_counters(num_reduces);
  std::atomic<uint32_t> reduce_failures{0};

  Stopwatch reduce_watch;
  {
  TRACE_SPAN("job.reduce");
  ParallelFor(pool, num_reduces, [&](std::size_t r) {
    TRACE_SPAN("reduce.task");
    bool succeeded = false;
    Stopwatch task_watch;
    for (int attempt = 0; attempt < config.max_task_attempts; ++attempt) {
      task_watch.Reset();
      if (AttemptFails(config.faults, /*kind=*/1, static_cast<uint32_t>(r),
                       attempt)) {
        ++reduce_failures;
        continue;
      }
      ReduceContextImpl<Out> ctx;
      Status st;
      {
        // Scope injected storage read faults to this attempt, salted with
        // the attempt number so a retry re-rolls its fault sites.
        ScopedStorageFaults storage_scope(
            &config.faults,
            Mix64((spill_run_id << 20) ^ 0x524544ull ^
                  (static_cast<uint64_t>(r) << 8) ^
                  static_cast<uint64_t>(attempt)));
        st = reduce_partition(reduce_inputs[r], ctx);
      }
      if (!st.ok()) {
        if (config.faults.storage_enabled() &&
            (st.IsIOError() || st.IsOutOfRange())) {
          // Detected storage corruption reading spilled segments (page
          // checksum mismatch, short read, or a region truncated by a torn
          // write): costs the attempt, never yields a wrong record.
          storage_detections.fetch_add(1, std::memory_order_relaxed);
          if (attempt + 1 < config.max_task_attempts) {
            ++reduce_failures;
            continue;
          }
        }
        record_error(st);
        return;
      }
      reduce_outputs[r] = std::move(ctx.records());
      reduce_counters[r].MergeFrom(ctx.task_counters());
      stats.reduce_task_seconds[r] = task_watch.ElapsedSeconds();
      succeeded = true;
      break;
    }
    if (!succeeded) {
      record_error(Status::Aborted(
          "reduce task " + std::to_string(r) + " exceeded max attempts"));
    }
  });
  }  // TRACE_SPAN("job.reduce")
  stats.reduce_seconds = reduce_watch.ElapsedSeconds();
  if (!first_error.ok()) return first_error;

  stats.reduce_task_failures = reduce_failures.load();
  stats.storage_fault_detections = storage_detections.load();
  for (const auto& c : reduce_counters) stats.counters.MergeFrom(c);

  for (auto& outs : reduce_outputs) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(outs.begin()),
                          std::make_move_iterator(outs.end()));
  }
  stats.total_seconds = total_watch.ElapsedSeconds();

  RecordJobMetrics(stats);

  SPQ_LOG_DEBUG << config.job_name << ": " << stats.input_records
                << " input, " << stats.map_output_records
                << " map-output, " << stats.shuffle_bytes
                << " shuffle bytes, " << stats.total_seconds << "s";
  return result;
}

}  // namespace internal

/// \brief Executes a MapReduce job on the simulated cluster.
///
/// Phases, mirroring Hadoop with an in-memory "network":
///  1. The input is split into `num_map_tasks` contiguous splits.
///  2. Map tasks run on `num_workers` threads. Each task partitions its
///     emissions with the job's Partitioner and lays each partition out as
///     a FlatSegment: records grouped by Traits::Bucket and each bucket
///     sorted on the integer order key — no comparison sort, no Codec.
///  3. Shuffle: each reduce partition collects its segment from every map
///     task; segment bytes are the job's shuffle traffic.
///  4. Reduce tasks merge their segments lazily through FlatMergeStream's
///     loser tree and invoke flat_reducer_factory's callable once per
///     group (one bucket) with zero-copy record views, with Hadoop
///     secondary-sort semantics; reducers may stop consuming a group early.
///
/// (K, V) must specialize FlatShuffleTraits (merge.h), which carries the
/// job's sort and grouping comparators.
///
/// Task attempts can fail via `config.faults`; failed attempts are retried
/// up to `config.max_task_attempts` times with their partial output,
/// counters and spill files discarded. Deterministic for fixed config,
/// spec, and input.
template <typename In, typename K, typename V, typename Out>
StatusOr<JobOutput<Out>> RunJob(const JobSpec<In, K, V, Out>& spec,
                                const JobConfig& config,
                                const std::vector<In>& input) {
  static_assert(FlatShuffleTraits<K, V>::kEnabled,
                "RunJob needs a FlatShuffleTraits<K, V> specialization");
  if (config.num_map_tasks == 0 || config.num_reduce_tasks == 0) {
    return Status::InvalidArgument("task counts must be >= 1");
  }
  if (!spec.mapper_factory || !spec.partitioner ||
      !spec.flat_reducer_factory) {
    return Status::InvalidArgument(
        "incomplete JobSpec: a job needs mapper_factory, partitioner and "
        "flat_reducer_factory");
  }
  auto reduce_partition =
      [&spec](const std::vector<const FlatSegment*>& segments,
              ReduceContext<Out>& ctx) {
        FlatMergeStream<K, V> stream(segments);
        auto reduce_group = spec.flat_reducer_factory();
        bool has = stream.Advance();
        while (has) {
          const K group_key = stream.key();
          FlatGroupCursor<K, V> cursor(&stream, stream.bucket());
          reduce_group(group_key, cursor, ctx);
          has = cursor.FinishGroup();
        }
        return stream.status();
      };
  return internal::RunJobWith(spec, config, input, reduce_partition);
}

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_RUNTIME_H_
