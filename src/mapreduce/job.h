#ifndef SPQ_MAPREDUCE_JOB_H_
#define SPQ_MAPREDUCE_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/fault.h"

namespace spq::mapreduce {

/// \brief Static configuration of a MapReduce job run.
///
/// `num_reduce_tasks` is the R of the paper — one reduce partition per grid
/// cell when R == number of cells. `num_workers` is the simulated cluster
/// parallelism: how many task slots execute concurrently. Hadoop separates
/// these the same way (tasks vs. containers).
struct JobConfig {
  uint32_t num_map_tasks = 8;
  uint32_t num_reduce_tasks = 8;
  uint32_t num_workers = 8;
  /// Maximum attempts per task before the job aborts (Hadoop default: 4).
  int max_task_attempts = 4;
  FaultSpec faults;
  std::string job_name = "job";
  /// When non-empty, sorted map-output segments are spilled to files under
  /// this directory and read back in the reduce phase (out-of-core
  /// shuffle). Files are removed when the job finishes.
  std::string spill_dir;
};

/// \brief Everything the runtime measures about one job execution.
struct JobStats {
  double map_seconds = 0.0;
  double reduce_seconds = 0.0;
  double total_seconds = 0.0;

  uint64_t input_records = 0;
  uint64_t map_output_records = 0;
  /// Bytes crossing the simulated network in the shuffle (sum over all
  /// sorted map-output segments).
  uint64_t shuffle_bytes = 0;

  /// Per reduce-partition record counts — the skew the paper's clustered
  /// experiment stresses.
  std::vector<uint64_t> reduce_input_records;
  /// Wall time of each task's successful attempt.
  std::vector<double> map_task_seconds;
  std::vector<double> reduce_task_seconds;

  uint32_t map_task_failures = 0;
  uint32_t reduce_task_failures = 0;
  /// Injected (or real) storage corruptions the CRC framing caught and the
  /// retry machinery recovered from: spill writes that failed their
  /// verify-after-write, and reduce-side spill reads that hit a short read
  /// or page checksum mismatch. Each one cost a task attempt, never a
  /// wrong record.
  uint32_t storage_fault_detections = 0;

  Counters counters;

  uint64_t MaxReduceRecords() const {
    uint64_t m = 0;
    for (uint64_t v : reduce_input_records) m = std::max(m, v);
    return m;
  }

  /// max/mean reduce partition size; 1.0 = perfectly balanced.
  double ReduceSkew() const {
    if (reduce_input_records.empty()) return 1.0;
    uint64_t total = 0;
    for (uint64_t v : reduce_input_records) total += v;
    if (total == 0) return 1.0;
    const double mean =
        static_cast<double>(total) / reduce_input_records.size();
    return static_cast<double>(MaxReduceRecords()) / mean;
  }

  /// max/mean successful reduce attempt wall time; the straggler factor
  /// that determines job completion when all tasks run in one wave.
  double ReduceStragglerRatio() const;

  /// Longest single reduce task, seconds.
  double MaxReduceTaskSeconds() const;
};

/// Multi-line human-readable dump of the stats (used by examples/benches).
std::string FormatJobStats(const JobStats& stats);

/// \brief Map-side emitter handed to Mapper::Map.
template <typename K, typename V>
class MapContext {
 public:
  virtual ~MapContext() = default;
  /// Emits one intermediate record. The value is copied into the task's
  /// partition buffers and serialized when the attempt's segments are laid
  /// out; a value holding borrowed storage (e.g. a ShuffleObject keyword
  /// span aliasing the map input — the O(1) duplication path) is therefore
  /// legal as long as the borrowed storage outlives the job, which the
  /// runtime guarantees for its input records.
  virtual void Emit(const K& key, const V& value) = 0;
  /// Task-local counters (merged into JobStats on attempt success).
  virtual Counters& counters() = 0;
};

/// \brief User map function: input record -> zero or more (K, V) pairs.
template <typename In, typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(const In& record, MapContext<K, V>& ctx) = 0;
};

/// \brief Reduce-side emitter.
template <typename Out>
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  virtual void Emit(const Out& record) = 0;
  virtual Counters& counters() = 0;
};

/// Group cursor of the shuffle, defined in merge.h. Its value() returns
/// FlatShuffleTraits<K, V>::View — a zero-copy view into the segment
/// arena — instead of a decoded V.
template <typename K, typename V>
class FlatGroupCursor;

/// \brief Full description of a job: user logic plus the three pluggable
/// Hadoop customization points the paper relies on (Section 2.1): the
/// Partitioner, the sort Comparator and the grouping Comparator.
///
/// The partitioner is a field here. The two comparators are not: the
/// (K, V) FlatShuffleTraits specialization (merge.h) carries them as a
/// radix decomposition of the key — records sort by (bucket, order key)
/// and a reduce group is one bucket. RunJob (runtime.h) requires that
/// specialization and all three fields below.
template <typename In, typename K, typename V, typename Out>
struct JobSpec {
  std::function<std::unique_ptr<Mapper<In, K, V>>()> mapper_factory;
  /// key -> reduce partition in [0, num_reduce_tasks).
  std::function<uint32_t(const K&, uint32_t)> partitioner;

  /// Reduce entry point. The outer factory runs once per reduce attempt
  /// (stateful reducers capture their state in the returned callable); the
  /// inner callable runs once per group with a zero-copy cursor that
  /// delivers the group's values in sort order (Hadoop secondary sort). A
  /// reducer that returns without draining the cursor terminates the group
  /// early; the runtime skips the remaining values. The dispatch cost is
  /// one std::function call per *group*; every per-record call inside the
  /// cursor is direct.
  using FlatReduceFn =
      std::function<void(const K&, FlatGroupCursor<K, V>&, ReduceContext<Out>&)>;
  std::function<FlatReduceFn()> flat_reducer_factory;
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_JOB_H_
