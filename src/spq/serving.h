#ifndef SPQ_SPQ_SERVING_H_
#define SPQ_SPQ_SERVING_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/statusor.h"
#include "spq/engine.h"

namespace spq::core {

/// \brief Aggregate measurements of the front door since construction —
/// a thin point-in-time VIEW assembled by stats() from the door's
/// metrics::Counter tallies (the same primitives the process-wide
/// registry serves; the door mirrors every tally into the registry's
/// `spq.serving.*` metrics, so DumpMetrics() sees cross-door totals).
/// `submitted` is DERIVED as admitted + rejected at read time: a Submit()
/// in flight is counted in neither yet, so the decomposition
/// submitted == admitted + rejected holds for every read — there is no
/// torn window where a submission is visible in `submitted` but in
/// neither outcome counter.
struct ServingStats {
  uint64_t submitted = 0;  ///< Submit() calls (== admitted + rejected)
  uint64_t admitted = 0;   ///< accepted into the admission queue
  /// Answered at Submit() without admission: Unavailable when the queue
  /// is full or the door is shut down, InvalidArgument for an invalid
  /// query (ValidateQuery).
  uint64_t rejected = 0;
  /// Admitted queries that shared their batch job with at least one other
  /// query — the coalescing the front door exists for.
  uint64_t coalesced = 0;
  uint64_t batches = 0;       ///< warm batch/single jobs dispatched
  uint64_t cold_routed = 0;   ///< oversized-radius queries served solo (cold)
  /// batch_size_hist[s] = number of dispatched warm jobs that served
  /// exactly s queries (s = 1..max_batch; index 0 unused).
  std::vector<uint64_t> batch_size_hist;
};

/// \brief Admission/batching front door over a warm SpqEngine: concurrent
/// Query() callers are coalesced into shared QueryBatch jobs.
///
/// Why: one warm query pays its own feature-side map pass and dispatch; a
/// batch of B queries shares one pass over the feature splits and one
/// dispatch on the engine's pool (RunWarmBatch in cell_store.h), so under
/// concurrent load the per-query cost drops toward the marginal join cost.
/// The front door turns independent callers into batches without changing
/// results: a coalesced query returns exactly the entries the same
/// engine.Query() would have produced (pinned by the serving and store
/// equivalence tests).
///
/// Mechanics (knobs in EngineOptions::serving):
///   - Submit() appends to a bounded admission queue and returns a future.
///     A full (or shut down) queue rejects immediately with Unavailable —
///     backpressure is explicit and counted, never an unbounded buffer. An
///     invalid query resolves at once to ValidateQuery's InvalidArgument
///     and is never admitted, so it cannot fail its would-be batchmates.
///   - One executor thread drains the queue, one batch job at a time (the
///     job itself runs on the engine's worker pool): a batch closes when
///     it reaches max_batch queries or the oldest admitted query has
///     waited max_wait_ms, whichever comes first. A lone caller therefore
///     pays at most the wait budget on an idle door.
///   - A batch is a single-algorithm job: the drained run is grouped by
///     algorithm (a mixed queue closes at the algorithm boundary).
///   - Oversized-radius queries (radius > store build radius) are routed
///     individually through engine.Query()'s loud cold fallback rather
///     than dragging the whole batch onto the cold path.
///   - Shutdown() (and the destructor) stops admission, serves what was
///     already admitted, then joins the executor — an admitted query's
///     future is always fulfilled.
///
/// Thread safety: Submit()/Query()/stats() may be called from any thread.
/// The engine reference must stay valid for the door's lifetime, and the
/// engine must have a store (Submit rejects otherwise). Store swaps
/// (BuildStore/OpenStore) under live traffic are safe — each dispatched
/// job pins the snapshot it starts on (see SpqEngine).
class SpqFrontDoor {
 public:
  /// The door serves `engine` with per-query algorithms chosen at
  /// Submit() time. Spawns the one executor thread.
  explicit SpqFrontDoor(const SpqEngine& engine);
  ~SpqFrontDoor();

  SpqFrontDoor(const SpqFrontDoor&) = delete;
  SpqFrontDoor& operator=(const SpqFrontDoor&) = delete;

  /// Admits one query; the future resolves to the same result
  /// engine.Query(query, algo) would return (for coalesced queries,
  /// SpqRunInfo carries the SHARED batch job's stats). Rejects with
  /// Unavailable when the queue is at capacity or the door is stopped, and
  /// with InvalidArgument when ValidateQuery fails.
  std::future<StatusOr<SpqResult>> Submit(const core::Query& query,
                                          Algorithm algo);

  /// Blocking convenience: Submit + wait.
  StatusOr<SpqResult> Query(const core::Query& query, Algorithm algo);

  /// Stops admission, serves every already admitted query, joins the
  /// executor. Idempotent.
  void Shutdown();

  /// Point-in-time copy of the counters.
  ServingStats stats() const;

 private:
  struct Pending {
    core::Query query;
    Algorithm algo = Algorithm::kPSPQ;
    std::promise<StatusOr<SpqResult>> promise;
    /// Admission timestamp on the process clock (metrics::Clock — the
    /// queue-wait histogram and the batch-close deadline read the same
    /// source).
    metrics::Clock::time_point admitted_at;
  };

  void ExecutorLoop();
  /// Serves one drained run of same-algorithm queries (executor thread).
  void ServeBatch(std::vector<Pending> batch);

  const SpqEngine& engine_;
  const ServingOptions opts_;

  std::mutex mu_;
  std::condition_variable queue_cv_;  ///< the executor waits for work / stop
  std::deque<Pending> queue_;
  bool stopping_ = false;
  /// Serializes concurrent Shutdown() calls (destructor vs explicit).
  std::mutex shutdown_mu_;

  // Counter contract: see ServingStats. Per-door metrics::Counter tallies
  // (stats() stays exact per door even when several doors share the
  // process); every increment is mirrored into the global registry's
  // spq.serving.* metrics. There is no submitted_ tally — stats()
  // derives it, which is what closes the torn-read window.
  // batch_size_hist_ is sized once in the constructor (max_batch + 1
  // slots), so the executor indexes it without locks.
  metrics::Counter admitted_;
  metrics::Counter rejected_;
  metrics::Counter coalesced_;
  metrics::Counter batches_;
  metrics::Counter cold_routed_;
  std::vector<metrics::Counter> batch_size_hist_;

  /// Declared last: it runs ExecutorLoop, which uses every member above.
  std::thread executor_;
};

}  // namespace spq::core

#endif  // SPQ_SPQ_SERVING_H_
