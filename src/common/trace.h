#ifndef SPQ_COMMON_TRACE_H_
#define SPQ_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/metrics.h"

namespace spq::trace {

// -------------------------------------------------------- span inventory ---
// Every TRACE_SPAN site on the request path, by component (names follow
// the metric naming scheme of common/metrics.h; the matching metrics are
// inventoried there). One traced warm batch shows the whole chain nested:
// door.admit → door.batch_close → door.serve_batch → query.warm_batch →
// job.run → job.map/shuffle/reduce → reduce.join per group.
//
//   door.admit / door.batch_close / door.serve_batch
//                     — SpqFrontDoor: admission, executor batch cutoff
//                       (locked drain), batch dispatch (spq/serving.cc)
//   query.warm / query.warm_batch / query.snapshot_pin
//                     — SpqEngine::Query / QueryBatch, and the RCU
//                       snapshot pin inside each (spq/engine.cc)
//   store.build / store.publish
//                     — BuildStore dataset job; snapshot swap publication
//   store.materialize / store.compact
//                     — CellStore::Serve first touch (a query's or a
//                       mutation's); a mutated partition's compaction
//   store.checkpoint / store.recover
//                     — whole-store persistence (spq/cell_store.cc)
//   job.run / job.map / job.shuffle / job.reduce / map.task / reduce.task
//                     — mapreduce runtime phases and per-task spans
//                       (mapreduce/runtime.h), and the same phases of the
//                       warm route (spq/cell_store.cc)
//   reduce.join       — one per reduce GROUP (spq/reduce_core.h): the
//                       finest-grained span, which is why the disabled
//                       cost — one relaxed load + branch — is gated in
//                       bench_store at <= 3% of warm p50.
//   wal.append / wal.replay
//                     — StoreWal record I/O (spq/wal.cc)

/// One completed span. `name` must be a string literal (or otherwise
/// outlive the tracer) — the ring stores the pointer, not a copy, so a
/// disabled-then-drained tracer never owns heap strings.
struct SpanEvent {
  const char* name = nullptr;
  uint32_t tid = 0;       ///< per-thread ring id (dense, first-touch order)
  uint64_t start_ns = 0;  ///< metrics::NowNanos() at span open
  uint64_t dur_ns = 0;
};

namespace internal {
extern std::atomic<bool> g_enabled;
void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns);
}  // namespace internal

/// Whether spans are being captured. The disabled fast path — one relaxed
/// load and a branch — is the tracer's entire cost on the warm hot loop
/// (gated in bench_store: unmeasurable against warm p50).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns capture on/off. Off is the default; SPQ_TRACE=1 in the
/// environment turns it on at process start (see EnvObservability).
void SetEnabled(bool enabled);

/// Discards every buffered span (capture state unchanged). Typical
/// capture protocol: Clear(); SetEnabled(true); …work…; SetEnabled(false);
/// ExportChromeTrace(os).
void Clear();

/// Merged copy of every thread's buffered spans, sorted by start time.
std::vector<SpanEvent> Collect();

/// Spans dropped because a thread's ring was full (rings keep the
/// EARLIEST spans of a capture — drop-newest — so the head of a capture
/// window is always intact).
uint64_t DroppedSpans();

/// chrome://tracing / Perfetto-loadable JSON: one complete event
/// ("ph":"X") per span, timestamps in microseconds.
void ExportChromeTrace(std::ostream& os);

/// One JSON object per line (jq/grep-friendly): name, tid, start_ns,
/// dur_ns.
void ExportJsonl(std::ostream& os);

/// RAII span: captures NowNanos() at construction and records on scope
/// exit — when tracing was enabled at construction (a capture toggling
/// mid-span records it; one toggled off mid-span is still recorded —
/// harmless either way, the enable check is construction-time only).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Enabled()) {
      name_ = name;
      start_ns_ = metrics::NowNanos();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, start_ns_, metrics::NowNanos() - start_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

#define SPQ_TRACE_CONCAT_INNER(a, b) a##b
#define SPQ_TRACE_CONCAT(a, b) SPQ_TRACE_CONCAT_INNER(a, b)

/// Scoped span over the rest of the enclosing block. `name` must be a
/// string literal; use dotted lowercase ("reduce.join", "store.compact")
/// matching the metric naming scheme.
#define TRACE_SPAN(name) \
  ::spq::trace::ScopedSpan SPQ_TRACE_CONCAT(spq_trace_span_, __LINE__)(name)

}  // namespace spq::trace

#endif  // SPQ_COMMON_TRACE_H_
