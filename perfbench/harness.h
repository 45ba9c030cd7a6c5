// Helpers of the SPQ benchmark that carry a rule worth testing on its own:
// the tail-percentile rule, the seeded Poisson arrival schedule, the
// oracle comparator (scores per rank, ids only where no tie can hide
// them) and the additive layer split of one call's wall time.

#ifndef SPQ_PERFBENCH_HARNESS_H_
#define SPQ_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/job.h"
#include "spq/types.h"

namespace spq::perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

/// The highest candidate quantile (0.999, 0.995, 0.99, 0.98, 0.95, 0.9,
/// 0.75, 0.5) not above `cap` that leaves at least kMinSamplesBeyondTail
/// of `n` samples beyond it. Falls back to 0.5 when even the median has
/// fewer than ten samples beyond it.
double TailQuantile(std::size_t n, double cap = 0.999);

/// Exact q-quantile of `samples` (the library's interpolating rule).
double Quantile(std::vector<double> samples, double q);

/// Send offsets, in seconds from the schedule start, of a Poisson process
/// with `rate_per_s` arrivals per second over [0, duration_s). Depends only
/// on its arguments, so a seed fixes the schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Checks an engine answer against the oracle's. Both lists are in result
/// order (score descending, id ascending). The answer must have the
/// oracle's length and the same score at every rank. Ids must match as a
/// set inside every run of tied scores that ends before the last rank;
/// the last run may hold any objects of that score, because the top-k cut
/// can fall inside a tie. Returns "" on a match, else what differs.
std::string CompareTopK(const std::vector<core::ResultEntry>& got,
                        const std::vector<core::ResultEntry>& want);

/// One call's wall time split into layers that add up to it:
/// outside (time before the engine call began, e.g. queueing at the front
/// door) + engine (call wall minus the MapReduce job) + map + shuffle
/// (job total minus map and reduce) + reduce. All in seconds.
struct LayerSplit {
  double outside = 0.0;
  double engine = 0.0;
  double map = 0.0;
  double shuffle = 0.0;
  double reduce = 0.0;

  double Total() const { return outside + engine + map + shuffle + reduce; }
};

/// Splits `latency_s` (what the caller saw) of a request whose engine call
/// took `call_s` and ran the job described by `job`. A direct call passes
/// call_s == latency_s.
LayerSplit SplitLayers(double latency_s, double call_s,
                       const mapreduce::JobStats& job);

}  // namespace spq::perfbench

#endif  // SPQ_PERFBENCH_HARNESS_H_
