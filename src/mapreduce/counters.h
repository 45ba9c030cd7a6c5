#ifndef SPQ_MAPREDUCE_COUNTERS_H_
#define SPQ_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace spq::mapreduce {

/// \brief Named monotonic counters, in the spirit of Hadoop job counters.
///
/// Tasks increment thread-locally cheap copies (one Counters per task
/// attempt) and the runtime merges successful attempts into the job-level
/// instance, so a failed-and-retried task never double counts.
class Counters {
 public:
  Counters() = default;

  // Copyable and movable (value semantics over the snapshot) so that
  // JobStats can be returned by value; the mutex itself is not copied.
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other);
  Counters(Counters&& other) noexcept : values_(other.Snapshot()) {}
  Counters& operator=(Counters&& other) noexcept;

  /// Name-sorted counter values. Transparent comparator: lookups by
  /// string_view (the counter-name literals) allocate nothing.
  using Values = std::map<std::string, uint64_t, std::less<>>;

  /// Adds `delta` to counter `name` (creating it at zero).
  void Increment(std::string_view name, uint64_t delta = 1);

  /// Current value of `name`, or 0 when never incremented.
  uint64_t Get(std::string_view name) const;

  /// Merges all counters of `other` into this one.
  void MergeFrom(const Counters& other);

  /// Snapshot of all counters, sorted by name.
  Values Snapshot() const;

 private:
  mutable std::mutex mutex_;
  Values values_;
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_COUNTERS_H_
