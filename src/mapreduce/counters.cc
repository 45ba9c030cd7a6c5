#include "mapreduce/counters.h"

namespace spq::mapreduce {

Counters& Counters::operator=(const Counters& other) {
  if (this == &other) return *this;
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  values_ = std::move(snapshot);
  return *this;
}

Counters& Counters::operator=(Counters&& other) noexcept {
  return *this = other;  // delegate to copy-assign (snapshot under lock)
}

void Counters::Increment(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = values_.find(name);
  if (it == values_.end()) it = values_.emplace(std::string(name), 0).first;
  it->second += delta;
}

uint64_t Counters::Get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Counters::MergeFrom(const Counters& other) {
  Values snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, value] : snapshot) values_[name] += value;
}

Counters::Values Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_;
}

}  // namespace spq::mapreduce
