#ifndef SPQ_SPQ_TOPK_H_
#define SPQ_SPQ_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spq/types.h"

namespace spq::core {

/// \brief The sorted list L_k of Algorithms 2 and 4: the k data objects
/// with the best scores seen so far, plus the threshold τ (score of the
/// k-th best, 0 while fewer than k objects are tracked).
///
/// Scores only ever increase (τ(p) is a running max), so Update() either
/// raises an already-listed object or inserts a newcomer. The hot path —
/// a full list rejecting a candidate that cannot enter — is a single
/// comparison against the k-th entry; accepted updates sift into place
/// (no re-sort), so the worst case is O(k) with k ≤ 100 in the paper's
/// experiments. The selection is defined by the strict total order
/// ResultBetter, so the entries are independent of update order.
class TopKList {
 public:
  explicit TopKList(uint32_t k) : k_(k) {}

  /// Records that object `id` reached `score`. No-op when the score cannot
  /// enter the current top-k.
  void Update(ObjectId id, double score) {
    if (k_ == 0) return;  // degenerate list tracks nothing
    const ResultEntry candidate{id, score};
    if (entries_.size() >= k_ && !ResultBetter(candidate, entries_.back())) {
      // Cannot beat the k-th entry. A listed object is never rejected
      // here by mistake: its tracked score is >= entries_.back().score,
      // so any *raise* of it beats the back entry.
      return;
    }
    // Already tracked? Raise its score and restore order.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        if (score > entries_[i].score) {
          entries_[i].score = score;
          SiftUp(i);
        }
        return;
      }
    }
    if (entries_.size() < k_) {
      entries_.push_back(candidate);
    } else {
      entries_.back() = candidate;
    }
    SiftUp(entries_.size() - 1);
  }

  /// τ — the k-th best score so far; 0 until k objects are tracked.
  /// Any unseen feature with w(f,q) <= τ cannot change the membership of
  /// the top-k list (it could only create ties).
  double Threshold() const {
    return entries_.size() < k_ ? 0.0 : entries_.back().score;
  }

  const std::vector<ResultEntry>& entries() const { return entries_; }
  bool full() const { return entries_.size() >= k_; }
  uint32_t k() const { return k_; }

 private:
  /// Moves entry i forward to its sorted position (it can only have
  /// improved).
  void SiftUp(std::size_t i) {
    while (i > 0 && ResultBetter(entries_[i], entries_[i - 1])) {
      std::swap(entries_[i], entries_[i - 1]);
      --i;
    }
  }

  uint32_t k_;
  std::vector<ResultEntry> entries_;  // kept sorted by ResultBetter
};

/// Merges per-cell result lists into the global top-k (the cheap
/// centralized final step of Section 4.2). Deduplication is unnecessary —
/// each data object belongs to exactly one cell — but entries are ordered
/// deterministically (score desc, id asc).
inline std::vector<ResultEntry> MergeTopK(std::vector<ResultEntry> candidates,
                                          uint32_t k) {
  // Select-then-sort instead of a full sort: ResultBetter is a strict
  // total order (ids are distinct — each data object belongs to exactly
  // one cell), so the k selected entries and their order are identical to
  // the full sort's prefix, at O(n + k log k) instead of O(n log n). The
  // candidate list is every per-group top-k a query's reduce tasks
  // emitted, so n >> k on any multi-cell query.
  if (candidates.size() > k) {
    std::nth_element(candidates.begin(), candidates.begin() + k,
                     candidates.end(), ResultBetter);
    candidates.resize(k);
    // The caller keeps the result: release the candidate-sized buffer.
    candidates.shrink_to_fit();
  }
  std::sort(candidates.begin(), candidates.end(), ResultBetter);
  return candidates;
}

}  // namespace spq::core

#endif  // SPQ_SPQ_TOPK_H_
