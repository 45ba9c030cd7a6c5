#ifndef SPQ_TEXT_KEYWORD_SET_H_
#define SPQ_TEXT_KEYWORD_SET_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "text/vocabulary.h"

namespace spq::text {

/// \brief An immutable set of terms (sorted, deduplicated TermIds).
///
/// The canonical representation of both f.W (feature annotations) and q.W
/// (query keywords). Sortedness makes intersection/union linear merges.
class KeywordSet {
 public:
  KeywordSet() = default;

  /// Builds from arbitrary ids; sorts and deduplicates.
  explicit KeywordSet(std::vector<TermId> ids);
  KeywordSet(std::initializer_list<TermId> ids);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const std::vector<TermId>& ids() const { return ids_; }

  bool Contains(TermId id) const;

  /// |this ∩ other| via sorted merge.
  std::size_t IntersectionSize(const KeywordSet& other) const;

  /// True iff the sets share at least one term: the map-side pruning test
  /// of Algorithms 1/3/5 (line "x.W ∩ q.W ≠ ∅") in its plainest form, as
  /// the test oracles use it. The engine counts the overlap instead
  /// (SortedIntersectionSize on the cold path, term postings on the warm).
  bool Intersects(const KeywordSet& other) const;

  bool operator==(const KeywordSet& other) const { return ids_ == other.ids_; }

 private:
  std::vector<TermId> ids_;
};

/// |a ∩ b| of two *sorted unique* id spans (the wire form of a
/// KeywordSet). The cold mapper's one keyword test, and the core of the
/// reducers' Jaccard; works on shuffled keyword spans without re-wrapping
/// them. Falls back from the linear merge to a galloping (exponential +
/// binary search) scan of the longer span when the lengths are very
/// asymmetric, which turns O(|a| + |b|) into O(|a| log |b|) for the
/// short-query-vs-long-feature case.
std::size_t SortedIntersectionSize(const TermId* a, std::size_t a_len,
                                   const TermId* b, std::size_t b_len);
std::size_t SortedIntersectionSize(const std::vector<TermId>& a,
                                   const std::vector<TermId>& b);

/// Jaccard similarity of two sorted unique id spans; 0 when both empty.
double JaccardSorted(const TermId* a, std::size_t a_len, const TermId* b,
                     std::size_t b_len);
double JaccardSorted(const std::vector<TermId>& a,
                     const std::vector<TermId>& b);

/// Threshold-aware Jaccard: when the size-ratio upper bound
/// min(|a|,|b|) / max(|a|,|b|) already fails to exceed `threshold`, the
/// bound itself is returned without touching the elements. Callers that
/// only act on scores strictly greater than `threshold` (the reducers'
/// top-k pruning test) get identical behavior at a fraction of the cost;
/// callers that need the exact score must use JaccardSorted.
double JaccardSortedBounded(const TermId* a, std::size_t a_len,
                            const TermId* b, std::size_t b_len,
                            double threshold);

}  // namespace spq::text

#endif  // SPQ_TEXT_KEYWORD_SET_H_
