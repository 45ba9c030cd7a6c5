#ifndef SPQ_INDEX_INVERTED_INDEX_H_
#define SPQ_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "spq/types.h"
#include "text/keyword_set.h"
#include "text/vocabulary.h"

namespace spq::index {

/// \brief Term -> feature-index postings over the feature objects F.
///
/// The textual half of a centralized spatio-textual index (the paper's
/// related work [14, 16, 17] evaluates SPQ centrally over such indexes).
/// The indexed centralized baseline uses it to enumerate only the feature
/// objects that share at least one term with q.W, instead of scanning F,
/// and the engine's warm route drives its feature map from it
/// (RunWarmQuery in spq/cell_store.h).
///
/// Layout: compressed sparse rows keyed by the DISTINCT terms that occur.
///   - `terms_`: the distinct term ids, ascending;
///   - `offsets_`: terms_.size() + 1 entries; the postings of terms_[t]
///     are documents_[offsets_[t], offsets_[t + 1]);
///   - `documents_`: each term's document ids, ascending.
/// Nothing is sized by the largest term id, so a corpus that uses term
/// 2^32 - 1 costs what one using term 0 does. The build is an LSD radix
/// sort of (term, document) pairs, 16 bits of the term per pass; a pass
/// whose digit every pair shares is skipped, so the ids of any
/// text::Vocabulary of up to 65,536 terms sort in one pass. A lookup is a
/// binary search over `terms_`. The index is immutable once built.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Builds postings over F; document ids are positions in `features`.
  /// Each feature's keyword set is read in place (none is copied), and
  /// the build is O(total postings).
  explicit InvertedIndex(const std::vector<core::FeatureObject>& features);

  /// Document ids sharing at least one term with `terms`, deduplicated,
  /// ascending. Exactly the map-side prefilter's survivor set.
  std::vector<uint32_t> CandidatesFor(const text::KeywordSet& terms) const;

  /// Posting list of one term, ascending (empty when absent).
  std::span<const uint32_t> Postings(text::TermId term) const;

  std::size_t num_terms() const { return terms_.size(); }
  std::size_t num_documents() const { return num_documents_; }

 private:
  std::vector<text::TermId> terms_;
  std::vector<std::size_t> offsets_;
  std::vector<uint32_t> documents_;
  std::size_t num_documents_ = 0;
};

}  // namespace spq::index

#endif  // SPQ_INDEX_INVERTED_INDEX_H_
