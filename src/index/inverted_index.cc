#include "index/inverted_index.h"

#include <algorithm>
#include <utility>

namespace spq::index {

namespace {

/// Bits of the term id one radix pass sorts on.
constexpr int kDigitBits = 16;

}  // namespace

InvertedIndex::InvertedIndex(const std::vector<core::FeatureObject>& features)
    : num_documents_(features.size()) {
  // (term << 32 | document) in document order, then an LSD radix sort on
  // the term half, kDigitBits per pass: stable passes keep each term's
  // documents ascending, and a digit that is the same for every pair is
  // skipped.
  std::size_t total = 0;
  for (const auto& f : features) total += f.keywords.size();
  std::vector<uint64_t> pairs;
  pairs.reserve(total);
  for (std::size_t d = 0; d < features.size(); ++d) {
    for (text::TermId term : features[d].keywords.ids()) {
      pairs.push_back((static_cast<uint64_t>(term) << 32) | d);
    }
  }
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<uint64_t> sorted(pairs.size());
  std::vector<std::size_t> next(std::size_t{1} << kDigitBits);
  for (int shift = 32; shift < 64; shift += kDigitBits) {
    std::fill(next.begin(), next.end(), 0);
    for (uint64_t p : pairs) ++next[(p >> shift) & kDigitMask];
    if (std::find(next.begin(), next.end(), pairs.size()) != next.end()) {
      continue;
    }
    std::size_t begin = 0;
    for (std::size_t& slot : next) begin += std::exchange(slot, begin);
    for (uint64_t p : pairs) sorted[next[(p >> shift) & kDigitMask]++] = p;
    pairs.swap(sorted);
  }
  documents_.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto term = static_cast<text::TermId>(pairs[i] >> 32);
    if (terms_.empty() || terms_.back() != term) {
      terms_.push_back(term);
      offsets_.push_back(i);
    }
    documents_[i] = static_cast<uint32_t>(pairs[i]);
  }
  offsets_.push_back(pairs.size());
}

std::vector<uint32_t> InvertedIndex::CandidatesFor(
    const text::KeywordSet& terms) const {
  std::vector<uint32_t> out;
  for (text::TermId term : terms.ids()) {
    const std::span<const uint32_t> postings = Postings(term);
    out.insert(out.end(), postings.begin(), postings.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::span<const uint32_t> InvertedIndex::Postings(text::TermId term) const {
  const auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  if (it == terms_.end() || *it != term) return {};
  const std::size_t t = static_cast<std::size_t>(it - terms_.begin());
  return {documents_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
}

}  // namespace spq::index
