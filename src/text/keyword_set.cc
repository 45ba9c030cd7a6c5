#include "text/keyword_set.h"

#include <algorithm>

namespace spq::text {

namespace {

/// Linear sorted-merge intersection count.
std::size_t IntersectLinear(const TermId* a, std::size_t a_len,
                            const TermId* b, std::size_t b_len) {
  std::size_t count = 0;
  const TermId* ae = a + a_len;
  const TermId* be = b + b_len;
  while (a != ae && b != be) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

/// lower_bound with an exponential (galloping) probe phase: cheap when the
/// answer is near `first`, which it is when called once per element of the
/// shorter span while sweeping the longer one.
const TermId* GallopLowerBound(const TermId* first, const TermId* last,
                               TermId v) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  std::size_t bound = 1;
  while (bound < n && first[bound - 1] < v) bound <<= 1;
  const std::size_t lo = bound >> 1;  // first[lo - 1] < v (or lo == 0)
  const std::size_t hi = std::min(bound, n);
  return std::lower_bound(first + lo, first + hi, v);
}

/// Intersection count with `a` the (much) shorter span: sweep `a`, gallop
/// through `b`.
std::size_t IntersectGallop(const TermId* a, std::size_t a_len,
                            const TermId* b, std::size_t b_len) {
  std::size_t count = 0;
  const TermId* bpos = b;
  const TermId* bend = b + b_len;
  for (std::size_t i = 0; i < a_len && bpos != bend; ++i) {
    bpos = GallopLowerBound(bpos, bend, a[i]);
    if (bpos != bend && *bpos == a[i]) {
      ++count;
      ++bpos;
    }
  }
  return count;
}

/// Length ratio beyond which galloping beats the linear merge.
constexpr std::size_t kGallopRatio = 8;

}  // namespace

KeywordSet::KeywordSet(std::vector<TermId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

KeywordSet::KeywordSet(std::initializer_list<TermId> ids)
    : KeywordSet(std::vector<TermId>(ids)) {}

bool KeywordSet::Contains(TermId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

std::size_t KeywordSet::IntersectionSize(const KeywordSet& other) const {
  return SortedIntersectionSize(ids_.data(), ids_.size(), other.ids_.data(),
                                other.ids_.size());
}

std::size_t SortedIntersectionSize(const TermId* a, std::size_t a_len,
                                   const TermId* b, std::size_t b_len) {
  if (a_len > b_len) {
    std::swap(a, b);
    std::swap(a_len, b_len);
  }
  if (a_len == 0) return 0;
  if (b_len / a_len >= kGallopRatio) return IntersectGallop(a, a_len, b, b_len);
  return IntersectLinear(a, a_len, b, b_len);
}

std::size_t SortedIntersectionSize(const std::vector<TermId>& a,
                                   const std::vector<TermId>& b) {
  return SortedIntersectionSize(a.data(), a.size(), b.data(), b.size());
}

double JaccardSorted(const TermId* a, std::size_t a_len, const TermId* b,
                     std::size_t b_len) {
  const std::size_t inter = SortedIntersectionSize(a, a_len, b, b_len);
  const std::size_t uni = a_len + b_len - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardSorted(const std::vector<TermId>& a,
                     const std::vector<TermId>& b) {
  return JaccardSorted(a.data(), a.size(), b.data(), b.size());
}

double JaccardSortedBounded(const TermId* a, std::size_t a_len,
                            const TermId* b, std::size_t b_len,
                            double threshold) {
  // J = i / (|a| + |b| - i) is maximal at i = min(|a|, |b|), giving the
  // upper bound min / max. Below the threshold the exact value cannot
  // matter to a caller testing `score > threshold`.
  const std::size_t mn = std::min(a_len, b_len);
  const std::size_t mx = std::max(a_len, b_len);
  if (mx == 0) return 0.0;
  const double upper = static_cast<double>(mn) / static_cast<double>(mx);
  if (upper <= threshold) return upper;
  return JaccardSorted(a, a_len, b, b_len);
}

bool KeywordSet::Intersects(const KeywordSet& other) const {
  auto a = ids_.begin();
  auto b = other.ids_.begin();
  while (a != ids_.end() && b != other.ids_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace spq::text
