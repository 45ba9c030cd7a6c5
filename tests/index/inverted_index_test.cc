#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"

namespace spq::index {
namespace {

using text::KeywordSet;
using text::TermId;

constexpr TermId kMaxTerm = std::numeric_limits<TermId>::max();

/// The index over one feature per keyword set, in order.
InvertedIndex IndexOf(const std::vector<KeywordSet>& docs) {
  std::vector<core::FeatureObject> features(docs.size());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    features[d].id = d;
    features[d].keywords = docs[d];
  }
  return InvertedIndex(features);
}

std::vector<uint32_t> PostingsOf(const InvertedIndex& index, TermId term) {
  const std::span<const uint32_t> postings = index.Postings(term);
  return {postings.begin(), postings.end()};
}

/// Postings of `term` by a scan of the corpus.
std::vector<uint32_t> ScanPostings(const std::vector<KeywordSet>& docs,
                                   TermId term) {
  std::vector<uint32_t> out;
  for (uint32_t d = 0; d < docs.size(); ++d) {
    if (docs[d].Contains(term)) out.push_back(d);
  }
  return out;
}

TEST(InvertedIndexTest, EmptyCorpus) {
  const InvertedIndex index = IndexOf({});
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.num_terms(), 0u);
  EXPECT_TRUE(index.CandidatesFor(KeywordSet({1, 2})).empty());
  EXPECT_TRUE(index.Postings(5).empty());
}

TEST(InvertedIndexTest, PostingsAreSortedDocumentIds) {
  std::vector<KeywordSet> docs{KeywordSet({1, 2}), KeywordSet({2, 3}),
                               KeywordSet({1, 3})};
  const InvertedIndex index = IndexOf(docs);
  EXPECT_EQ(PostingsOf(index, 1), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(PostingsOf(index, 2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(PostingsOf(index, 3), (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(index.Postings(9).empty());
  EXPECT_EQ(index.num_terms(), 3u);
}

TEST(InvertedIndexTest, CandidatesAreUnionWithoutDuplicates) {
  std::vector<KeywordSet> docs{KeywordSet({1, 2}), KeywordSet({2}),
                               KeywordSet({3}), KeywordSet({4})};
  const InvertedIndex index = IndexOf(docs);
  // Query {1, 2}: docs 0 (both terms — must appear once) and 1.
  EXPECT_EQ(index.CandidatesFor(KeywordSet({1, 2})),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(index.CandidatesFor(KeywordSet({9})).empty());
  EXPECT_TRUE(index.CandidatesFor(KeywordSet()).empty());
}

TEST(InvertedIndexTest, CandidatesMatchLinearScan) {
  Rng rng(77);
  std::vector<KeywordSet> docs;
  for (int d = 0; d < 500; ++d) {
    std::vector<TermId> ids;
    const int n = 1 + static_cast<int>(rng.NextUint32(10));
    for (int i = 0; i < n; ++i) ids.push_back(rng.NextUint32(60));
    docs.emplace_back(std::move(ids));
  }
  const InvertedIndex index = IndexOf(docs);
  for (int trial = 0; trial < 50; ++trial) {
    KeywordSet query({rng.NextUint32(60), rng.NextUint32(60)});
    std::vector<uint32_t> expected;
    for (uint32_t d = 0; d < docs.size(); ++d) {
      if (docs[d].Intersects(query)) expected.push_back(d);
    }
    EXPECT_EQ(index.CandidatesFor(query), expected) << "trial " << trial;
  }
}

// Term ids up to 2^32 - 1: the layout stays keyed by the terms that occur
// (nothing sized by the largest id), and every term's documents stay
// ascending. The pools drive the radix passes: ids 0 .. 2^32 - 1 differ in
// both 16-bit digits; at the top of the id space, a span of 65,535 ids
// shares its high digit (that pass is skipped) and a span of 65,536 does
// not.
TEST(InvertedIndexTest, TermIdsUpToMaxKeepPostingsAscending) {
  const std::vector<std::vector<TermId>> pools = {
      {0, 1, 255, 256, 65'535, 65'536, 1u << 24, 0x7fff'ffff, kMaxTerm - 1,
       kMaxTerm},
      {kMaxTerm - 65'535, kMaxTerm - 65'534, kMaxTerm - 65'280, kMaxTerm - 1,
       kMaxTerm},
      {kMaxTerm - 65'536, kMaxTerm - 65'535, kMaxTerm - 65'281, kMaxTerm - 1,
       kMaxTerm},
  };
  Rng rng(91);
  for (const std::vector<TermId>& pool : pools) {
    const TermId low = pool.front();
    std::vector<KeywordSet> docs{KeywordSet(pool)};
    for (int d = 0; d < 300; ++d) {
      std::vector<TermId> ids;
      const int n = static_cast<int>(rng.NextUint32(5));  // empty sets too
      for (int i = 0; i < n; ++i) {
        ids.push_back(pool[rng.NextUint32(pool.size())]);
      }
      docs.emplace_back(std::move(ids));
    }
    docs.push_back(KeywordSet({kMaxTerm}));
    const InvertedIndex index = IndexOf(docs);
    EXPECT_EQ(index.num_documents(), docs.size()) << "low " << low;
    EXPECT_EQ(index.num_terms(), pool.size()) << "low " << low;
    for (TermId term : pool) {
      EXPECT_EQ(PostingsOf(index, term), ScanPostings(docs, term))
          << "low " << low << ", term " << term;
    }
    EXPECT_EQ(PostingsOf(index, kMaxTerm).back(), docs.size() - 1);
    EXPECT_TRUE(index.Postings(kMaxTerm - 2).empty()) << "low " << low;
    EXPECT_TRUE(index.Postings(low + 2).empty()) << "low " << low;
    EXPECT_EQ(index.CandidatesFor(KeywordSet({kMaxTerm})),
              ScanPostings(docs, kMaxTerm))
        << "low " << low;
  }
}

}  // namespace
}  // namespace spq::index
