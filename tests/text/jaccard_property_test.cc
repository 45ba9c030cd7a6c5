// Property tests pinning the keyword-set fast paths against naive
// references:
//
//  - SortedIntersectionSize, the cold mapper's one test of x.W ∩ q.W ≠ ∅
//    (Algorithm 1 line 9): its galloping branch (engaged at length ratio
//    >= 8) vs a set-membership count;
//  - JaccardSorted vs the inter/union formula computed naively;
//  - JaccardSortedBounded's early exit: below-threshold calls return the
//    length-ratio upper bound WITHOUT touching elements, and callers that
//    act on `score > threshold` cannot distinguish it from the exact
//    function.

#include "text/keyword_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace spq::text {
namespace {

std::vector<TermId> RandomSortedUnique(std::mt19937_64& rng, std::size_t len,
                                       TermId universe) {
  std::set<TermId> s;
  std::uniform_int_distribution<TermId> d(0, universe);
  while (s.size() < len) s.insert(d(rng));
  return std::vector<TermId>(s.begin(), s.end());
}

std::size_t NaiveIntersection(const std::vector<TermId>& a,
                              const std::vector<TermId>& b) {
  const std::set<TermId> sb(b.begin(), b.end());
  std::size_t n = 0;
  for (TermId t : a) n += sb.count(t);
  return n;
}

double NaiveJaccard(const std::vector<TermId>& a,
                    const std::vector<TermId>& b) {
  const std::size_t inter = NaiveIntersection(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

TEST(JaccardPropertyTest, IntersectionMatchesNaiveAcrossLengthRatios) {
  std::mt19937_64 rng(987654321);
  // Adversarial ratios around the galloping cutover (8): balanced pairs,
  // just-below / at / far-beyond the ratio, and degenerate empties. Small
  // universes force dense overlap; large ones force sparse overlap.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 0},  {0, 17},  {1, 1},    {1, 7},    {1, 8},   {1, 9},
      {1, 1000}, {3, 24}, {4, 4},   {5, 40},   {5, 41},  {7, 700},
      {13, 104}, {16, 2048}, {64, 64}, {100, 800},
  };
  for (const auto& [la, lb] : shapes) {
    for (const TermId universe : {30u, 4000u, 1u << 20}) {
      if (la + lb > universe) continue;
      for (int rep = 0; rep < 4; ++rep) {
        const auto a = RandomSortedUnique(rng, la, universe);
        const auto b = RandomSortedUnique(rng, lb, universe);
        const std::size_t want = NaiveIntersection(a, b);
        // Both argument orders: the implementation swaps internally.
        EXPECT_EQ(want, SortedIntersectionSize(a, b))
            << la << "x" << lb << " universe=" << universe;
        EXPECT_EQ(want, SortedIntersectionSize(b, a))
            << lb << "x" << la << " universe=" << universe;
        EXPECT_EQ(NaiveJaccard(a, b), JaccardSorted(a, b));
      }
    }
  }
}

TEST(JaccardPropertyTest, GallopHitsEveryPositionPattern) {
  // The galloping probe's edge cases: needle before everything, between
  // every pair, equal to every element, after everything.
  const std::vector<TermId> b = {10, 20, 30, 40, 50, 60, 70, 80, 90,
                                 100, 110, 120, 130, 140, 150, 160};
  for (TermId needle = 0; needle <= 170; ++needle) {
    const std::vector<TermId> a = {needle};
    const std::size_t want = NaiveIntersection(a, b);
    EXPECT_EQ(want, SortedIntersectionSize(a, b)) << "needle=" << needle;
  }
}

TEST(JaccardPropertyTest, BoundedEarlyExitIsInvisibleToThresholdCallers) {
  std::mt19937_64 rng(246813579);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t la = rep % 11;            // 0..10, includes empty
    const std::size_t lb = 1 + (rep * 7) % 60;  // 1..60
    const auto a = RandomSortedUnique(rng, la, 200);
    const auto b = RandomSortedUnique(rng, lb, 200);
    const double exact = JaccardSorted(a.data(), a.size(), b.data(), b.size());
    const double upper =
        static_cast<double>(std::min(la, lb)) /
        static_cast<double>(std::max<std::size_t>(1, std::max(la, lb)));
    // Thresholds straddling the bound, including exactly AT it (the
    // boundary where the early exit fires: upper <= threshold).
    for (double threshold :
         {0.0, upper * 0.5, upper, std::nextafter(upper, 2.0), 0.99}) {
      const double got = JaccardSortedBounded(a.data(), a.size(), b.data(),
                                              b.size(), threshold);
      if (upper <= threshold) {
        EXPECT_EQ(upper, got) << "early exit must return the bound itself";
      } else {
        EXPECT_EQ(exact, got) << "above the bound the exact value is due";
      }
      // The caller contract: acting on `score > threshold` is identical.
      EXPECT_EQ(exact > threshold, got > threshold)
          << "la=" << la << " lb=" << lb << " t=" << threshold;
    }
  }
}

TEST(JaccardPropertyTest, BoundedHandlesEmptyInputs) {
  const std::vector<TermId> empty;
  const std::vector<TermId> some = {1, 5, 9};
  EXPECT_EQ(0.0, JaccardSortedBounded(empty.data(), 0, empty.data(), 0, 0.0));
  EXPECT_EQ(0.0, JaccardSortedBounded(empty.data(), 0, some.data(),
                                      some.size(), 0.0));
  EXPECT_EQ(0.0, JaccardSorted(empty, empty));
  EXPECT_EQ(0u, SortedIntersectionSize(empty, some));
}

}  // namespace
}  // namespace spq::text
