#include "spq/shuffle_types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"

namespace spq::core {
namespace {

TEST(CellKeySortTest, CellIsThePrimaryComponent) {
  EXPECT_TRUE(CellKeySortLess({1, 9.0}, {2, 0.0}));
  EXPECT_FALSE(CellKeySortLess({2, 0.0}, {1, 9.0}));
}

TEST(CellKeySortTest, OrderBreaksTiesWithinCell) {
  EXPECT_TRUE(CellKeySortLess({5, 0.0}, {5, 1.0}));
  EXPECT_FALSE(CellKeySortLess({5, 1.0}, {5, 0.0}));
  EXPECT_FALSE(CellKeySortLess({5, 1.0}, {5, 1.0}));  // irreflexive
}

TEST(CellKeySortTest, GroupEqualIgnoresOrder) {
  EXPECT_TRUE(CellKeyGroupEqual({3, 0.1}, {3, 0.9}));
  EXPECT_FALSE(CellKeyGroupEqual({3, 0.1}, {4, 0.1}));
}

TEST(CellKeySortTest, PspqTagOrderPutsDataFirst) {
  // pSPQ: data objects carry 0, features 1.
  std::vector<CellKey> keys{{7, 1.0}, {7, 0.0}, {7, 1.0}, {7, 0.0}};
  std::sort(keys.begin(), keys.end(), CellKeySortLess);
  EXPECT_DOUBLE_EQ(keys[0].order, 0.0);
  EXPECT_DOUBLE_EQ(keys[1].order, 0.0);
  EXPECT_DOUBLE_EQ(keys[2].order, 1.0);
}

TEST(CellKeySortTest, EspqLenOrderIsIncreasingKeywordLength) {
  // eSPQlen: data 0, features |f.W| >= 1; shorter feature lists first.
  std::vector<CellKey> keys{{7, 12.0}, {7, 0.0}, {7, 3.0}, {7, 1.0}};
  std::sort(keys.begin(), keys.end(), CellKeySortLess);
  EXPECT_DOUBLE_EQ(keys[0].order, 0.0);   // the data object
  EXPECT_DOUBLE_EQ(keys[1].order, 1.0);
  EXPECT_DOUBLE_EQ(keys[2].order, 3.0);
  EXPECT_DOUBLE_EQ(keys[3].order, 12.0);
}

TEST(CellKeySortTest, EspqScoOrderIsDecreasingScoreWithDataFirst) {
  // eSPQsco: data objects carry kDataOrderScore (< -1), features -w.
  std::vector<CellKey> keys{
      {7, -0.25}, {7, kDataOrderScore}, {7, -1.0}, {7, -0.5}};
  std::sort(keys.begin(), keys.end(), CellKeySortLess);
  EXPECT_DOUBLE_EQ(keys[0].order, kDataOrderScore);  // data first
  EXPECT_DOUBLE_EQ(keys[1].order, -1.0);             // score 1.0
  EXPECT_DOUBLE_EQ(keys[2].order, -0.5);             // score 0.5
  EXPECT_DOUBLE_EQ(keys[3].order, -0.25);            // score 0.25
}

TEST(CellKeySortTest, DataSentinelPrecedesAnyFeatureScore) {
  // Jaccard lies in (0, 1], so feature orders lie in [-1, 0).
  for (double w : {1e-9, 0.5, 1.0}) {
    EXPECT_TRUE(CellKeySortLess({1, kDataOrderScore}, {1, -w})) << w;
  }
}

TEST(CellPartitionerTest, StaysInRangeAndIsDeterministic) {
  for (uint32_t parts : {1u, 3u, 16u, 2500u}) {
    for (geo::CellId cell = 0; cell < 100; ++cell) {
      const uint32_t p = CellPartitioner({cell, 0.5}, parts);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, CellPartitioner({cell, -0.7}, parts))
          << "partition must ignore the secondary key";
    }
  }
}

TEST(CellPartitionerTest, IdentityWhenOnePartitionPerCell) {
  // The paper's setting: R == number of cells.
  for (geo::CellId cell = 0; cell < 2500; ++cell) {
    EXPECT_EQ(CellPartitioner({cell, 0.0}, 2500), cell);
  }
}

TEST(ShuffleObjectTest, KindPredicates) {
  ShuffleObject obj;
  obj.kind = ShuffleObject::kData;
  EXPECT_TRUE(obj.is_data());
  EXPECT_FALSE(obj.is_feature());
  obj.kind = ShuffleObject::kFeature;
  EXPECT_TRUE(obj.is_feature());
  EXPECT_FALSE(obj.is_data());
}

// The double <-> sortable-uint64 key flip must be order-preserving and
// invertible for every order value the mappers produce.
TEST(OrderedDoubleKeyTest, PreservesOrderAndRoundTrips) {
  const std::vector<double> values = {
      kDataOrderScore, -1.0, -0.75, -0.5, -1.0 / 3.0, -1e-9, -0.0,
      0.0,  1e-9, 0.5, 1.0, 2.0, 55.0, 1e17};
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(values[i] < values[j],
                OrderedDoubleKey(values[i]) < OrderedDoubleKey(values[j]))
          << values[i] << " vs " << values[j];
    }
    const double round = OrderedKeyToDouble(OrderedDoubleKey(values[i]));
    EXPECT_EQ(round, values[i]);  // -0.0 == 0.0 under ==, as required
  }
}

// ---------------------------------------------------------------------------
// FlatShuffleTraits vs. the comparators. The flat shuffle orders records by
// (Bucket, OrderKey, emission index) and delimits groups by Bucket; that
// must be exactly a stable sort under the job's sort comparator, grouped by
// its grouping comparator. Keys are drawn with heavy ties (few distinct
// orders), both signed zeros, the eSPQsco data sentinel, and cell and
// query ids at 0 and 2^32-1.
// ---------------------------------------------------------------------------

constexpr uint32_t kMaxId = std::numeric_limits<uint32_t>::max();

uint32_t RandomId(Rng& rng) {
  const uint32_t ids[] = {0, 1, 2, 7, kMaxId - 1, kMaxId};
  return ids[rng.NextUint32(std::size(ids))];
}

double RandomOrder(Rng& rng) {
  const double orders[] = {kDataOrderScore, -1.0, -0.5, -0.0, 0.0,
                           1.0,             3.0,  55.0};
  // Mostly tied values; some continuous Jaccard-like scores.
  if (rng.NextUint32(4) == 0) return -rng.NextDouble();
  return orders[rng.NextUint32(std::size(orders))];
}

/// Checks the three traits properties over `keys` against `sort_less` and
/// `group_equal`; `same_key` compares a MakeKey round trip.
template <typename K, typename SortLess, typename GroupEqual,
          typename SameKey>
void ExpectTraitsMatchComparators(const std::vector<K>& keys,
                                  SortLess sort_less, GroupEqual group_equal,
                                  SameKey same_key) {
  using Traits = mapreduce::FlatShuffleTraits<K, ShuffleObject>;
  std::vector<std::size_t> by_comparator(keys.size());
  std::iota(by_comparator.begin(), by_comparator.end(), 0);
  std::stable_sort(by_comparator.begin(), by_comparator.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sort_less(keys[a], keys[b]);
                   });
  std::vector<std::size_t> by_traits(keys.size());
  std::iota(by_traits.begin(), by_traits.end(), 0);
  std::sort(by_traits.begin(), by_traits.end(),
            [&](std::size_t a, std::size_t b) {
              const uint64_t ba = Traits::Bucket(keys[a]);
              const uint64_t bb = Traits::Bucket(keys[b]);
              if (ba != bb) return ba < bb;
              const uint64_t oa = Traits::OrderKey(keys[a]);
              const uint64_t ob = Traits::OrderKey(keys[b]);
              if (oa != ob) return oa < ob;
              return a < b;
            });
  EXPECT_EQ(by_traits, by_comparator);

  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(Traits::Bucket(keys[i]) == Traits::Bucket(keys[j]),
                group_equal(keys[i], keys[j]))
          << "keys " << i << " and " << j;
    }
    const K round =
        Traits::MakeKey(Traits::Bucket(keys[i]), Traits::OrderKey(keys[i]));
    EXPECT_TRUE(same_key(round, keys[i])) << "key " << i;
  }
}

TEST(FlatTraitsOrderTest, CellKeyTraitsMatchComparators) {
  Rng rng(404);
  for (int round = 0; round < 5; ++round) {
    std::vector<CellKey> keys(400);
    for (CellKey& k : keys) k = {RandomId(rng), RandomOrder(rng)};
    ExpectTraitsMatchComparators(
        keys, CellKeySortLess, CellKeyGroupEqual,
        [](const CellKey& a, const CellKey& b) {
          return a.cell == b.cell && a.order == b.order;
        });
  }
}

}  // namespace
}  // namespace spq::core
