#include "mapreduce/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mapreduce/runtime.h"
#include "spq/shuffle_types.h"
#include "testing/u64_shuffle.h"

namespace spq::mapreduce {
namespace {

// ---------------------------------------------------------------------------
// MergeStreamTest: the merge's contract on the generic u64 record of the
// runtime tests (testing/u64_shuffle.h), where each key is one group.
// ---------------------------------------------------------------------------

/// (group, value) of one record.
using Record = std::pair<uint32_t, uint64_t>;
using U64Merge = FlatMergeStream<uint64_t, uint64_t>;

FlatSegment MakeSegment(const std::vector<Record>& records) {
  std::vector<std::pair<uint64_t, uint64_t>> keyed;
  for (const auto& [group, value] : records) {
    keyed.emplace_back(testing::U64Key(group), value);
  }
  auto seg = internal::BuildFlatSegment<uint64_t, uint64_t>(keyed);
  EXPECT_TRUE(seg.ok()) << seg.status().ToString();
  return *std::move(seg);
}

std::vector<Record> Drain(U64Merge& stream) {
  std::vector<Record> out;
  while (stream.Advance()) {
    out.emplace_back(testing::GroupOf(stream.key()), stream.value());
  }
  return out;
}

TEST(MergeStreamTest, EmptyInput) {
  std::vector<const FlatSegment*> segments;
  U64Merge stream(segments);
  EXPECT_FALSE(stream.Advance());
  EXPECT_TRUE(stream.status().ok());
}

TEST(MergeStreamTest, SingleSegmentPreservesOrder) {
  FlatSegment seg = MakeSegment({{3, 30}, {1, 10}, {2, 20}});
  U64Merge stream({&seg});
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], Record(1, 10));
  EXPECT_EQ(out[1], Record(2, 20));
  EXPECT_EQ(out[2], Record(3, 30));
}

TEST(MergeStreamTest, MergesTwoSegments) {
  FlatSegment a = MakeSegment({{1, 1}, {3, 3}, {5, 5}});
  FlatSegment b = MakeSegment({{2, 2}, {4, 4}, {6, 6}});
  U64Merge stream({&a, &b});
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 6u);
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].first, i + 1);
  }
}

TEST(MergeStreamTest, EqualKeysBreakTiesBySegmentIndex) {
  FlatSegment a = MakeSegment({{7, 100}});
  FlatSegment b = MakeSegment({{7, 200}});
  U64Merge stream({&a, &b});
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 100u);  // segment 0 first
  EXPECT_EQ(out[1].second, 200u);
}

TEST(MergeStreamTest, ManySegmentsRandomized) {
  Rng rng(55);
  std::vector<FlatSegment> segments;
  std::vector<Record> all;
  for (int s = 0; s < 13; ++s) {
    std::vector<Record> records;
    const int n = static_cast<int>(rng.NextUint32(50));
    for (int i = 0; i < n; ++i) {
      Record r{rng.NextUint32(100), rng.NextUint64()};
      records.push_back(r);
      all.push_back(r);
    }
    segments.push_back(MakeSegment(records));
  }
  std::vector<const FlatSegment*> ptrs;
  for (const auto& s : segments) ptrs.push_back(&s);
  U64Merge stream(ptrs);
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), all.size());
  // Keys must be non-decreasing and form the same multiset.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].first, out[i].first);
  }
  auto key_multiset = [](std::vector<Record> v) {
    std::vector<uint32_t> keys;
    for (auto& r : v) keys.push_back(r.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(key_multiset(out), key_multiset(all));
}

TEST(MergeStreamTest, CorruptSegmentSurfacesStatus) {
  FlatSegment seg = MakeSegment({{1, 1}, {2, 2}});
  // Give the second record a pool slice the (empty) pool cannot hold.
  const std::size_t second_payload = 2 * FlatSegment::kKeyRowBytes + 16;
  wire::StoreU32(seg.bytes.data() + second_payload + 12, 4);
  U64Merge stream({&seg});
  // First record decodes fine; the second fails.
  EXPECT_TRUE(stream.Advance());
  EXPECT_EQ(testing::GroupOf(stream.key()), 1u);
  EXPECT_FALSE(stream.Advance());
  EXPECT_FALSE(stream.status().ok());
}

TEST(MergeStreamTest, SegmentWithZeroRecords) {
  FlatSegment empty = MakeSegment({});
  FlatSegment one = MakeSegment({{4, 40}});
  U64Merge stream({&empty, &one});
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Record(4, 40));
}

// ---------------------------------------------------------------------------
// FlatMergeStream: the loser tree against a sorted reference. The merge
// must emit every record exactly in (bucket, order key, segment index,
// position in segment) order — a stable sort of all segments' records —
// at every fan-in, including empty segments and keys tied across segments.
// ---------------------------------------------------------------------------

using FlatKV = std::pair<core::CellKey, core::ShuffleObject>;
using FlatMerge = FlatMergeStream<core::CellKey, core::ShuffleObject>;
/// (bucket, order key, record id) of one merged record.
using FlatRow = std::tuple<uint64_t, uint64_t, uint64_t>;

/// `num_records` features with ids base+i in emission order. Few cells and
/// coarse orders force ties inside and across segments.
std::vector<FlatKV> MakeFlatRecords(Rng& rng, std::size_t num_records,
                                    uint64_t base) {
  std::vector<FlatKV> records(num_records);
  for (std::size_t i = 0; i < num_records; ++i) {
    auto& [k, v] = records[i];
    k.cell = rng.NextUint32(5);
    k.order = static_cast<double>(rng.NextUint32(4)) - 1.0;
    v.kind = core::ShuffleObject::kFeature;
    v.id = base + i;
    v.pos = {rng.NextDouble(), rng.NextDouble()};
    v.keywords = {rng.NextUint32(100), 200 + rng.NextUint32(100)};
  }
  return records;
}

FlatSegment BuildSegment(const std::vector<FlatKV>& records) {
  auto seg =
      internal::BuildFlatSegment<core::CellKey, core::ShuffleObject>(records);
  EXPECT_TRUE(seg.ok()) << seg.status().ToString();
  return *std::move(seg);
}

std::vector<FlatRow> DrainFlat(FlatMerge& stream) {
  std::vector<FlatRow> out;
  while (stream.Advance()) {
    out.emplace_back(stream.bucket(),
                     core::OrderedDoubleKey(stream.key().order),
                     stream.value().id);
  }
  return out;
}

TEST(FlatMergeStreamTest, MatchesStableSortAtEveryFanIn) {
  for (const std::size_t fan_in : {0, 1, 2, 3, 7, 8, 9, 20}) {
    Rng rng(31 + fan_in);
    std::vector<FlatSegment> segments;
    // (bucket, order key, segment, emission index, id): sorting these is
    // the reference order, since BuildFlatSegment keeps emission order
    // among equal keys.
    std::vector<std::tuple<uint64_t, uint64_t, std::size_t, std::size_t,
                           uint64_t>>
        reference;
    for (std::size_t s = 0; s < fan_in; ++s) {
      // Every third segment is empty; the rest vary in length.
      const std::size_t n = s % 3 == 1 ? 0 : 1 + rng.NextUint32(40);
      const std::vector<FlatKV> records =
          MakeFlatRecords(rng, n, /*base=*/s * 1000);
      for (std::size_t i = 0; i < n; ++i) {
        reference.emplace_back(records[i].first.cell,
                               core::OrderedDoubleKey(records[i].first.order),
                               s, i, records[i].second.id);
      }
      segments.push_back(BuildSegment(records));
    }
    std::sort(reference.begin(), reference.end());
    std::vector<FlatRow> expected;
    for (const auto& [bucket, okey, seg, idx, id] : reference) {
      expected.emplace_back(bucket, okey, id);
    }

    std::vector<const FlatSegment*> ptrs;
    for (const auto& seg : segments) ptrs.push_back(&seg);
    FlatMerge stream(ptrs);
    EXPECT_EQ(DrainFlat(stream), expected) << "fan-in " << fan_in;
    EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
    EXPECT_FALSE(stream.Advance()) << "fan-in " << fan_in;
  }
}

TEST(FlatMergeStreamTest, EmptyInput) {
  const std::vector<const FlatSegment*> segments;
  FlatMerge stream(segments);
  EXPECT_FALSE(stream.Advance());
  EXPECT_FALSE(stream.Advance());
  EXPECT_TRUE(stream.status().ok());
}

TEST(FlatMergeStreamTest, SegmentWithZeroRecords) {
  Rng rng(33);
  const FlatSegment empty = BuildSegment({});
  const std::vector<FlatKV> records = MakeFlatRecords(rng, 1, /*base=*/40);
  const FlatSegment one = BuildSegment(records);
  FlatMerge stream({&empty, &one, &empty});
  const std::vector<FlatRow> out = DrainFlat(stream);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<2>(out[0]), 40u);
  EXPECT_TRUE(stream.status().ok());
}

TEST(FlatMergeStreamTest, CorruptSegmentSurfacesStatus) {
  Rng rng(34);
  std::vector<FlatKV> records = MakeFlatRecords(rng, 3, /*base=*/0);
  for (auto& [k, v] : records) k = {1, 0.0};  // one bucket, emission order
  FlatSegment corrupt = BuildSegment(records);
  // Point the second record's pool slice past the end of the pool.
  const std::size_t payload =
      3 * FlatSegment::kKeyRowBytes + core::kShufflePayloadStride;
  wire::StoreU32(corrupt.bytes.data() + payload + 32, 0xfffffff0u);
  std::vector<FlatKV> later = MakeFlatRecords(rng, 5, /*base=*/100);
  for (auto& [k, v] : later) k.cell = 5;  // merges after the corrupt run
  const FlatSegment healthy = BuildSegment(later);

  FlatMerge stream({&corrupt, &healthy});
  ASSERT_TRUE(stream.Advance());
  EXPECT_EQ(stream.value().id, 0u);
  // Refilling the corrupt reader fails: the merge stops there, before the
  // healthy segment's records, and stays stopped.
  EXPECT_FALSE(stream.Advance());
  EXPECT_FALSE(stream.status().ok());
  EXPECT_FALSE(stream.Advance());
}

}  // namespace
}  // namespace spq::mapreduce
