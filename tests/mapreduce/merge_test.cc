#include "mapreduce/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mapreduce/runtime.h"
#include "spq/shuffle_types.h"

namespace spq::mapreduce {
namespace {

using Record = std::pair<uint32_t, uint64_t>;

SortedSegment MakeSegment(std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.first < b.first; });
  Buffer buf;
  for (const auto& [k, v] : records) {
    Codec<uint32_t>::Encode(k, buf);
    Codec<uint64_t>::Encode(v, buf);
  }
  SortedSegment seg;
  seg.num_records = records.size();
  seg.bytes = buf.TakeBytes();
  return seg;
}

std::vector<Record> Drain(MergeStream<uint32_t, uint64_t>& stream) {
  std::vector<Record> out;
  while (stream.Advance()) out.emplace_back(stream.key(), stream.value());
  return out;
}

auto KeyLess = [](const uint32_t& a, const uint32_t& b) { return a < b; };

TEST(MergeStreamTest, EmptyInput) {
  std::vector<const SortedSegment*> segments;
  MergeStream<uint32_t, uint64_t> stream(segments, KeyLess);
  EXPECT_FALSE(stream.Advance());
  EXPECT_TRUE(stream.status().ok());
}

TEST(MergeStreamTest, SingleSegmentPreservesOrder) {
  SortedSegment seg = MakeSegment({{3, 30}, {1, 10}, {2, 20}});
  MergeStream<uint32_t, uint64_t> stream({&seg}, KeyLess);
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], Record(1, 10));
  EXPECT_EQ(out[1], Record(2, 20));
  EXPECT_EQ(out[2], Record(3, 30));
}

TEST(MergeStreamTest, MergesTwoSegments) {
  SortedSegment a = MakeSegment({{1, 1}, {3, 3}, {5, 5}});
  SortedSegment b = MakeSegment({{2, 2}, {4, 4}, {6, 6}});
  MergeStream<uint32_t, uint64_t> stream({&a, &b}, KeyLess);
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 6u);
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].first, i + 1);
  }
}

TEST(MergeStreamTest, EqualKeysBreakTiesBySegmentIndex) {
  SortedSegment a = MakeSegment({{7, 100}});
  SortedSegment b = MakeSegment({{7, 200}});
  MergeStream<uint32_t, uint64_t> stream({&a, &b}, KeyLess);
  auto out = Drain(stream);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 100u);  // segment 0 first
  EXPECT_EQ(out[1].second, 200u);
}

TEST(MergeStreamTest, ManySegmentsRandomized) {
  Rng rng(55);
  std::vector<SortedSegment> segments;
  std::vector<Record> all;
  for (int s = 0; s < 13; ++s) {
    std::vector<Record> records;
    const int n = static_cast<int>(rng.NextUint32(50));
    for (int i = 0; i < n; ++i) {
      Record r{rng.NextUint32(100), rng.NextUint64()};
      records.push_back(r);
      all.push_back(r);
    }
    segments.push_back(MakeSegment(std::move(records)));
  }
  std::vector<const SortedSegment*> ptrs;
  for (const auto& s : segments) ptrs.push_back(&s);
  MergeStream<uint32_t, uint64_t> stream(ptrs, KeyLess);
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
  // Values use multi-byte varints so truncation hits the second record.
  SortedSegment seg = MakeSegment({{1, 1ULL << 40}, {2, 1ULL << 41}});
  seg.bytes.resize(seg.bytes.size() - 3);  // truncate mid-record
  MergeStream<uint32_t, uint64_t> stream({&seg}, KeyLess);
  // First record decodes fine; the second fails.
  EXPECT_TRUE(stream.Advance());
  EXPECT_EQ(stream.key(), 1u);
  EXPECT_FALSE(stream.Advance());
  EXPECT_FALSE(stream.status().ok());
}

TEST(MergeStreamTest, SegmentWithZeroRecords) {
  SortedSegment empty = MakeSegment({});
  SortedSegment one = MakeSegment({{4, 40}});
  MergeStream<uint32_t, uint64_t> stream({&empty, &one}, KeyLess);
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
