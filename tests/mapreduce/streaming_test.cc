// The spilled-segment reader under a record larger than its 64 KiB
// buffers: the pool cursor must grow for one oversized keyword span — a
// path no small-record workload touches — and a truncated spill file must
// surface an error.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/merge.h"
#include "mapreduce/runtime.h"
#include "mapreduce/spill.h"
#include "spq/shuffle_types.h"

namespace spq::mapreduce {
namespace {

std::string TempDir() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("spq_streaming_test-" + std::to_string(static_cast<int>(::getpid()))))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(StreamingFlatReaderTest, PoolSpanLargerThanBufferGrowsAndMatches) {
  using core::CellKey;
  using core::ShuffleObject;
  const std::string dir = TempDir();

  // One feature with a ~96 KiB keyword span (> the 64 KiB cursor buffer)
  // among ordinary records.
  std::vector<std::pair<CellKey, ShuffleObject>> records;
  for (uint32_t i = 0; i < 10; ++i) {
    ShuffleObject obj;
    obj.kind = ShuffleObject::kFeature;
    obj.id = i;
    obj.pos = {0.25, 0.75};
    const std::size_t terms = i == 5 ? 24'000 : 4;
    for (uint32_t t = 0; t < terms; ++t) {
      obj.keywords.push_back(t * 7 + i);
    }
    records.emplace_back(CellKey{i % 3, static_cast<double>(i)},
                         std::move(obj));
  }
  auto seg_or = internal::BuildFlatSegment<CellKey, ShuffleObject>(records);
  ASSERT_TRUE(seg_or.ok());
  FlatSegment seg = *std::move(seg_or);
  seg.spill_path = dir + "/flat.seg";
  ASSERT_TRUE(WriteSpillFile(seg.spill_path, seg.bytes).ok());
  seg.bytes.clear();

  FlatMergeStream<CellKey, ShuffleObject> stream({&seg});
  uint64_t seen = 0;
  bool saw_big = false;
  while (stream.Advance()) {
    const core::ShuffleObjectView view = stream.value();
    ++seen;
    if (view.num_keywords == 24'000) {
      saw_big = true;
      // The span streamed through the grown pool buffer intact.
      EXPECT_EQ(view.id, 5u);
      EXPECT_EQ(view.keywords[0], 5u);          // t=0: 0*7+5
      EXPECT_EQ(view.keywords[23'999], 23'999u * 7 + 5);
    }
  }
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  EXPECT_EQ(seen, 10u);
  EXPECT_TRUE(saw_big);

  std::filesystem::remove_all(dir);
}

TEST(StreamingFlatReaderTest, TruncatedFlatSpillSurfacesError) {
  using core::CellKey;
  using core::ShuffleObject;
  const std::string dir = TempDir();

  std::vector<std::pair<CellKey, ShuffleObject>> records;
  for (uint32_t i = 0; i < 100; ++i) {
    ShuffleObject obj;
    obj.kind = ShuffleObject::kFeature;
    obj.id = i;
    obj.keywords = {i, i + 1, i + 2};
    records.emplace_back(CellKey{0, static_cast<double>(i)}, std::move(obj));
  }
  auto seg_or = internal::BuildFlatSegment<CellKey, ShuffleObject>(records);
  ASSERT_TRUE(seg_or.ok());
  FlatSegment seg = *std::move(seg_or);
  seg.spill_path = dir + "/flat-trunc.seg";
  std::vector<uint8_t> truncated(seg.bytes.begin(),
                                 seg.bytes.begin() + seg.bytes.size() / 2);
  ASSERT_TRUE(WriteSpillFile(seg.spill_path, truncated).ok());
  seg.bytes.clear();

  FlatMergeStream<CellKey, ShuffleObject> stream({&seg});
  while (stream.Advance()) {
  }
  EXPECT_FALSE(stream.status().ok());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spq::mapreduce
