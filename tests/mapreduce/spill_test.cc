#include "mapreduce/spill.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "mapreduce/runtime.h"
#include "testing/u64_shuffle.h"

namespace spq::mapreduce {
namespace {

using testing::SumsByGroup;

// Per-process unique: ctest runs each discovered test in its own process,
// possibly in parallel, and SpillFilesRemovedAfterJob remove_all()s this
// tree — a shared path let it yank spill files out from under sibling
// tests mid-job.
std::string SpillTestDir() {
  return (std::filesystem::temp_directory_path() /
          ("spq_spill_test_" + std::to_string(::getpid())))
      .string();
}

TEST(SpillFileTest, WriteReadRoundTrip) {
  const std::string path = SpillPath(SpillTestDir(), NextSpillRunId(), 0, 0);
  std::vector<uint8_t> bytes{1, 2, 3, 0, 255};
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());
  auto read = ReadSpillFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  RemoveSpillFile(path);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, CreatesParentDirectories) {
  const std::string dir = SpillTestDir() + "/nested/deeper";
  const std::string path = SpillPath(dir, NextSpillRunId(), 1, 2);
  ASSERT_TRUE(WriteSpillFile(path, {42}).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  RemoveSpillFile(path);
}

TEST(SpillFileTest, ReadMissingFileIsIOError) {
  EXPECT_TRUE(ReadSpillFile("/nonexistent/spq.seg").status().IsIOError());
}

TEST(SpillFileTest, RemoveMissingFileIsNoop) {
  RemoveSpillFile("/nonexistent/spq.seg");  // must not crash
}

TEST(SpillFileTest, PathsAreUniquePerRunTaskPartition) {
  const std::string dir = SpillTestDir();
  EXPECT_NE(SpillPath(dir, 1, 0, 0), SpillPath(dir, 2, 0, 0));
  EXPECT_NE(SpillPath(dir, 1, 0, 0), SpillPath(dir, 1, 1, 0));
  EXPECT_NE(SpillPath(dir, 1, 0, 0), SpillPath(dir, 1, 0, 1));
}

// ----- the windowed region reader -----

std::vector<uint8_t> PatternBytes(std::size_t n) {
  std::vector<uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + 7) & 0xff);
  }
  return bytes;
}

/// Fetches the region in `chunk`-byte steps (the last one shorter) until
/// it is exhausted or a Fetch fails; returns that Status and appends every
/// byte served to `got`.
Status FetchInChunks(SpillRegionReader& reader, std::size_t chunk,
                     std::vector<uint8_t>& got) {
  while (reader.remaining() > 0) {
    const std::size_t n = std::min<std::size_t>(reader.remaining(), chunk);
    const uint8_t* p = nullptr;
    SPQ_RETURN_NOT_OK(reader.Fetch(n, &p));
    got.insert(got.end(), p, p + n);
  }
  return Status::OK();
}

TEST(SpillRegionReaderTest, FetchWalksWholeRegion) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 9, 0);
  const std::vector<uint8_t> bytes = PatternBytes(10'000);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());

  SpillRegionReader reader;
  // A tiny buffer forces many refill cycles, and awkward prime-sized
  // fetches stress the compaction of the unfetched tail.
  reader.Open(path, 0, bytes.size(), /*buffer_capacity=*/64);
  std::vector<uint8_t> got;
  ASSERT_TRUE(FetchInChunks(reader, 13, got).ok());
  EXPECT_EQ(got, bytes);
  EXPECT_EQ(reader.remaining(), 0u);
  const uint8_t* p = nullptr;
  EXPECT_TRUE(reader.Fetch(1, &p).IsOutOfRange());
  RemoveSpillFile(path);
}

TEST(SpillRegionReaderTest, FetchGrowsPastBufferForOneBigRecord) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 9, 1);
  const std::vector<uint8_t> bytes = PatternBytes(5'000);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());

  SpillRegionReader reader;
  reader.Open(path, 0, bytes.size(), /*buffer_capacity=*/128);
  // A small record, then one far bigger than the buffer, then the rest:
  // the buffer grows for the big one and serves the tail after it.
  const uint8_t* p = nullptr;
  ASSERT_TRUE(reader.Fetch(10, &p).ok());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + 10, p));
  ASSERT_TRUE(reader.Fetch(4'000, &p).ok());
  EXPECT_TRUE(std::equal(bytes.begin() + 10, bytes.begin() + 4'010, p));
  ASSERT_TRUE(reader.Fetch(990, &p).ok());
  EXPECT_TRUE(std::equal(bytes.begin() + 4'010, bytes.end(), p));
  EXPECT_EQ(reader.remaining(), 0u);
  RemoveSpillFile(path);
}

TEST(SpillRegionReaderTest, TruncatedRegionSurfacesOutOfRange) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 9, 3);
  const std::vector<uint8_t> bytes = PatternBytes(100);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());

  SpillRegionReader reader;
  // Region claims more bytes than the file holds.
  reader.Open(path, 0, 500, /*buffer_capacity=*/64);
  std::vector<uint8_t> got;
  const Status st = FetchInChunks(reader, 13, got);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  // Every fetch that fit inside the file was served intact.
  EXPECT_EQ(got.size(), 91u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), bytes.begin()));
  RemoveSpillFile(path);
}

// ----- CRC framing: corruption is detected, never served -----

/// Flips one bit of the on-disk file at `offset`.
void FlipByteOnDisk(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x20;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(SpillFramingTest, CorruptBodyByteIsIOErrorNeverGarbage) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 20, 0);
  const std::vector<uint8_t> bytes = PatternBytes(5'000);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());
  FlipByteOnDisk(path, 1'234);  // inside the body

  // Whole-file read: detected by the page CRC.
  EXPECT_TRUE(ReadSpillFile(path).status().IsIOError());

  // Region read: the reader must error out before serving the bad byte.
  SpillRegionReader reader;
  reader.Open(path, 0, bytes.size(), /*buffer_capacity=*/256);
  std::vector<uint8_t> got;
  const Status st = FetchInChunks(reader, 100, got);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // Everything served before the error was verified-intact.
  EXPECT_LE(got.size(), 1'234u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), bytes.begin()));
  RemoveSpillFile(path);
}

TEST(SpillFramingTest, CorruptTrailerIsDetected) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 20, 1);
  ASSERT_TRUE(WriteSpillFile(path, PatternBytes(300)).ok());
  const auto file_size = std::filesystem::file_size(path);
  FlipByteOnDisk(path, static_cast<std::size_t>(file_size) - 3);
  EXPECT_TRUE(ReadSpillFile(path).status().IsIOError());
  SpillRegionReader reader;
  reader.Open(path, 0, 300, /*buffer_capacity=*/64);
  const uint8_t* p = nullptr;
  EXPECT_TRUE(reader.Fetch(1, &p).IsIOError());
  RemoveSpillFile(path);
}

TEST(SpillFramingTest, CorruptCrcTableIsDetected) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 20, 2);
  const std::vector<uint8_t> bytes = PatternBytes(700);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());
  FlipByteOnDisk(path, bytes.size() + 1);  // first page's table entry
  EXPECT_TRUE(ReadSpillFile(path).status().IsIOError());
  RemoveSpillFile(path);
}

TEST(SpillFramingTest, VerifyAfterWriteCatchesInjectedWriteFaults) {
  // With prob 1.0 every storage site rolls SOME fault kind, but a site
  // can roll a kind for the other direction (a write site drawing
  // kShortRead injects nothing at write time) — so an individual write
  // may legitimately be acknowledged. The contract under test is what
  // faults may never do: an acknowledged write must round-trip the exact
  // bytes, a failed write must be a deterministic IOError whose file is
  // either detectably poisoned or clean — silent garbage is the one
  // impossible outcome. 24 distinct paths (independent site rolls) make
  // an all-inert run astronomically unlikely, so the verify-after-write
  // pass is genuinely exercised.
  FaultSpec spec;
  spec.storage_fault_prob = 1.0;
  spec.seed = 7;
  const std::vector<uint8_t> bytes = PatternBytes(2'000);
  const uint64_t run_id = NextSpillRunId();
  int write_failures = 0;
  for (uint32_t part = 0; part < 24; ++part) {
    const std::string path = SpillPath(SpillTestDir(), run_id, 20, part);
    Status st = Status::OK();
    Status again = Status::OK();
    {
      ScopedStorageFaults scope(&spec, /*salt=*/1);
      st = WriteSpillFile(path, bytes);
      // Deterministic: the same (spec, salt, path) re-rolls identically.
      again = WriteSpillFile(path, bytes);
    }
    EXPECT_EQ(st.ToString(), again.ToString());
    auto read = ReadSpillFile(path);  // outside the scope: no read faults
    if (st.ok()) {
      // Acknowledged ⇒ the bytes on the medium are the bytes handed in.
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_EQ(*read, bytes);
    } else {
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
      ++write_failures;
      // The unacknowledged file is torn/corrupt (framing detects it) or
      // clean (the fault hit the verify read, not the medium) — never
      // readable-but-wrong.
      if (read.ok()) EXPECT_EQ(*read, bytes);
    }
    RemoveSpillFile(path);
  }
  EXPECT_GT(write_failures, 0);

  // No scope: the same path writes and round-trips clean (a retried
  // attempt with a different salt behaves the same way).
  const std::string path = SpillPath(SpillTestDir(), run_id, 20, 100);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());
  auto read = ReadSpillFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  RemoveSpillFile(path);
}

TEST(SpillFramingTest, ZeroFaultProbScopeIsInert) {
  const std::string path =
      SpillPath(SpillTestDir(), NextSpillRunId(), 20, 4);
  FaultSpec spec;  // storage_fault_prob = 0
  ScopedStorageFaults scope(&spec, /*salt=*/9);
  const std::vector<uint8_t> bytes = PatternBytes(500);
  ASSERT_TRUE(WriteSpillFile(path, bytes).ok());
  auto read = ReadSpillFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  RemoveSpillFile(path);
}

// ----- end-to-end: jobs with the out-of-core shuffle -----

/// Sums by v % 7.
JobSpec<uint64_t, uint64_t, uint64_t, testing::GroupSum> SumSpec() {
  return testing::GroupSumSpec(7);
}

TEST(SpillShuffleTest, SpilledJobMatchesInMemoryJob) {
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 5000; ++i) input.push_back(i);

  JobConfig in_memory;
  in_memory.num_map_tasks = 6;
  in_memory.num_reduce_tasks = 4;
  auto expected = RunJob(SumSpec(), in_memory, input);
  ASSERT_TRUE(expected.ok());

  JobConfig spilled = in_memory;
  spilled.spill_dir = SpillTestDir();
  auto result = RunJob(SumSpec(), spilled, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(SumsByGroup(result->records), SumsByGroup(expected->records));
  EXPECT_EQ(result->stats.shuffle_bytes, expected->stats.shuffle_bytes);
}

TEST(SpillShuffleTest, SpillFilesRemovedAfterJob) {
  const std::string dir = SpillTestDir() + "/cleanup";
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 100; ++i) input.push_back(i);
  JobConfig config;
  config.spill_dir = dir;
  auto result = RunJob(SumSpec(), config, input);
  ASSERT_TRUE(result.ok());
  std::size_t remaining = 0;
  if (std::filesystem::exists(dir)) {
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir)) {
      ++remaining;
    }
  }
  EXPECT_EQ(remaining, 0u);
  std::filesystem::remove_all(SpillTestDir());
}

TEST(SpillShuffleTest, SpilledJobSurvivesReduceRetries) {
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 2000; ++i) input.push_back(i);
  JobConfig config;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  config.spill_dir = SpillTestDir();
  config.faults.reduce_failure_prob = 0.5;
  config.faults.seed = 17;
  config.max_task_attempts = 30;
  auto result = RunJob(SumSpec(), config, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t total = 0;
  for (const auto& r : result->records) total += r.sum;
  EXPECT_EQ(total, 1999ull * 2000 / 2);
  EXPECT_GT(result->stats.reduce_task_failures, 0u);
  std::filesystem::remove_all(SpillTestDir());
}

// Every spill write rolls a storage fault, so map attempts keep failing
// their verify-after-write until the job runs out of attempts. The files
// those attempts wrote, including the ones that failed verification, must
// not outlive the failed job.
TEST(SpillShuffleTest, FailedJobRemovesItsSpillFiles) {
  const std::string dir = SpillTestDir() + "/failed_job";
  std::filesystem::remove_all(dir);
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 4000; ++i) input.push_back(i);
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  config.spill_dir = dir;
  config.faults.storage_fault_prob = 1.0;
  config.faults.seed = 5;
  config.max_task_attempts = 2;
  auto result = RunJob(SumSpec(), config, input);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  std::vector<std::string> left;
  if (std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (entry.path().extension() == ".seg") left.push_back(entry.path());
    }
  }
  EXPECT_EQ(left, std::vector<std::string>{});
  std::filesystem::remove_all(SpillTestDir());
}

TEST(SpillShuffleTest, UnwritableSpillDirFailsJob) {
  std::vector<uint64_t> input{1, 2, 3};
  JobConfig config;
  config.spill_dir = "/proc/definitely_unwritable/spills";
  auto result = RunJob(SumSpec(), config, input);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace spq::mapreduce
