#include "mapreduce/runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "testing/u64_shuffle.h"

namespace spq::mapreduce {
namespace {

using testing::GroupOf;
using testing::OrderOf;
using testing::U64Cursor;
using testing::U64Key;

// ---------------------------------------------------------------- word count

/// A line of text as word ids.
using Line = std::vector<uint32_t>;

/// Word ids of the sentences below.
enum Word : uint32_t { kThe = 1, kQuick, kBrown, kFox, kLazy, kDog };

/// Classic word count: proves the map -> shuffle -> sort -> group -> reduce
/// pipeline end to end.
class WordCountMapper : public Mapper<Line, uint64_t, uint64_t> {
 public:
  void Map(const Line& line, MapContext<uint64_t, uint64_t>& ctx) override {
    for (uint32_t word : line) ctx.Emit(U64Key(word), 1);
  }
};

struct WordCount {
  uint32_t word;
  uint64_t count;
};

JobSpec<Line, uint64_t, uint64_t, WordCount> WordCountSpec() {
  JobSpec<Line, uint64_t, uint64_t, WordCount> spec;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.partitioner = testing::GroupPartitioner;
  spec.flat_reducer_factory = [] {
    return [](const uint64_t& word, U64Cursor& values,
              ReduceContext<WordCount>& ctx) {
      uint64_t total = 0;
      while (values.Next()) total += values.value();
      ctx.Emit({GroupOf(word), total});
    };
  };
  return spec;
}

std::map<uint32_t, uint64_t> RunWordCount(const std::vector<Line>& lines,
                                          const JobConfig& config) {
  auto result = RunJob(WordCountSpec(), config, lines);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::map<uint32_t, uint64_t> counts;
  for (const auto& wc : result->records) counts[wc.word] = wc.count;
  return counts;
}

TEST(RuntimeTest, WordCountBasics) {
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 2;
  config.num_workers = 4;
  auto counts = RunWordCount(
      {{kThe, kQuick, kBrown, kFox}, {kThe, kLazy, kDog}, {kThe, kFox}},
      config);
  EXPECT_EQ(counts[kThe], 3u);
  EXPECT_EQ(counts[kFox], 2u);
  EXPECT_EQ(counts[kDog], 1u);
  EXPECT_EQ(counts.size(), 6u);
}

TEST(RuntimeTest, EmptyInputYieldsEmptyOutput) {
  JobConfig config;
  auto result = RunJob(WordCountSpec(), config, std::vector<Line>{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->stats.input_records, 0u);
}

TEST(RuntimeTest, MoreTasksThanRecords) {
  JobConfig config;
  config.num_map_tasks = 16;
  config.num_reduce_tasks = 16;
  config.num_workers = 4;
  auto counts = RunWordCount({{7}}, config);
  EXPECT_EQ(counts[7], 1u);
}

TEST(RuntimeTest, SingleWorkerMatchesParallel) {
  std::vector<Line> lines;
  for (uint32_t i = 0; i < 200; ++i) lines.push_back({i % 17, 100 + i % 5});
  JobConfig serial;
  serial.num_workers = 1;
  JobConfig parallel;
  parallel.num_workers = 8;
  EXPECT_EQ(RunWordCount(lines, serial), RunWordCount(lines, parallel));
}

TEST(RuntimeTest, StatsArepopulated) {
  JobConfig config;
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 3;
  auto result = RunJob(WordCountSpec(), config,
                       std::vector<Line>{{kThe, kFox}, {kDog, kThe}});
  ASSERT_TRUE(result.ok());
  const JobStats& stats = result->stats;
  EXPECT_EQ(stats.input_records, 2u);
  EXPECT_EQ(stats.map_output_records, 4u);
  EXPECT_GT(stats.shuffle_bytes, 0u);
  EXPECT_EQ(stats.reduce_input_records.size(), 3u);
  uint64_t total = 0;
  for (uint64_t v : stats.reduce_input_records) total += v;
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(stats.map_task_failures, 0u);
  EXPECT_EQ(stats.reduce_task_failures, 0u);
}

TEST(RuntimeTest, InvalidConfigRejected) {
  JobConfig config;
  config.num_map_tasks = 0;
  auto result = RunJob(WordCountSpec(), config, std::vector<Line>{{1}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(RuntimeTest, IncompleteSpecRejected) {
  JobSpec<Line, uint64_t, uint64_t, WordCount> spec;  // all empty
  JobConfig config;
  auto result = RunJob(spec, config, std::vector<Line>{{1}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// ------------------------------------------------- secondary sort semantics

struct OrderedInput {
  uint32_t group;
  uint32_t order;
  uint64_t payload;
};

class PassThroughMapper : public Mapper<OrderedInput, uint64_t, uint64_t> {
 public:
  void Map(const OrderedInput& in,
           MapContext<uint64_t, uint64_t>& ctx) override {
    ctx.Emit(U64Key(in.group, in.order), in.payload);
  }
};

/// Emits values in arrival order, recording the composite key's secondary
/// component so tests can assert the sort order within the group.
struct SeenValue {
  uint32_t group;
  uint32_t order;
  uint64_t payload;
};

/// Takes at most `limit` values per group (all when limit <= 0): stopping
/// early is the reducer-side early termination the runtime must honour.
JobSpec<OrderedInput, uint64_t, uint64_t, SeenValue> SecondarySortSpec(
    int limit = -1) {
  JobSpec<OrderedInput, uint64_t, uint64_t, SeenValue> spec;
  spec.mapper_factory = [] { return std::make_unique<PassThroughMapper>(); };
  spec.partitioner = testing::GroupPartitioner;
  spec.flat_reducer_factory = [limit] {
    return [limit](const uint64_t& group_key, U64Cursor& values,
                   ReduceContext<SeenValue>& ctx) {
      int taken = 0;
      while (values.Next()) {
        ctx.Emit({GroupOf(group_key), OrderOf(values.key()), values.value()});
        if (limit > 0 && ++taken >= limit) break;  // early termination
      }
    };
  };
  return spec;
}

TEST(RuntimeTest, SecondarySortOrdersValuesWithinGroup) {
  std::vector<OrderedInput> input;
  // Interleave groups and emit orders out of order so sorting must work.
  for (uint32_t i = 10; i-- > 0;) {
    input.push_back({0, i, i});
    input.push_back({1, (i * 7) % 10, i});
  }
  JobConfig config;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 2;
  auto result = RunJob(SecondarySortSpec(), config, input);
  ASSERT_TRUE(result.ok());
  std::map<uint32_t, std::vector<uint32_t>> orders;
  for (const auto& seen : result->records) {
    orders[seen.group].push_back(seen.order);
  }
  ASSERT_EQ(orders.size(), 2u);
  for (const auto& [group, seq] : orders) {
    ASSERT_EQ(seq.size(), 10u) << "group " << group;
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LE(seq[i - 1], seq[i]) << "group " << group;
    }
  }
}

TEST(RuntimeTest, ReducerSeesCompositeKeyOfCurrentValue) {
  std::vector<OrderedInput> input{{5, 25, 1}, {5, 75, 2}};
  JobConfig config;
  config.num_reduce_tasks = 1;
  auto result = RunJob(SecondarySortSpec(), config, input);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[0].order, 25u);
  EXPECT_EQ(result->records[1].order, 75u);
}

TEST(RuntimeTest, EarlyTerminationSkipsToNextGroup) {
  // Reducer takes only the first (smallest-order) value per group; the
  // runtime must still deliver every group.
  std::vector<OrderedInput> input;
  for (uint32_t g = 0; g < 8; ++g) {
    for (uint32_t i = 0; i < 20; ++i) {
      input.push_back({g, (i * 7) % 20, i * 100ull + g});
    }
  }
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  auto result = RunJob(SecondarySortSpec(/*limit=*/1), config, input);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 8u);
  for (const auto& seen : result->records) {
    EXPECT_EQ(seen.order, 0u) << "group " << seen.group;
  }
}

TEST(RuntimeTest, GroupsWithSingleValue) {
  std::vector<OrderedInput> input;
  for (uint32_t g = 0; g < 100; ++g) input.push_back({g, 1, g});
  JobConfig config;
  config.num_map_tasks = 7;
  config.num_reduce_tasks = 5;
  auto result = RunJob(SecondarySortSpec(), config, input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 100u);
}

TEST(RuntimeTest, DeterministicAcrossRuns) {
  std::vector<OrderedInput> input;
  for (uint32_t i = 0; i < 500; ++i) {
    input.push_back({i % 13, (i * 31) % 97, i});
  }
  JobConfig config;
  config.num_map_tasks = 8;
  config.num_reduce_tasks = 6;
  config.num_workers = 8;
  auto a = RunJob(SecondarySortSpec(), config, input);
  auto b = RunJob(SecondarySortSpec(), config, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->records.size(), b->records.size());
  for (std::size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].group, b->records[i].group);
    EXPECT_EQ(a->records[i].order, b->records[i].order);
    EXPECT_EQ(a->records[i].payload, b->records[i].payload);
  }
}

// ---- parameterized sweep: cluster shape must never change results ----

class ClusterShapeTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {
};

TEST_P(ClusterShapeTest, WordCountInvariantUnderClusterShape) {
  const auto [maps, reduces, workers] = GetParam();
  std::vector<Line> lines;
  for (uint32_t i = 0; i < 300; ++i) {
    lines.push_back({0, 1 + i % 23, 100 + i % 7});
  }
  JobConfig reference;
  reference.num_map_tasks = 1;
  reference.num_reduce_tasks = 1;
  reference.num_workers = 1;
  JobConfig config;
  config.num_map_tasks = maps;
  config.num_reduce_tasks = reduces;
  config.num_workers = workers;
  EXPECT_EQ(RunWordCount(lines, config), RunWordCount(lines, reference));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterShapeTest,
    ::testing::Combine(::testing::Values(1u, 3u, 16u),
                       ::testing::Values(1u, 4u, 13u),
                       ::testing::Values(1u, 8u)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RuntimeTest, CountersFlowFromTasksToJob) {
  JobSpec<Line, uint64_t, uint64_t, WordCount> spec = WordCountSpec();
  spec.mapper_factory = [] {
    class CountingMapper : public WordCountMapper {
     public:
      void Map(const Line& line,
               MapContext<uint64_t, uint64_t>& ctx) override {
        ctx.counters().Increment("lines");
        WordCountMapper::Map(line, ctx);
      }
    };
    return std::make_unique<CountingMapper>();
  };
  JobConfig config;
  config.num_map_tasks = 3;
  auto result =
      RunJob(spec, config, std::vector<Line>{{1}, {2}, {3}, {4}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.counters.Get("lines"), 4u);
}

}  // namespace
}  // namespace spq::mapreduce
