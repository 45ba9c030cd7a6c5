#include "mapreduce/fault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "mapreduce/runtime.h"
#include "testing/u64_shuffle.h"

namespace spq::mapreduce {
namespace {

using testing::SumsByGroup;

TEST(FaultSpecTest, DisabledByDefault) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(AttemptFails(spec, 0, 0, 0));
  EXPECT_FALSE(AttemptFails(spec, 1, 7, 3));
}

TEST(FaultSpecTest, DeterministicDecisions) {
  FaultSpec spec;
  spec.map_failure_prob = 0.5;
  spec.seed = 9;
  for (uint32_t task = 0; task < 50; ++task) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(AttemptFails(spec, 0, task, attempt),
                AttemptFails(spec, 0, task, attempt));
    }
  }
}

TEST(FaultSpecTest, ProbabilityRoughlyRespected) {
  FaultSpec spec;
  spec.map_failure_prob = 0.3;
  spec.seed = 123;
  int failures = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (AttemptFails(spec, 0, static_cast<uint32_t>(i), 0)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.3, 0.02);
}

TEST(FaultSpecTest, ProbabilityOneAlwaysFails) {
  FaultSpec spec;
  spec.reduce_failure_prob = 1.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_TRUE(AttemptFails(spec, 1, 0, attempt));
  }
}

// ------------------------------------------------ end-to-end with a job

/// Sums of 0..999 by v % 10.
JobSpec<uint64_t, uint64_t, uint64_t, testing::GroupSum> SumSpec() {
  return testing::GroupSumSpec(10);
}

std::vector<uint64_t> TestInput() {
  std::vector<uint64_t> input;
  for (uint64_t i = 0; i < 1000; ++i) input.push_back(i);
  return input;
}

TEST(FaultInjectionTest, RetriedTasksProduceIdenticalResults) {
  const auto input = TestInput();

  JobConfig clean;
  clean.num_map_tasks = 8;
  clean.num_reduce_tasks = 4;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.faults.map_failure_prob = 0.5;
  faulty.faults.reduce_failure_prob = 0.5;
  faulty.faults.seed = 77;
  faulty.max_task_attempts = 20;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(SumsByGroup(result->records), SumsByGroup(expected->records));
  // With p=0.5 over 12 tasks, some failures are certain for this seed.
  EXPECT_GT(result->stats.map_task_failures +
                result->stats.reduce_task_failures,
            0u);
}

TEST(FaultInjectionTest, NoDoubleCountingAfterRetries) {
  const auto input = TestInput();
  JobConfig faulty;
  faulty.num_map_tasks = 6;
  faulty.num_reduce_tasks = 3;
  faulty.faults.map_failure_prob = 0.6;
  faulty.faults.seed = 5;
  faulty.max_task_attempts = 30;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok());
  // Sum over all groups must equal sum 0..999 exactly once.
  uint64_t total = 0;
  for (const auto& r : result->records) total += r.sum;
  EXPECT_EQ(total, 999ull * 1000 / 2);
  EXPECT_EQ(result->stats.map_output_records, 1000u);
}

TEST(FaultInjectionTest, ExhaustedAttemptsAbortJob) {
  JobConfig config;
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 2;
  config.faults.map_failure_prob = 1.0;
  config.max_task_attempts = 3;
  auto result = RunJob(SumSpec(), config, TestInput());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
}

// Storage faults on the spill path (torn writes caught by the
// verify-after-write, short reads / bit flips caught by the page CRCs)
// must behave like task failures: the attempt retries with a fresh fault
// roll and the job converges to the exact clean-run output.
TEST(FaultInjectionTest, StorageFaultsOnSpillPathConverge) {
  const auto input = TestInput();

  JobConfig clean;
  clean.num_map_tasks = 6;
  clean.num_reduce_tasks = 4;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.spill_dir = (std::filesystem::temp_directory_path() /
                      ("spq_fault_storage_" + std::to_string(::getpid())))
                         .string();
  faulty.faults.storage_fault_prob = 0.3;
  faulty.faults.seed = 41;
  faulty.max_task_attempts = 50;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(SumsByGroup(result->records), SumsByGroup(expected->records));
  // p=0.3 per storage site over 24 spill files: detections are certain
  // for this seed, and every one cost an attempt, never a wrong record.
  EXPECT_GT(result->stats.storage_fault_detections, 0u);
  std::filesystem::remove_all(faulty.spill_dir);
}

// Task faults and storage faults together: the combined retry machinery
// must still converge to the clean output.
TEST(FaultInjectionTest, TaskAndStorageFaultsTogetherConverge) {
  const auto input = TestInput();
  JobConfig clean;
  clean.num_map_tasks = 5;
  clean.num_reduce_tasks = 3;
  auto expected = RunJob(SumSpec(), clean, input);
  ASSERT_TRUE(expected.ok());

  JobConfig faulty = clean;
  faulty.spill_dir = (std::filesystem::temp_directory_path() /
                      ("spq_fault_both_" + std::to_string(::getpid())))
                         .string();
  faulty.faults.map_failure_prob = 0.3;
  faulty.faults.reduce_failure_prob = 0.3;
  faulty.faults.storage_fault_prob = 0.2;
  faulty.faults.seed = 97;
  faulty.max_task_attempts = 60;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SumsByGroup(result->records), SumsByGroup(expected->records));
  std::filesystem::remove_all(faulty.spill_dir);
}

// Without a spill dir there is no storage I/O to fault: the knob must be
// inert for in-memory shuffles, not a hidden failure source.
TEST(FaultInjectionTest, StorageFaultsInertWithoutSpill) {
  const auto input = TestInput();
  JobConfig config;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 4;
  config.faults.storage_fault_prob = 1.0;
  config.faults.seed = 3;
  auto result = RunJob(SumSpec(), config, input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.storage_fault_detections, 0u);
  EXPECT_EQ(result->records.size(), 10u);
}

TEST(FaultInjectionTest, ReduceOnlyFaultsRecover) {
  const auto input = TestInput();
  JobConfig faulty;
  faulty.num_reduce_tasks = 5;
  faulty.faults.reduce_failure_prob = 0.7;
  faulty.faults.seed = 31;
  faulty.max_task_attempts = 50;
  auto result = RunJob(SumSpec(), faulty, input);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.reduce_task_failures, 0u);
  EXPECT_EQ(result->records.size(), 10u);
}

}  // namespace
}  // namespace spq::mapreduce
