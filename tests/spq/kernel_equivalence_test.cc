// Pins for the reduce side: its distance kernel, and warm groups in which
// every feature scores 0.
//
//  - DistanceKernelTest: the AVX2 kernel backend against the portable
//    reference loop, lane for lane, on adversarial inputs.
//  - KernelEquivalenceTest.PrefilterOffWarmMatchesColdOnDisjointVocabularies:
//    with the keyword prefilter off, warm Query() forms groups in which no
//    feature shares a term with the query, joins them through the reduce
//    cores like every other group, and returns what cold Execute()
//    returns, with the same results and SPQ counters. The "faults" ctest
//    entry reruns it under injected task + storage faults.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/simd.h"
#include "spq/engine.h"

namespace spq::core {
namespace {

// ---------------------------------------------------------------- kernel

TEST(DistanceKernelTest, MatchesScalarReferenceLaneForLane) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  // Unaligned lengths around the 4-lane width, plus larger buffers.
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 256u}) {
    std::vector<double> xs(n), ys(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = coord(rng);
      ys[i] = coord(rng);
    }
    const double qx = coord(rng), qy = coord(rng);
    for (double r2 : {0.0, 1e-12, 0.25, 4.0, 64.0}) {
      std::vector<uint8_t> got(n, 0xCD), want(n, 0xAB);
      simd::DistanceWithinMask(xs.data(), ys.data(), n, qx, qy, r2,
                               got.data());
      simd::DistanceWithinMaskScalar(xs.data(), ys.data(), n, qx, qy, r2,
                                     want.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(want[i], got[i]) << "n=" << n << " r2=" << r2 << " i=" << i;
      }
    }
  }
}

TEST(DistanceKernelTest, ExactBoundaryIsInside) {
  // d2 == r2 must report 1 (the scalar `<=`): candidate at distance 3-4-5.
  const double xs[] = {3.0, 3.0, 3.0, 3.0, 3.0};
  const double ys[] = {4.0, 4.0, 4.0, 4.0, 4.0};
  uint8_t out[5];
  simd::DistanceWithinMask(xs, ys, 5, 0.0, 0.0, 25.0, out);
  for (uint8_t o : out) EXPECT_EQ(1, o);
  simd::DistanceWithinMask(xs, ys, 5, 0.0, 0.0,
                           std::nextafter(25.0, 0.0), out);
  for (uint8_t o : out) EXPECT_EQ(0, o);
}

TEST(DistanceKernelTest, NanAndSignedZeroMatchScalarSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double xs[] = {nan, 0.0, -0.0, 1.0, nan};
  const double ys[] = {0.0, nan, -0.0, 1.0, nan};
  uint8_t got[5], want[5];
  simd::DistanceWithinMask(xs, ys, 5, -0.0, 0.0, 10.0, got);
  simd::DistanceWithinMaskScalar(xs, ys, 5, -0.0, 0.0, 10.0, want);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(want[i], got[i]) << i;
  // NaN never satisfies <= — lanes 0, 1 and 4 must be outside.
  EXPECT_EQ(0, got[0]);
  EXPECT_EQ(0, got[1]);
  EXPECT_EQ(0, got[4]);
  EXPECT_EQ(1, got[2]);  // -0.0 vs -0.0: distance 0
}

// ------------------------------------------------- zero-score groups

void ExpectSameRun(const SpqResult& base, const SpqResult& var,
                   const std::string& label) {
  ASSERT_EQ(base.entries.size(), var.entries.size()) << label;
  for (std::size_t i = 0; i < base.entries.size(); ++i) {
    EXPECT_EQ(base.entries[i].id, var.entries[i].id) << label << " @" << i;
    EXPECT_EQ(base.entries[i].score, var.entries[i].score)
        << label << " @" << i;
  }
  const SpqRunInfo& a = base.info;
  const SpqRunInfo& b = var.info;
  EXPECT_EQ(a.features_kept, b.features_kept) << label;
  EXPECT_EQ(a.features_pruned, b.features_pruned) << label;
  EXPECT_EQ(a.feature_duplicates, b.feature_duplicates) << label;
  EXPECT_EQ(a.features_examined, b.features_examined) << label;
  EXPECT_EQ(a.pairs_tested, b.pairs_tested) << label;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << label;
  EXPECT_EQ(a.reduce_groups, b.reduce_groups) << label;
}

/// The "faults"-labeled ctest entries set SPQ_TEST_FAULTS: the suite then
/// runs under injected task + storage faults with a generous retry budget
/// — the store build and the cold job must survive the retry machinery
/// with the same answers.
void ApplyEnvFaults(EngineOptions& options) {
  const char* env = std::getenv("SPQ_TEST_FAULTS");
  if (env == nullptr || *env == '\0' || *env == '0') return;
  options.faults.map_failure_prob = 0.15;
  options.faults.reduce_failure_prob = 0.15;
  options.faults.storage_fault_prob = 0.05;
  options.faults.seed = 1307;
  options.max_task_attempts = 50;
}

/// A hand-built dataset with spatially disjoint vocabularies: data objects
/// everywhere, left-half features talk about terms 0-9, right-half about
/// terms 100-109. A right-half query with the keyword prefilter DISABLED
/// (with it on, groups of disjoint features never form) gives every
/// left-half cell a group whose features all score 0. Served warm, those
/// groups go through the reduce cores like any other, and the run must
/// match the cold run in results and in every SPQ counter.
TEST(KernelEquivalenceTest,
     PrefilterOffWarmMatchesColdOnDisjointVocabularies) {
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.01, 0.99);
  for (ObjectId i = 0; i < 600; ++i) {
    dataset.data.push_back({i, {unit(rng), unit(rng)}});
  }
  std::uniform_int_distribution<text::TermId> left_term(0, 9);
  std::uniform_int_distribution<text::TermId> right_term(100, 109);
  for (ObjectId i = 0; i < 400; ++i) {
    const double x = unit(rng), y = unit(rng);
    const bool left = x < 0.5;
    std::vector<text::TermId> terms;
    for (int t = 0; t < 4; ++t) {
      terms.push_back(left ? left_term(rng) : right_term(rng));
    }
    dataset.features.push_back(
        {1000 + i, {x, y}, text::KeywordSet(std::move(terms))});
  }

  Query query;
  query.k = 5;
  query.radius = 0.05;
  query.keywords = text::KeywordSet{100, 101, 102};

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    EngineOptions options;
    options.grid_size = 8;
    options.num_workers = 2;
    options.keyword_prefilter = false;  // ablation: groups form everywhere
    ApplyEnvFaults(options);
    SpqEngine engine(dataset, options);
    ASSERT_TRUE(engine.BuildStore(query.radius).ok());
    auto cold = engine.Execute(query, algo);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    auto warm = engine.Query(query, algo);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_TRUE(warm->info.warm_path) << AlgorithmName(algo);
    ExpectSameRun(*cold, *warm, "prefilter off " + AlgorithmName(algo));
  }
}

}  // namespace
}  // namespace spq::core
