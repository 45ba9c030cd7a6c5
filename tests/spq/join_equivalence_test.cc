// Oracle tests for the reduce-side spatial join, in which every group
// probes its cell's CellGridIndex (reduce_core.h) instead of scanning the
// cell. Across all three algorithms, spill/no-spill, cold single-query
// execution, and warm Query()/QueryBatch(),
// the results must match the brute-force linear scan of sequential.h
// (BruteForceSpq): the same score at every rank, and every reported
// entry's score equal to that object's true τ(p) (BruteForceScore) —
// what algorithms_test.cc checks.
//
// Workloads deliberately include the shapes the index must not get wrong:
// coarse grids (many objects per cell), r = a/2 (the duplication-regime
// boundary), r close to a (nearly every feature duplicated), and cells
// holding features but zero data objects.
//
// Why the index answers exactly like a full scan of the cell — with every
// SPQ counter but `reduce.pairs_tested` unchanged — is pinned by the
// CellGridIndexTest unit tests below: a probe's candidates cover the exact
// r-disk, each candidate is visited once, and SortedCandidates comes back
// ascending; the cores then apply the exact distance test to every
// candidate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "geo/grid.h"
#include "spq/engine.h"
#include "spq/reduce_core.h"
#include "spq/sequential.h"
#include "testing/batch_oracle.h"
#include "text/jaccard.h"
#include "text/keyword_set.h"

namespace spq::core {
namespace {

/// Uniform features everywhere; data objects either uniform too, or
/// confined to the left half of the space (`data_gap`), so roughly half
/// the grid's cells receive feature-only reduce groups — the 0-data
/// degenerate shape. Data object i has id i.
Dataset MakeJoinDataset(uint64_t seed, bool data_gap) {
  Rng rng(seed);
  Dataset dataset;
  dataset.bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};
  for (uint32_t i = 0; i < 1'500; ++i) {
    DataObject p;
    p.id = i;
    p.pos = {data_gap ? rng.NextDouble() * 0.5 : rng.NextDouble(),
             rng.NextDouble()};
    dataset.data.push_back(p);
  }
  for (uint32_t i = 0; i < 1'500; ++i) {
    FeatureObject f;
    f.id = 100'000 + i;
    f.pos = {rng.NextDouble(), rng.NextDouble()};
    std::vector<text::TermId> terms;
    const uint32_t n = 2 + rng.NextUint32(6);
    for (uint32_t t = 0; t < n; ++t) terms.push_back(rng.NextUint32(50));
    f.keywords = text::KeywordSet(std::move(terms));
    dataset.features.push_back(f);
  }
  return dataset;
}

Query MakeJoinQuery(uint64_t seed, double radius) {
  Rng rng(seed);
  Query q;
  q.k = 5 + rng.NextUint32(10);
  q.radius = radius;
  q.keywords = text::KeywordSet(
      {rng.NextUint32(50), rng.NextUint32(50), rng.NextUint32(50)});
  return q;
}

/// `got` must carry the oracle's score at every rank, and every entry must
/// be truthful: its score is the object's τ(p).
void ExpectMatchesOracle(const std::vector<ResultEntry>& got,
                         const std::vector<ResultEntry>& oracle,
                         const Dataset& dataset, const Query& query,
                         const std::string& label) {
  ASSERT_EQ(got.size(), oracle.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].score, oracle[i].score) << label << " rank " << i;
  }
  for (const ResultEntry& e : got) {
    ASSERT_LT(e.id, dataset.data.size()) << label << " unknown id " << e.id;
    EXPECT_DOUBLE_EQ(e.score,
                     BruteForceScore(dataset.data[e.id], dataset, query))
        << label << " id " << e.id;
  }
}

/// A per-test spill directory under the system temp dir ("" without spill).
std::string SpillDir(bool spill) {
  if (!spill) return "";
  std::string unique =
      "spq_join_equivalence-" +
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      "-" + std::to_string(static_cast<int>(::getpid()));
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  return (std::filesystem::temp_directory_path() / unique).string();
}

class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(JoinEquivalenceTest, GridIndexMatchesLinearScan) {
  const auto [algo, spill] = GetParam();

  EngineOptions options;
  // Coarse grid: 4x4 cells over 3000 objects puts ~200 objects in every
  // reduce group — the workload where an |O_i|·|F_i| scan blows up, and
  // big enough that probe/bucket edge cases get exercised.
  options.grid_size = 4;
  options.num_workers = 4;
  // 9 map tasks: up to nine segments per reduce partition, an odd fan-in
  // for FlatMergeStream's loser tree.
  options.num_map_tasks = 9;
  options.num_reduce_tasks = 7;  // fewer reducers than cells
  const std::string spill_dir = SpillDir(spill);
  options.spill_dir = spill_dir;

  const double cell_edge = 1.0 / options.grid_size;
  for (uint64_t seed : {21ull, 22ull}) {
    for (const bool data_gap : {false, true}) {
      const Dataset dataset = MakeJoinDataset(seed, data_gap);
      SpqEngine engine(dataset, options);
      ASSERT_TRUE(engine.BuildStore(0.95 * cell_edge).ok());
      // r = 0.1a (probe covers a small part of the cell, the index's win
      // case), r = a/2 (the paper's duplication-regime boundary) and
      // r = 0.95a (nearly every feature duplicated into neighbor cells).
      for (const double radius :
           {0.1 * cell_edge, 0.5 * cell_edge, 0.95 * cell_edge}) {
        const Query query = MakeJoinQuery(seed * 31 + radius * 100, radius);
        const std::vector<ResultEntry> oracle = BruteForceSpq(dataset, query);
        const std::string label = "seed=" + std::to_string(seed) +
                                  " gap=" + std::to_string(data_gap) +
                                  " r=" + std::to_string(radius);
        auto cold = engine.Execute(query, algo);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        ExpectMatchesOracle(cold->entries, oracle, dataset, query,
                            label + " cold");
        auto warm = engine.Query(query, algo);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        EXPECT_TRUE(warm->info.warm_path) << label;
        ExpectMatchesOracle(warm->entries, oracle, dataset, query,
                            label + " warm");
      }
    }
  }
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Bool()),
    [](const auto& info) {
      // "_bucketed" names the cell-bucketed flat shuffle every job runs.
      return AlgorithmName(std::get<0>(info.param)) + "_bucketed" +
             (std::get<1>(info.param) ? "_spill" : "_mem");
    });

TEST(JoinEquivalenceTest, BatchGridIndexMatchesLinearScan) {
  const Dataset dataset = MakeJoinDataset(91, /*data_gap=*/true);
  const double cell_edge = 1.0 / 4;
  std::vector<Query> queries;
  std::vector<std::vector<ResultEntry>> oracles;
  double max_radius = 0.0;
  for (uint32_t i = 0; i < 4; ++i) {
    Query q = MakeJoinQuery(700 + i, (0.3 + 0.2 * i) * cell_edge);
    q.k = 3 + i;
    queries.push_back(q);
    oracles.push_back(BruteForceSpq(dataset, q));
    max_radius = std::max(max_radius, q.radius);
  }

  for (const bool spill : {false, true}) {
    EngineOptions options;
    options.grid_size = 4;
    options.num_workers = 4;
    options.num_map_tasks = 9;
    options.num_reduce_tasks = 5;
    const std::string spill_dir = SpillDir(spill);
    options.spill_dir = spill_dir;
    SpqEngine engine(dataset, options);
    ASSERT_TRUE(engine.BuildStore(max_radius).ok());
    for (Algorithm algo : {Algorithm::kPSPQ, Algorithm::kESPQLen,
                           Algorithm::kESPQSco}) {
      const std::string label =
          AlgorithmName(algo) + (spill ? " spill" : " mem");
      auto warm = engine.QueryBatch(queries, algo);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_TRUE(warm->warm_path);
      ASSERT_EQ(warm->per_query.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ExpectMatchesOracle(warm->per_query[q], oracles[q], dataset,
                            queries[q],
                            label + " query " + std::to_string(q) + " warm");
      }
      // The cold single-query jobs (spilled on the spill pass) answer and
      // count exactly as the batch does.
      testing::ExpectBatchMatchesSingleQueryJobs(engine, queries, algo, *warm,
                                                 label);
    }
    if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  }
}

// The index must actually skip work on coarse cells, not merely tie a full
// scan of them. k = |O| keeps every group's top-k threshold at 0, so a full
// scan would test every kept feature copy against every data object of the
// cell it lands in (bar the few an earlier feature already scored as high);
// the test counts those pairs itself from the grid geometry.
TEST(JoinEquivalenceTest, GridIndexTestsStrictlyFewerPairsOnCoarseGrid) {
  const Dataset dataset = MakeJoinDataset(5, /*data_gap=*/false);
  EngineOptions options;
  options.grid_size = 4;
  options.num_workers = 4;
  SpqEngine engine(dataset, options);
  // A realistic coarse-grid shape: query radius well below the (large)
  // cell edge, so each probe's r-disk covers a small fraction of the cell.
  Query query = MakeJoinQuery(17, 0.1 * (1.0 / 4));
  query.k = static_cast<uint32_t>(dataset.data.size());
  auto result = engine.Execute(query, Algorithm::kPSPQ);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto grid = geo::UniformGrid::Make(dataset.bounds, options.grid_size,
                                     options.grid_size);
  ASSERT_TRUE(grid.ok());
  std::vector<uint64_t> data_per_cell(grid->num_cells(), 0);
  for (const DataObject& p : dataset.data) ++data_per_cell[grid->CellOf(p.pos)];
  // Every feature sharing a keyword with q.W survives the map side, in its
  // own cell and in each Lemma-1 duplicate.
  uint64_t feature_copies = 0;
  uint64_t full_scan_pairs = 0;
  for (const FeatureObject& f : dataset.features) {
    if (text::Jaccard(f.keywords, query.keywords) == 0.0) continue;
    std::vector<geo::CellId> cells = grid->CellsWithinDist(f.pos, query.radius);
    cells.push_back(grid->CellOf(f.pos));
    for (geo::CellId c : cells) full_scan_pairs += data_per_cell[c];
    feature_copies += cells.size();
  }
  // The bound covers exactly the feature copies the job shuffled.
  ASSERT_EQ(feature_copies,
            result->info.features_kept + result->info.feature_duplicates);
  EXPECT_LT(result->info.pairs_tested, full_scan_pairs / 2)
      << "expected the r-disk probe to skip most of each coarse cell";
}

// ---------------------------------------------------------------------------
// CellGridIndex unit tests: the probe must be a superset of the exact
// r-disk under any bucket geometry, and SortedCandidates must come back
// ascending and duplicate-free (eSPQsco's report order depends on it).
// ---------------------------------------------------------------------------

TEST(CellGridIndexTest, CandidatesCoverDiskAndVisitOnce) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.NextUint32(300);
    std::vector<geo::Point> positions;
    positions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back({rng.NextDouble(), rng.NextDouble() * 0.3});
    }
    reduce_core::CellGridIndex index;
    index.Build(positions);
    for (int probe = 0; probe < 30; ++probe) {
      // Probe points wander outside the data bounding box, as duplicated
      // features do.
      const geo::Point p{rng.NextDouble(-0.3, 1.3), rng.NextDouble(-0.3, 1.3)};
      const double r = rng.NextDouble() * 0.4;
      const double r2 = r * r;
      std::vector<uint32_t> sorted;
      index.SortedCandidates(p, r, &sorted);
      for (std::size_t i = 1; i < sorted.size(); ++i) {
        ASSERT_LT(sorted[i - 1], sorted[i]) << "not ascending/unique";
      }
      std::vector<bool> is_candidate(n, false);
      for (uint32_t i : sorted) {
        ASSERT_LT(i, n);
        is_candidate[i] = true;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (geo::Distance2(positions[i], p) <= r2) {
          EXPECT_TRUE(is_candidate[i])
              << "in-disk point " << i << " missing from probe";
        }
      }
      // ForEachCandidate agrees with SortedCandidates (same set, each
      // visited exactly once).
      std::vector<uint32_t> walked;
      index.ForEachCandidate(p, r, [&](uint32_t i) { walked.push_back(i); });
      std::sort(walked.begin(), walked.end());
      EXPECT_EQ(walked, sorted);
    }
  }
}

TEST(CellGridIndexTest, DegenerateGeometries) {
  reduce_core::CellGridIndex index;

  // Empty build: probes yield nothing.
  index.Build({});
  std::vector<uint32_t> out{7};
  index.SortedCandidates({0.5, 0.5}, 1.0, &out);
  EXPECT_TRUE(out.empty());

  // All positions identical (zero-area bounding box).
  std::vector<geo::Point> same(5, geo::Point{0.25, 0.75});
  index.Build(same);
  index.SortedCandidates({0.25, 0.75}, 0.0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  index.SortedCandidates({0.9, 0.9}, 0.01, &out);
  // Bucket-granular: one bucket, so everything is a candidate even though
  // nothing is in range — the exact distance test belongs to the caller.
  EXPECT_EQ(out.size(), 5u);

  // r = 0: the probe still finds the exact point.
  std::vector<geo::Point> line;
  for (int i = 0; i < 64; ++i) {
    line.push_back({static_cast<double>(i) / 64.0, 0.5});
  }
  index.Build(line);
  index.SortedCandidates({10.0 / 64.0, 0.5}, 0.0, &out);
  bool found = false;
  for (uint32_t i : out) found = found || i == 10;
  EXPECT_TRUE(found);
}

// Probes ARBITRARILY far outside the built bounding box, as duplicated
// features may lie: their bucket coordinates overflow any naive
// double→int cast, so this pins the clamp-before-cast contract of the
// probe range (finite huge magnitudes land in a boundary bucket, never
// UB). Such probes must still cover the r-disk.
TEST(CellGridIndexTest, ExtremeProbesStayClamped) {
  Rng rng(4099);
  std::vector<geo::Point> positions;
  for (int i = 0; i < 80; ++i) {
    positions.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  reduce_core::CellGridIndex index;
  index.Build(positions);

  std::vector<geo::Point> probes{{0.5, 0.5}, {1e12, 0.5e12}, {-1e9, 0.0},
                                 {-2.5e14, -2.75e13},         {0.0, 3.5e15}};
  for (const geo::Point& p : probes) {
    for (double r : {0.0, 0.3, 1e10, 5e15}) {
      const double r2 = r * r;
      std::vector<uint32_t> got;
      index.SortedCandidates(p, r, &got);
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LT(got[i - 1], got[i]) << "not ascending/unique";
      }
      std::vector<bool> is_candidate(positions.size(), false);
      for (uint32_t i : got) {
        ASSERT_LT(i, positions.size());
        is_candidate[i] = true;
      }
      for (std::size_t i = 0; i < positions.size(); ++i) {
        if (geo::Distance2(positions[i], p) <= r2) {
          EXPECT_TRUE(is_candidate[i])
              << "in-disk point " << i << " missing at extreme coordinates";
        }
      }
    }
  }

  // A full-cover probe from far outside returns every point, exactly once.
  std::vector<uint32_t> all;
  index.SortedCandidates({0.0, 0.0}, 1e16, &all);
  EXPECT_EQ(all.size(), positions.size());
}

// The dead-masked Build overload is the geometry backbone of mutation
// invariant M2 (cell_store.h): an index built over physical rows with the
// dead ones masked OUT must present EXACTLY the bucket geometry of a
// fresh index built over the surviving rows alone — same bbox, same side,
// same bucket assignment — with candidates reported as physical indices.
// Because the live→physical mapping is strictly increasing, the masked
// index's sorted candidates must equal the survivor-built index's
// candidates mapped through it, element for element. Dead rows must never
// surface, even when they would dominate the physical bounding box.
TEST(CellGridIndexTest, DeadMaskedBuildMatchesFreshBuildOverSurvivors) {
  Rng rng(6151);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 1 + rng.NextUint32(250);
    std::vector<geo::Point> positions;
    std::vector<uint8_t> dead;
    for (std::size_t i = 0; i < n; ++i) {
      // A fifth of the rows — including dead ones — sit far outside the
      // unit square, so a geometry leak (dead rows stretching the bbox)
      // would shift every bucket boundary and fail the exact comparison.
      const bool wild = rng.NextUint32(5) == 0;
      const double spread = wild ? 40.0 : 1.0;
      positions.push_back({rng.NextDouble() * spread - (wild ? 20.0 : 0.0),
                           rng.NextDouble() * spread});
      dead.push_back(rng.NextUint32(3) == 0 ? 1 : 0);
    }

    std::vector<geo::Point> survivors;
    std::vector<uint32_t> live_phys;  // survivor slot -> physical row
    for (std::size_t i = 0; i < n; ++i) {
      if (!dead[i]) {
        survivors.push_back(positions[i]);
        live_phys.push_back(static_cast<uint32_t>(i));
      }
    }

    reduce_core::CellGridIndex masked;
    masked.Build(positions, &dead);
    reduce_core::CellGridIndex reference;
    reference.Build(survivors);

    for (int probe = 0; probe < 25; ++probe) {
      const geo::Point p{rng.NextDouble(-0.5, 1.5), rng.NextDouble(-0.5, 1.5)};
      const double r = rng.NextDouble() * 0.5;
      std::vector<uint32_t> got;
      masked.SortedCandidates(p, r, &got);
      std::vector<uint32_t> want;
      reference.SortedCandidates(p, r, &want);
      for (uint32_t& slot : want) slot = live_phys[slot];
      EXPECT_EQ(got, want) << "round " << round << " probe " << probe
                           << ": masked geometry drifted from survivors";
      for (uint32_t i : got) {
        ASSERT_LT(i, n);
        EXPECT_FALSE(dead[i]) << "dead row " << i << " surfaced";
      }
    }

    // Everything-dead: the masked index must stay probe-safe and empty.
    std::vector<uint8_t> all_dead(n, 1);
    reduce_core::CellGridIndex empty;
    empty.Build(positions, &all_dead);
    std::vector<uint32_t> none{42};
    empty.SortedCandidates({0.5, 0.5}, 100.0, &none);
    EXPECT_TRUE(none.empty());
  }
}

}  // namespace
}  // namespace spq::core
