// Randomized churn-equivalence property tests for the mutable CellStore
// (cell_store.h invariants M1-M5): interleaved Insert/Delete/Query/
// CompactStore schedules against the live engine must stay BIT-IDENTICAL
// — results and every SPQ counter — to a fresh BuildStore() over the
// logically-equivalent dataset (surviving base rows in original order,
// then inserts in insert order). Runs across all three algorithms,
// spill/mem shuffles and compaction on/off, plus directed edge cases:
// delete-all-in-cell, re-insert-after-delete, mutation at the
// max-radius boundary, mutations on a store reopened from a checkpoint
// (each materializes its cell first, invariant M3), and the
// mutation-before-BuildStore / duplicate-id / missing-id error contracts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "spq/cell_store.h"
#include "spq/engine.h"

namespace spq::core {
namespace {

constexpr uint32_t kGridSize = 7;
constexpr double kCellEdge = 1.0 / kGridSize;
constexpr double kMaxRadius = 0.6 * kCellEdge;

/// Same contract as the store-equivalence suite: the "faults"-labeled
/// ctest entry sets SPQ_TEST_FAULTS and the whole schedule then runs
/// under injected task + storage faults — churn equivalence must survive
/// task retries too (mutations themselves are synchronous engine calls;
/// it is the warm query jobs on both engines that retry).
void ApplyEnvFaults(EngineOptions& options) {
  const char* env = std::getenv("SPQ_TEST_FAULTS");
  if (env == nullptr || *env == '\0' || *env == '0') return;
  options.faults.map_failure_prob = 0.15;
  options.faults.reduce_failure_prob = 0.15;
  options.faults.storage_fault_prob = 0.05;
  options.faults.seed = 1409;
  options.max_task_attempts = 50;
}

Dataset MakeMutationDataset(uint64_t seed) {
  datagen::ClusteredSpec spec;
  spec.num_objects = 1'400;
  spec.seed = seed;
  spec.vocab_size = 130;
  spec.min_keywords = 2;
  spec.max_keywords = 14;
  spec.num_clusters = 5;
  auto dataset = datagen::MakeClusteredDataset(spec);
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

Query MakeMutationQuery(uint64_t seed, uint32_t num_keywords, double radius) {
  datagen::WorkloadSpec spec;
  spec.num_keywords = num_keywords;
  spec.radius = radius;
  spec.k = 6;
  spec.vocab_size = 130;
  spec.seed = seed;
  Query q = datagen::MakeQuery(spec, 0);
  q.radius = radius;
  return q;
}

EngineOptions MakeMutationOptions(bool spill, bool auto_compact,
                                  const std::string& tag) {
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  options.num_map_tasks = 5;
  // Fewer reducers than cells: mutations must keep the multi-cell
  // partition bookkeeping (data-only group accounting) exact.
  options.num_reduce_tasks = 5;
  // > 1.0 disables auto-compaction: tombstones then accumulate and the
  // dead-row masking + dead-masked index geometry carry equivalence alone.
  options.compact_dead_fraction = auto_compact ? 0.25 : 2.0;
  if (spill) {
    std::string unique = "spq_mutation_equivalence-" + tag + "-" +
                         std::to_string(static_cast<int>(::getpid()));
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
    options.spill_dir =
        (std::filesystem::temp_directory_path() / unique).string();
  }
  ApplyEnvFaults(options);
  return options;
}

void ExpectBitIdentical(const SpqResult& want, const SpqResult& got,
                        const std::string& label) {
  EXPECT_TRUE(got.info.warm_path) << label;
  EXPECT_FALSE(got.info.cold_fallback) << label;
  ASSERT_EQ(want.entries.size(), got.entries.size()) << label;
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(want.entries[i].id, got.entries[i].id) << label << " @" << i;
    EXPECT_EQ(want.entries[i].score, got.entries[i].score)
        << label << " @" << i;
  }
  const SpqRunInfo& a = want.info;
  const SpqRunInfo& b = got.info;
  // ALL SPQ counters, not just results: the acceptance bar is that a
  // mutated store is indistinguishable from a fresh rebuild, down to how
  // many pairs the probes tested.
  EXPECT_EQ(a.features_kept, b.features_kept) << label;
  EXPECT_EQ(a.features_pruned, b.features_pruned) << label;
  EXPECT_EQ(a.feature_duplicates, b.feature_duplicates) << label;
  EXPECT_EQ(a.features_examined, b.features_examined) << label;
  EXPECT_EQ(a.pairs_tested, b.pairs_tested) << label;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << label;
  EXPECT_EQ(a.reduce_groups, b.reduce_groups) << label;
}

/// Queries the mutated engine and a fresh reference engine built over the
/// logically-equivalent dataset (shadow data, same features/bounds) and
/// demands bit-identity across a small radius/keyword mix.
void ExpectMatchesFreshRebuild(SpqEngine& mutated,
                               const std::vector<DataObject>& shadow,
                               const Dataset& base, const EngineOptions& opts,
                               Algorithm algo, uint64_t query_seed,
                               const std::string& label) {
  Dataset logical;
  logical.data = shadow;
  logical.features = base.features;
  logical.bounds = base.bounds;
  EngineOptions ref_opts = opts;
  if (!ref_opts.spill_dir.empty()) ref_opts.spill_dir += "-ref";
  SpqEngine reference(std::move(logical), ref_opts);
  ASSERT_TRUE(reference.BuildStore(kMaxRadius).ok()) << label;
  for (double frac : {0.4, 1.0}) {  // mid-range and exactly at the boundary
    for (uint32_t kw : {1u, 3u}) {
      const Query q =
          MakeMutationQuery(query_seed + kw + (frac < 1.0 ? 0 : 40), kw,
                            frac * kMaxRadius);
      auto want = reference.Query(q, algo);
      auto got = mutated.Query(q, algo);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectBitIdentical(*want, *got,
                         label + " kw=" + std::to_string(kw) +
                             " r=" + std::to_string(frac * kMaxRadius));
    }
  }
  if (!ref_opts.spill_dir.empty()) {
    std::filesystem::remove_all(ref_opts.spill_dir);
  }
}

class MutationEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool, bool>> {};

TEST_P(MutationEquivalenceTest, RandomizedChurnMatchesFreshRebuild) {
  const auto [algo, spill, auto_compact] = GetParam();
  const std::string tag =
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
  EngineOptions options = MakeMutationOptions(spill, auto_compact, tag);

  const Dataset base = MakeMutationDataset(71);
  SpqEngine engine(base, options);
  ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());

  // The shadow logical dataset the engine must stay equivalent to:
  // survivors keep original order, inserts append (invariant M2).
  std::vector<DataObject> shadow = base.data;
  ObjectId next_id = 0;
  for (const DataObject& o : shadow) next_id = std::max(next_id, o.id);
  next_id += 1'000;  // clearly outside the generator's id space

  std::mt19937_64 rng(4'100 + static_cast<uint64_t>(algo) * 10 +
                      (spill ? 2 : 0) + (auto_compact ? 1 : 0));
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  constexpr int kOps = 36;
  for (int op = 1; op <= kOps; ++op) {
    if (rng() % 10 < 4 && !shadow.empty()) {
      const std::size_t victim = rng() % shadow.size();
      const ObjectId id = shadow[victim].id;
      ASSERT_TRUE(engine.Delete(id).ok()) << "op " << op;
      shadow.erase(shadow.begin() + static_cast<std::ptrdiff_t>(victim));
      ++deletes;
    } else {
      DataObject object;
      object.id = next_id++;
      if (op % 9 == 0) {
        // Out-of-bounds insert: lands in the clamped edge cell, the same
        // placement the rebuild's map phase derives (invariant M1), and
        // exercises the index's out-of-bbox handling.
        object.pos = {1.0 + 0.5 * static_cast<double>(op % 3),
                      -0.25 * static_cast<double>(1 + op % 2)};
      } else {
        std::uniform_real_distribution<double> coord(0.0, 1.0);
        object.pos = {coord(rng), coord(rng)};
      }
      ASSERT_TRUE(engine.Insert(object).ok()) << "op " << op;
      shadow.push_back(object);
      ++inserts;
    }
    if (op == 2 * kOps / 3) {
      // Tombstone-then-compact mid-schedule: explicit CompactStore() must
      // be invisible to every subsequent comparison (invariant M4).
      ASSERT_TRUE(engine.CompactStore().ok());
    }
    if (op % 12 == 0) {
      ExpectMatchesFreshRebuild(engine, shadow, base, options, algo,
                                8'000 + static_cast<uint64_t>(op) * 10,
                                "op " + std::to_string(op));
    }
  }

  // Mutation bookkeeping is cumulative across the generation chain.
  ASSERT_NE(engine.store(), nullptr);
  EXPECT_TRUE(engine.store()->mutated());
  EXPECT_EQ(engine.store()->inserts_applied(), inserts);
  EXPECT_EQ(engine.store()->deletes_applied(), deletes);
  EXPECT_EQ(engine.store()->data_objects(), shadow.size());
  if (auto_compact) {
    // The aggressive threshold plus the explicit CompactStore() must have
    // compacted something under this much churn.
    EXPECT_GT(engine.store()->cells_compacted(), 0u);
  }
  if (!options.spill_dir.empty()) {
    std::filesystem::remove_all(options.spill_dir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MutationEquivalenceTest,
    ::testing::Combine(::testing::Values(Algorithm::kPSPQ,
                                         Algorithm::kESPQLen,
                                         Algorithm::kESPQSco),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      name += std::get<1>(info.param) ? "_spill" : "_mem";
      name += std::get<2>(info.param) ? "_compact" : "_nocompact";
      return name;
    });

// Directed edge case: every object of one cell deleted. The all-dead cell
// must leave the resident-data group accounting (a rebuild has no such
// cell) while still serving feature-visited groups with the counter
// footprint of an empty cell, under both compaction settings.
TEST(MutationEquivalenceTest, DeleteAllInCellMatchesFreshRebuild) {
  const Dataset base = MakeMutationDataset(72);
  for (const bool auto_compact : {false, true}) {
    EngineOptions options = MakeMutationOptions(
        /*spill=*/false, auto_compact,
        auto_compact ? "delall_c" : "delall_nc");
    SpqEngine engine(base, options);
    ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());
    const geo::UniformGrid& grid = engine.store()->grid();

    // Pick the most populated cell and delete every object in it.
    std::vector<std::vector<ObjectId>> per_cell(grid.num_cells());
    for (const DataObject& o : base.data) {
      per_cell[grid.CellOf(o.pos)].push_back(o.id);
    }
    std::size_t target = 0;
    for (std::size_t c = 0; c < per_cell.size(); ++c) {
      if (per_cell[c].size() > per_cell[target].size()) target = c;
    }
    ASSERT_FALSE(per_cell[target].empty());

    std::vector<DataObject> shadow = base.data;
    for (ObjectId id : per_cell[target]) {
      ASSERT_TRUE(engine.Delete(id).ok());
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        if (shadow[i].id == id) {
          shadow.erase(shadow.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    EXPECT_EQ(
        engine.store()->live_record_count(static_cast<geo::CellId>(target)),
        0u);
    for (Algorithm algo :
         {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
      ExpectMatchesFreshRebuild(
          engine, shadow, base, options, algo, 9'100,
          std::string("delete-all-in-cell ") + AlgorithmName(algo) +
              (auto_compact ? " compact" : " nocompact"));
    }
  }
}

// Directed edge case: delete an object, then insert a NEW object with the
// SAME id. The logical dataset has the id's new row appended at the end
// (not restored in place), and a later delete of that id must remove the
// re-inserted row.
TEST(MutationEquivalenceTest, ReinsertAfterDeleteMatchesFreshRebuild) {
  const Dataset base = MakeMutationDataset(73);
  EngineOptions options =
      MakeMutationOptions(/*spill=*/false, /*auto_compact=*/false, "reins");
  SpqEngine engine(base, options);
  ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());

  std::vector<DataObject> shadow = base.data;
  // Warm the store first, so the mutations copy cells a query served.
  auto warmup = engine.Query(MakeMutationQuery(9'000, 2, kMaxRadius),
                             Algorithm::kPSPQ);
  ASSERT_TRUE(warmup.ok());

  const DataObject original = shadow[shadow.size() / 2];
  ASSERT_TRUE(engine.Delete(original.id).ok());
  shadow.erase(shadow.begin() +
               static_cast<std::ptrdiff_t>(shadow.size() / 2));

  // Same id, same CELL (a nearby position): the re-inserted row lands
  // after its tombstoned predecessor in the same partition.
  DataObject reborn = original;
  reborn.pos.x = std::min(1.0, original.pos.x + 0.2 * kCellEdge);
  ASSERT_TRUE(engine.Insert(reborn).ok());
  shadow.push_back(reborn);

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    ExpectMatchesFreshRebuild(engine, shadow, base, options, algo, 9'200,
                              std::string("re-insert ") +
                                  AlgorithmName(algo));
  }

  // Deleting the id again must remove the REBORN row (the back-scan finds
  // the live instance), leaving the id fully gone.
  ASSERT_TRUE(engine.Delete(reborn.id).ok());
  shadow.pop_back();
  EXPECT_TRUE(engine.Delete(reborn.id).IsNotFound());
  ExpectMatchesFreshRebuild(engine, shadow, base, options,
                            Algorithm::kESPQSco, 9'300,
                            "re-insert then delete-again");
}

// Directed edge case: an inserted object at EXACTLY distance r from a
// feature (the paper's dist <= r is inclusive). The insert must score on
// the boundary identically to a fresh rebuild — whether the insert
// materializes its cell or a query already did.
TEST(MutationEquivalenceTest, InsertAtMaxRadiusBoundaryMatchesFreshRebuild) {
  const Dataset base = MakeMutationDataset(74);
  EngineOptions options =
      MakeMutationOptions(/*spill=*/false, /*auto_compact=*/false, "bound");
  for (const bool warm_first : {false, true}) {
    SpqEngine engine(base, options);
    ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());
    if (warm_first) {
      // Materialize partitions, so the insert copies a served cell.
      auto warmup = engine.Query(MakeMutationQuery(9'400, 2, kMaxRadius),
                                 Algorithm::kPSPQ);
      ASSERT_TRUE(warmup.ok());
    }
    std::vector<DataObject> shadow = base.data;
    // Place inserts exactly max_radius away from real features, axis-
    // aligned so the distance is exact in floating point.
    ObjectId next_id = 50'000'000;
    const std::size_t stride = std::max<std::size_t>(
        1, base.features.size() / 6);
    for (std::size_t j = 0; j < 6 && j * stride < base.features.size();
         ++j) {
      DataObject object;
      object.id = next_id++;
      object.pos = base.features[j * stride].pos;
      object.pos.x += kMaxRadius;
      ASSERT_TRUE(engine.Insert(object).ok());
      shadow.push_back(object);
    }
    for (Algorithm algo :
         {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
      ExpectMatchesFreshRebuild(
          engine, shadow, base, options, algo, 9'500,
          std::string("boundary ") + AlgorithmName(algo) +
              (warm_first ? " ready" : " lazy"));
    }
  }
}

// Invariant M3 on a recovered store: a mutation serves its cell before it
// edits it, the same latched first touch a query makes. Right after
// OpenStore() every cell is still on the DFS, so the first mutation in a
// cell restores its image (or, when every replica of the image is
// corrupt, rebuilds it from the dataset), and a second mutation in the
// same cell touches nothing.
TEST(MutationEquivalenceTest,
     MutationsOnARecoveredStoreMaterializeTheirCellFirst) {
  const Dataset base = MakeMutationDataset(76);
  EngineOptions options =
      MakeMutationOptions(/*spill=*/false, /*auto_compact=*/false, "reopen");
  SpqEngine builder(base, options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  dfs::MiniDfs dfs;
  auto epoch = builder.CheckpointStore(dfs, "store");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  // The three most populated cells: a delete lands in the first, an insert
  // and then a delete in the second, and the third's image is corrupted.
  const geo::UniformGrid& grid = builder.store()->grid();
  std::vector<std::vector<DataObject>> per_cell(grid.num_cells());
  for (const DataObject& o : base.data) {
    per_cell[grid.CellOf(o.pos)].push_back(o);
  }
  std::vector<geo::CellId> cells(grid.num_cells());
  for (geo::CellId c = 0; c < cells.size(); ++c) cells[c] = c;
  std::sort(cells.begin(), cells.end(), [&](geo::CellId a, geo::CellId b) {
    return per_cell[a].size() > per_cell[b].size();
  });
  ASSERT_GE(per_cell[cells[2]].size(), 2u);

  auto meta = dfs.GetMetadata(CellStore::CellFile("store", *epoch, cells[2]));
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  for (const auto& block : meta->blocks) {
    for (auto node : block.replicas) {
      ASSERT_TRUE(dfs.datanode(node).CorruptReplica(block.block, 7).ok());
    }
  }

  SpqEngine engine(base, options);
  ASSERT_TRUE(engine.OpenStore(dfs, "store").ok());
  const auto touched = [&engine] {
    return engine.store()->cells_restored() + engine.store()->cells_rebuilt();
  };
  ASSERT_EQ(touched(), 0u);
  std::vector<DataObject> shadow = base.data;
  const auto erase_from_shadow = [&shadow](ObjectId id) {
    shadow.erase(std::find_if(
        shadow.begin(), shadow.end(),
        [id](const DataObject& o) { return o.id == id; }));
  };

  ASSERT_TRUE(engine.Delete(per_cell[cells[0]].front().id).ok());
  erase_from_shadow(per_cell[cells[0]].front().id);
  EXPECT_EQ(touched(), 1u);

  const geo::Rect rect = grid.CellRect(cells[1]);
  DataObject fresh;
  fresh.id = 60'000'000;
  fresh.pos = {0.5 * (rect.min_x + rect.max_x),
               0.5 * (rect.min_y + rect.max_y)};
  ASSERT_EQ(grid.CellOf(fresh.pos), cells[1]);
  ASSERT_TRUE(engine.Insert(fresh).ok());
  shadow.push_back(fresh);
  EXPECT_EQ(touched(), 2u);
  ASSERT_TRUE(engine.Delete(per_cell[cells[1]].front().id).ok());
  erase_from_shadow(per_cell[cells[1]].front().id);
  EXPECT_EQ(touched(), 2u) << "a second mutation in a served cell";
  EXPECT_EQ(engine.store()->cells_restored(), 2u);
  EXPECT_EQ(engine.store()->cells_rebuilt(), 0u);

  ASSERT_TRUE(engine.Delete(per_cell[cells[2]].front().id).ok());
  erase_from_shadow(per_cell[cells[2]].front().id);
  EXPECT_EQ(engine.store()->cells_rebuilt(), 1u);
  EXPECT_EQ(engine.store()->cells_restored(), 2u);

  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    ExpectMatchesFreshRebuild(engine, shadow, base, options, algo, 9'600,
                              std::string("recovered ") + AlgorithmName(algo));
  }
}

// The restore tallies belong to the store's lineage, not to one
// generation: a first touch made through an older generation that a
// reader still pins counts in the current one too, since the two share
// the touched cell's partition.
TEST(MutationEquivalenceTest,
     RestoresThroughAPinnedGenerationCountInTheCurrentOne) {
  const Dataset base = MakeMutationDataset(77);
  const EngineOptions options =
      MakeMutationOptions(/*spill=*/false, /*auto_compact=*/false, "pinned");
  SpqEngine builder(base, options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  dfs::MiniDfs dfs;
  ASSERT_TRUE(builder.CheckpointStore(dfs, "store").ok());

  // Two non-empty cells: an insert lands in the first, and the pinned
  // generation serves the second.
  const geo::UniformGrid& grid = builder.store()->grid();
  std::vector<geo::CellId> cells;
  for (geo::CellId c = 0; c < grid.num_cells() && cells.size() < 2; ++c) {
    if (builder.store()->cell_record_count(c) > 0) cells.push_back(c);
  }
  ASSERT_EQ(cells.size(), 2u);

  SpqEngine engine(base, options);
  ASSERT_TRUE(engine.OpenStore(dfs, "store").ok());
  const std::shared_ptr<const StoreSnapshot> pinned = engine.snapshot();
  const geo::Rect rect = grid.CellRect(cells[0]);
  DataObject fresh;
  fresh.id = 61'000'000;
  fresh.pos = {0.5 * (rect.min_x + rect.max_x),
               0.5 * (rect.min_y + rect.max_y)};
  ASSERT_EQ(grid.CellOf(fresh.pos), cells[0]);
  ASSERT_TRUE(engine.Insert(fresh).ok());
  ASSERT_NE(engine.store(), pinned->store.get());
  EXPECT_EQ(engine.store()->cells_restored(), 1u);

  ASSERT_TRUE(pinned->store->Serve(cells[1]).ok());
  EXPECT_EQ(pinned->store->cells_restored(), 2u);
  EXPECT_EQ(engine.store()->cells_restored(), 2u);
  EXPECT_EQ(engine.store()->cells_rebuilt(), 0u);
}

TEST(MutationEquivalenceTest, MutationErrorContracts) {
  const Dataset base = MakeMutationDataset(75);
  EngineOptions options =
      MakeMutationOptions(/*spill=*/false, /*auto_compact=*/false, "err");
  SpqEngine engine(base, options);

  DataObject object;
  object.id = 123'456'789;
  object.pos = {0.5, 0.5};
  // Mutations before BuildStore are errors, not queued intents.
  EXPECT_TRUE(engine.Insert(object).IsInvalidArgument());
  EXPECT_TRUE(engine.Delete(base.data.front().id).IsInvalidArgument());
  EXPECT_TRUE(engine.CompactStore().IsInvalidArgument());

  ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());
  ASSERT_TRUE(engine.Insert(object).ok());
  // Duplicate live id: rejected, store untouched.
  EXPECT_TRUE(engine.Insert(object).IsInvalidArgument());
  EXPECT_TRUE(engine.Insert(DataObject{base.data.front().id, {0.1, 0.1}})
                  .IsInvalidArgument());
  // Non-finite positions never reach the store.
  DataObject bad;
  bad.id = 987'654'321;
  bad.pos = {std::numeric_limits<double>::infinity(), 0.5};
  EXPECT_TRUE(engine.Insert(bad).IsInvalidArgument());
  // Deleting an id that never existed (or is already gone) is NotFound.
  EXPECT_TRUE(engine.Delete(424'242'424).IsNotFound());
  ASSERT_TRUE(engine.Delete(object.id).ok());
  EXPECT_TRUE(engine.Delete(object.id).IsNotFound());
  EXPECT_EQ(engine.store()->inserts_applied(), 1u);
  EXPECT_EQ(engine.store()->deletes_applied(), 1u);
  EXPECT_EQ(engine.store()->data_objects(), base.data.size());
}

}  // namespace
}  // namespace spq::core
