// Durability tests for the CellStore checkpoint / WAL / recovery path
// (cell_store.h "Durability & recovery invariants"). The keystone is the
// crash-point matrix: a checkpoint killed at EVERY write-path boundary
// must leave a store that recovers — from the prior committed epoch, or
// by falling back to a fresh build when nothing ever committed — with
// warm results and ALL SPQ counters bit-identical to a never-crashed
// store, across the three algorithms and both spill modes. Corruption
// tests pin the replica-failover and rebuild-from-dataset fallbacks:
// detected loudly, counted, never served as garbage. The manifest decoder
// tests (ctest label "hostile") re-frame lying manifests under a valid CRC,
// so the parser itself must reject them.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "spq/cell_store.h"
#include "spq/engine.h"
#include "spq/wal.h"

namespace spq::core {
namespace {

// ------------------------------------------------------------ WAL unit

TEST(StoreWalTest, AppendReplayRoundTrip) {
  dfs::MiniDfs dfs({.num_datanodes = 4, .block_size = 256, .replication = 2});
  StoreWal wal(&dfs, "log");
  WalRecord built;
  built.type = WalRecordType::kStoreBuilt;
  built.payload = {1, 2, 3};
  ASSERT_TRUE(wal.Append(built).ok());
  WalRecord begin;
  begin.type = WalRecordType::kCheckpointBegin;
  begin.epoch = 1;
  ASSERT_TRUE(wal.Append(begin).ok());

  StoreWal reader(&dfs, "log");
  auto replay = reader.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->torn_records, 0u);
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].type, WalRecordType::kStoreBuilt);
  EXPECT_EQ(replay->records[0].payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(replay->records[1].type, WalRecordType::kCheckpointBegin);
  EXPECT_EQ(replay->records[1].epoch, 1u);
  EXPECT_EQ(reader.next_seq(), 3u);
}

TEST(StoreWalTest, TornFrameIsSkippedAndLaterRecordsSurvive) {
  dfs::MiniDfs dfs({.num_datanodes = 4, .block_size = 256, .replication = 2});
  StoreWal wal(&dfs, "log");
  WalRecord begin;
  begin.type = WalRecordType::kCheckpointBegin;
  begin.epoch = 1;
  ASSERT_TRUE(wal.Append(begin).ok());
  WalRecord commit;
  commit.type = WalRecordType::kCheckpointCommit;
  commit.epoch = 1;
  ASSERT_TRUE(wal.AppendTorn(commit).ok());  // crashed mid-append

  // A writer that recovered from the crash appends past the hole.
  StoreWal writer2(&dfs, "log");
  ASSERT_TRUE(writer2.Replay().ok());
  WalRecord begin2 = begin;
  begin2.epoch = 2;
  ASSERT_TRUE(writer2.Append(begin2).ok());
  WalRecord commit2 = commit;
  commit2.epoch = 2;
  ASSERT_TRUE(writer2.Append(commit2).ok());

  // Replay skips the torn slot (counted) and sees the later records —
  // the torn commit(1) is gone, the intact epoch-2 pair is visible.
  StoreWal reader(&dfs, "log");
  auto replay = reader.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->torn_records, 1u);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].epoch, 1u);
  EXPECT_EQ(replay->records[1].epoch, 2u);
  EXPECT_EQ(replay->records[1].type, WalRecordType::kCheckpointBegin);
  EXPECT_EQ(replay->records[2].epoch, 2u);
  EXPECT_EQ(replay->records[2].type, WalRecordType::kCheckpointCommit);
}

// --------------------------------------------------- engine-level setup

constexpr uint32_t kGridSize = 9;
constexpr double kMaxRadius = 0.6 / kGridSize;

const Dataset& TestDataset() {
  static const Dataset dataset = [] {
    datagen::ClusteredSpec spec;
    spec.num_objects = 2'500;
    spec.seed = 91;
    spec.vocab_size = 120;
    spec.min_keywords = 2;
    spec.max_keywords = 16;
    spec.num_clusters = 5;
    auto d = datagen::MakeClusteredDataset(spec);
    EXPECT_TRUE(d.ok());
    return *std::move(d);
  }();
  return dataset;
}

EngineOptions MakeOptions(bool spill, const std::string& tag) {
  EngineOptions options;
  options.grid_size = kGridSize;
  options.num_workers = 4;
  options.num_map_tasks = 5;
  options.num_reduce_tasks = 7;  // < cells: multi-cell reduce partitions
  if (spill) {
    options.spill_dir =
        (std::filesystem::temp_directory_path() /
         ("spq_durability_" + tag + "_" +
          std::to_string(static_cast<int>(::getpid()))))
            .string();
  }
  return options;
}

std::vector<Query> SuiteQueries() {
  std::vector<Query> queries;
  uint64_t seed = 400;
  for (uint32_t kw : {1u, 3u}) {
    for (double radius : {0.5 * kMaxRadius, kMaxRadius}) {
      datagen::WorkloadSpec spec;
      spec.num_keywords = kw;
      spec.radius = radius;
      spec.k = 5;
      spec.vocab_size = 120;
      spec.seed = ++seed;
      Query q = datagen::MakeQuery(spec, 0);
      q.radius = radius;
      queries.push_back(q);
    }
  }
  return queries;
}

constexpr Algorithm kAlgos[] = {Algorithm::kPSPQ, Algorithm::kESPQLen,
                                Algorithm::kESPQSco};

/// Runs every (algorithm, query) pair warm and returns the results in a
/// fixed order; failures surface as EXPECT + empty slots.
std::vector<SpqResult> RunSuite(SpqEngine& engine) {
  std::vector<SpqResult> out;
  for (Algorithm algo : kAlgos) {
    for (const Query& q : SuiteQueries()) {
      auto r = engine.Query(q, algo);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.ok() ? *std::move(r) : SpqResult{});
    }
  }
  return out;
}

/// Bit-identical results AND counters: the recovered store must be
/// indistinguishable from the baseline in everything a query observes.
void ExpectSuitesIdentical(const std::vector<SpqResult>& baseline,
                           const std::vector<SpqResult>& got,
                           const std::string& label) {
  ASSERT_EQ(baseline.size(), got.size()) << label;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const SpqResult& a = baseline[i];
    const SpqResult& b = got[i];
    const std::string where = label + " run " + std::to_string(i);
    EXPECT_TRUE(b.info.warm_path) << where;
    EXPECT_FALSE(b.info.cold_fallback) << where;
    ASSERT_EQ(a.entries.size(), b.entries.size()) << where;
    for (std::size_t j = 0; j < a.entries.size(); ++j) {
      EXPECT_EQ(a.entries[j].id, b.entries[j].id) << where << " @" << j;
      EXPECT_EQ(a.entries[j].score, b.entries[j].score) << where << " @" << j;
    }
    EXPECT_EQ(a.info.features_kept, b.info.features_kept) << where;
    EXPECT_EQ(a.info.features_pruned, b.info.features_pruned) << where;
    EXPECT_EQ(a.info.feature_duplicates, b.info.feature_duplicates) << where;
    EXPECT_EQ(a.info.features_examined, b.info.features_examined) << where;
    EXPECT_EQ(a.info.pairs_tested, b.info.pairs_tested) << where;
    EXPECT_EQ(a.info.early_terminations, b.info.early_terminations) << where;
    EXPECT_EQ(a.info.reduce_groups, b.info.reduce_groups) << where;
  }
}

dfs::DfsOptions SmallDfs() {
  return {.num_datanodes = 5, .block_size = 2048, .replication = 2,
          .seed = 11};
}

// ------------------------------------------------- the crash-point matrix

constexpr CellStore::CheckpointCrash kAllCrashes[] = {
    CellStore::CheckpointCrash::kNone,
    CellStore::CheckpointCrash::kMidWalBegin,
    CellStore::CheckpointCrash::kAfterWalBegin,
    CellStore::CheckpointCrash::kMidCells,
    CellStore::CheckpointCrash::kAfterCells,
    CellStore::CheckpointCrash::kAfterManifest,
    CellStore::CheckpointCrash::kMidWalCommit,
};

const char* CrashName(CellStore::CheckpointCrash crash) {
  switch (crash) {
    case CellStore::CheckpointCrash::kNone: return "none";
    case CellStore::CheckpointCrash::kMidWalBegin: return "mid_wal_begin";
    case CellStore::CheckpointCrash::kAfterWalBegin: return "after_wal_begin";
    case CellStore::CheckpointCrash::kMidCells: return "mid_cells";
    case CellStore::CheckpointCrash::kAfterCells: return "after_cells";
    case CellStore::CheckpointCrash::kAfterManifest: return "after_manifest";
    case CellStore::CheckpointCrash::kMidWalCommit: return "mid_wal_commit";
  }
  return "?";
}

class DurabilityCrashTest : public ::testing::TestWithParam<bool> {};

// One committed checkpoint, then a re-checkpoint killed at each boundary:
// recovery must serve the committed epoch (the crashed epoch only when it
// actually committed) with bit-identical warm behavior.
TEST_P(DurabilityCrashTest, CrashedRecheckpointRecoversCommittedEpoch) {
  const bool spill = GetParam();
  const EngineOptions options = MakeOptions(spill, "matrix");

  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  for (CellStore::CheckpointCrash crash : kAllCrashes) {
    const std::string label = std::string("crash=") + CrashName(crash);
    dfs::MiniDfs dfs(SmallDfs());
    auto first = builder.store()->Checkpoint(dfs, "store");
    ASSERT_TRUE(first.ok()) << label << ": " << first.status().ToString();
    EXPECT_EQ(first->epoch, 1u) << label;
    EXPECT_GT(first->cells_written, 0u) << label;

    auto second = builder.store()->Checkpoint(dfs, "store", crash);
    if (crash == CellStore::CheckpointCrash::kNone) {
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_EQ(second->epoch, 2u);
    } else {
      ASSERT_TRUE(second.status().IsAborted()) << label;
    }

    SpqEngine reader(TestDataset(), options);
    ASSERT_TRUE(reader.OpenStore(dfs, "store").ok()) << label;
    ASSERT_TRUE(reader.has_store());
    EXPECT_TRUE(reader.store()->recovered()) << label;
    EXPECT_EQ(reader.store()->checkpoint_epoch(),
              crash == CellStore::CheckpointCrash::kNone ? 2u : 1u)
        << label;
    ExpectSuitesIdentical(baseline, RunSuite(reader), label);
    // Every partition a query touched was restored intact — corruption
    // was never injected here, so nothing may have been rebuilt.
    EXPECT_GT(reader.store()->cells_restored(), 0u) << label;
    EXPECT_EQ(reader.store()->cells_rebuilt(), 0u) << label;
  }
  if (!options.spill_dir.empty()) {
    std::filesystem::remove_all(options.spill_dir);
  }
}

INSTANTIATE_TEST_SUITE_P(SpillModes, DurabilityCrashTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "spill" : "mem";
                         });

// A crash during the FIRST checkpoint leaves nothing committed: OpenStore
// must say NotFound (never serve a partial epoch), and the build fallback
// must behave exactly like the baseline.
TEST(DurabilityTest, NothingCommittedIsNotFoundAndBuildFallbackMatches) {
  const EngineOptions options = MakeOptions(false, "nothing_committed");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  for (CellStore::CheckpointCrash crash : kAllCrashes) {
    if (crash == CellStore::CheckpointCrash::kNone) continue;
    const std::string label = std::string("crash=") + CrashName(crash);
    dfs::MiniDfs dfs(SmallDfs());
    ASSERT_TRUE(
        builder.store()->Checkpoint(dfs, "store", crash).status().IsAborted())
        << label;
    SpqEngine reader(TestDataset(), options);
    EXPECT_TRUE(reader.OpenStore(dfs, "store").IsNotFound()) << label;
    EXPECT_FALSE(reader.has_store()) << label;
    if (crash == CellStore::CheckpointCrash::kAfterManifest) {
      // The nastiest prefix — manifest durable, commit missing. The
      // fallback path the caller takes must be bit-identical too.
      ASSERT_TRUE(reader.BuildStore(kMaxRadius).ok());
      ExpectSuitesIdentical(baseline, RunSuite(reader), label + " rebuild");
    }
  }
}

// ------------------------------------------------------ corruption paths

/// All files of the newest committed epoch holding cell payloads.
std::vector<std::string> CellFilesOf(const dfs::MiniDfs& dfs, uint64_t epoch) {
  std::vector<std::string> files;
  const std::string prefix =
      CellStore::EpochDir("store", epoch) + "/cell-";
  for (const std::string& f : dfs.ListFiles()) {
    if (f.rfind(prefix, 0) == 0) files.push_back(f);
  }
  return files;
}

TEST(DurabilityTest, CorruptReplicaFailsOverWithoutRebuild) {
  const EngineOptions options = MakeOptions(false, "failover");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  // Flip one byte in the FIRST replica of every block of every cell file:
  // reads must detect the bad CRC and fail over to the intact replica.
  const std::vector<std::string> cell_files = CellFilesOf(dfs, 1);
  ASSERT_FALSE(cell_files.empty());
  for (const std::string& file : cell_files) {
    auto meta = dfs.GetMetadata(file);
    ASSERT_TRUE(meta.ok());
    for (const auto& block : meta->blocks) {
      ASSERT_FALSE(block.replicas.empty());
      ASSERT_TRUE(
          dfs.datanode(block.replicas[0]).CorruptReplica(block.block, 3).ok());
    }
  }

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader), "one replica corrupt");
  EXPECT_GT(dfs.corrupt_replicas_detected(), 0u);
  EXPECT_GT(reader.store()->cells_restored(), 0u);
  EXPECT_EQ(reader.store()->cells_rebuilt(), 0u);  // failover sufficed
}

TEST(DurabilityTest, AllReplicasCorruptRebuildsFromDataset) {
  const EngineOptions options = MakeOptions(false, "rebuild");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  // Corrupt EVERY replica of every cell-file block: restore cannot
  // succeed anywhere, so every touched cell must take the loud
  // rebuild-from-dataset fallback — and still serve identical results.
  for (const std::string& file : CellFilesOf(dfs, 1)) {
    auto meta = dfs.GetMetadata(file);
    ASSERT_TRUE(meta.ok());
    for (const auto& block : meta->blocks) {
      for (auto node : block.replicas) {
        ASSERT_TRUE(dfs.datanode(node).CorruptReplica(block.block, 7).ok());
      }
    }
  }

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader), "all replicas corrupt");
  EXPECT_GT(reader.store()->cells_rebuilt(), 0u);
  EXPECT_EQ(reader.store()->cells_restored(), 0u);
  EXPECT_GT(dfs.corrupt_replicas_detected(), 0u);
}

// A recovered store — some cells touched (materialized), some restored
// but untouched, some never loaded — must checkpoint correctly from every
// partition state (SegmentImageOf's three sources), and a store opened
// from THAT checkpoint must still be bit-identical.
TEST(DurabilityTest, RecoveredStoreRecheckpointsFromMixedPartitionStates) {
  const EngineOptions options = MakeOptions(false, "recheckpoint");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  // Touch a few cells only: one small-radius query materializes its
  // cells; the rest of the store stays unloaded (lazy, invariant 3).
  Query probe = SuiteQueries()[0];
  ASSERT_TRUE(reader.Query(probe, Algorithm::kPSPQ).ok());

  dfs::MiniDfs dfs2(SmallDfs());
  auto epoch = reader.CheckpointStore(dfs2, "store");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);  // fresh WAL on dfs2

  SpqEngine reader2(TestDataset(), options);
  ASSERT_TRUE(reader2.OpenStore(dfs2, "store").ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader2), "re-checkpointed");
}

// ------------------------------------------------------------- contracts

TEST(DurabilityTest, DatasetMismatchIsInvalidArgument) {
  const EngineOptions options = MakeOptions(false, "mismatch");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  datagen::UniformSpec spec;
  spec.num_objects = 900;  // different object count => fingerprint differs
  spec.seed = 5;
  spec.vocab_size = 120;
  spec.min_keywords = 1;
  spec.max_keywords = 4;
  auto other = datagen::MakeUniformDataset(spec);
  ASSERT_TRUE(other.ok());
  SpqEngine reader(*std::move(other), options);
  EXPECT_TRUE(reader.OpenStore(dfs, "store").IsInvalidArgument());
}

TEST(DurabilityTest, RecheckpointGarbageCollectsOldEpochs) {
  const EngineOptions options = MakeOptions(false, "gc");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());
  ASSERT_FALSE(CellFilesOf(dfs, 1).empty());
  auto second = builder.store()->Checkpoint(dfs, "store");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, 2u);
  // Epoch 1 is dead weight once epoch 2 committed (invariant 5).
  EXPECT_TRUE(CellFilesOf(dfs, 1).empty());
  EXPECT_FALSE(dfs.FileExists(CellStore::ManifestFile("store", 1)));
  ASSERT_FALSE(CellFilesOf(dfs, 2).empty());

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  EXPECT_EQ(reader.store()->checkpoint_epoch(), 2u);
}

TEST(DurabilityTest, OpenMissingStoreIsNotFound) {
  dfs::MiniDfs dfs(SmallDfs());
  SpqEngine engine(TestDataset(), MakeOptions(false, "missing"));
  EXPECT_TRUE(engine.OpenStore(dfs, "nope").IsNotFound());
}

TEST(DurabilityTest, CheckpointWithoutStoreIsInvalidArgument) {
  dfs::MiniDfs dfs(SmallDfs());
  SpqEngine engine(TestDataset(), MakeOptions(false, "nostore"));
  EXPECT_TRUE(engine.CheckpointStore(dfs, "store").status()
                  .IsInvalidArgument());
}

// Mutation invariant M5: a mutated store no longer matches any image the
// checkpoint format can express against the engine's dataset fingerprint,
// so Checkpoint must refuse loudly with FailedPrecondition — never persist
// a drifted layout. The refusal is sticky across further mutations and
// purely-physical compaction; only a fresh BuildStore clears it.
TEST(DurabilityTest, MutatedStoreRefusesCheckpointUntilRebuilt) {
  const EngineOptions options = MakeOptions(false, "mutated_refuse");
  SpqEngine engine(TestDataset(), options);
  ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());

  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(engine.CheckpointStore(dfs, "store").ok());  // pristine: fine

  DataObject extra;
  extra.id = 77'000'001;
  extra.pos = {0.31, 0.62};
  ASSERT_TRUE(engine.Insert(extra).ok());
  EXPECT_TRUE(engine.store()->mutated());
  EXPECT_TRUE(engine.CheckpointStore(dfs, "store").status()
                  .IsFailedPrecondition());

  // Deleting the insert restores the LOGICAL dataset, and compaction is
  // purely physical — neither un-mutates the store, and both keep the
  // engine-level refusal in force.
  ASSERT_TRUE(engine.Delete(extra.id).ok());
  ASSERT_TRUE(engine.CompactStore().ok());
  EXPECT_TRUE(engine.store()->mutated());
  EXPECT_TRUE(engine.CheckpointStore(dfs, "store").status()
                  .IsFailedPrecondition());
  // The store-level contract holds independently of the engine wrapper.
  EXPECT_TRUE(engine.store()->Checkpoint(dfs, "store").status()
                  .IsFailedPrecondition());

  // A fresh build is checkpointable again and the new epoch round-trips.
  ASSERT_TRUE(engine.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(engine);
  auto epoch = engine.CheckpointStore(dfs, "store");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader), "post-rebuild epoch");

  // A RECOVERED store accepts mutations and serves them warm, but refuses
  // checkpoint exactly like a locally-built-and-mutated one.
  ASSERT_TRUE(reader.Insert(extra).ok());
  auto r = reader.Query(SuiteQueries()[0], Algorithm::kPSPQ);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->info.warm_path);
  EXPECT_TRUE(reader.CheckpointStore(dfs, "store").status()
                  .IsFailedPrecondition());
}

// Whole checkpoint + recovery cycle under deterministic injected storage
// faults (torn writes, short reads, bit flips on block replicas): every
// fault is caught by the per-block CRC + length checks and absorbed by
// replica failover or the per-cell rebuild fallback — results stay
// bit-identical. Replication 3 keeps whole-file loss out of this seed.
TEST(DurabilityTest, RecoveryUnderInjectedStorageFaults) {
  const EngineOptions options = MakeOptions(false, "faulty_dfs");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);

  dfs::DfsOptions dfs_options{.num_datanodes = 8, .block_size = 1024,
                              .replication = 3, .seed = 11};
  dfs_options.faults.storage_fault_prob = 0.15;
  dfs_options.faults.seed = 1234;
  dfs::MiniDfs dfs(dfs_options);

  auto info = builder.store()->Checkpoint(dfs, "store");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  SpqEngine reader(TestDataset(), options);
  ASSERT_TRUE(reader.OpenStore(dfs, "store").ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader), "faulty dfs");
  // p=0.15 per replica I/O across dozens of blocks: this seed must have
  // injected (and the CRCs must have caught) at least one fault.
  EXPECT_GT(dfs.corrupt_replicas_detected() + dfs.faulty_replica_writes(),
            0u);
}

// ------------------------------------------------------ manifest decoding

// The manifest frame is [magic u32][payload length u32][CRC-32C u32]
// [payload]. The payload opens with u32 version, u64 epoch, f64
// max_radius, four f64 bounds, u32 nx, u32 ny, u64 data objects and u32
// cell count, then holds one entry per cell. Integers are little-endian.
constexpr std::size_t kFrameHeaderBytes = 12;
constexpr std::size_t kVersionAt = 0;
constexpr std::size_t kNxAt = 52;
constexpr std::size_t kNyAt = 56;
constexpr std::size_t kNumCellsAt = 68;

uint32_t GetU32At(const std::vector<uint8_t>& bytes, std::size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{bytes[at + i]} << (8 * i);
  return v;
}

void PutU32At(std::vector<uint8_t>& bytes, std::size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// The payload of epoch 1's manifest under "store".
std::vector<uint8_t> ManifestPayload(const dfs::MiniDfs& dfs) {
  auto frame = dfs.ReadFile(CellStore::ManifestFile("store", 1));
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  if (!frame.ok() || frame->size() < kFrameHeaderBytes) return {};
  return std::vector<uint8_t>(frame->begin() + kFrameHeaderBytes,
                              frame->end());
}

/// Replaces epoch 1's manifest with `payload`, framed with the original
/// magic and a valid length and CRC, so only the decoder can reject it.
void ReplaceManifestPayload(dfs::MiniDfs& dfs,
                            const std::vector<uint8_t>& payload) {
  const std::string file = CellStore::ManifestFile("store", 1);
  auto old_frame = dfs.ReadFile(file);
  ASSERT_TRUE(old_frame.ok()) << old_frame.status().ToString();
  Buffer frame;
  frame.PutUint32(GetU32At(*old_frame, 0));
  frame.PutUint32(static_cast<uint32_t>(payload.size()));
  frame.PutUint32(Crc32c(payload));
  frame.PutBytes(payload.data(), payload.size());
  ASSERT_TRUE(dfs.DeleteFile(file).ok());
  ASSERT_TRUE(dfs.WriteFile(file, frame.TakeBytes()).ok());
}

/// The process's peak resident set so far, in KiB.
long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A manifest that claims far more cells than its payload can hold must be
// rejected before the decoder allocates a partition per claimed cell. The
// claim is 1024 x 1024 cells (about 0.5 GB of partitions if allocated);
// never raise it toward UniformGrid's 2^31 cap, where a decoder that
// allocates first would ask for about 1 TB.
TEST(ManifestDecodeTest, CellCountBeyondPayloadIsRejectedBeforeAllocating) {
  const EngineOptions options = MakeOptions(false, "cell_count");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);
  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  constexpr uint32_t kClaimedSide = 1024;
  std::vector<uint8_t> payload = ManifestPayload(dfs);
  ASSERT_GT(payload.size(), kNumCellsAt + 4);
  ASSERT_EQ(GetU32At(payload, kNxAt), kGridSize);  // the layout above holds
  ASSERT_EQ(GetU32At(payload, kNumCellsAt), kGridSize * kGridSize);
  ASSERT_LT(payload.size(), kClaimedSide * kClaimedSide);
  PutU32At(payload, kNxAt, kClaimedSide);
  PutU32At(payload, kNyAt, kClaimedSide);
  PutU32At(payload, kNumCellsAt, kClaimedSide * kClaimedSide);
  ReplaceManifestPayload(dfs, payload);

  SpqEngine reader(TestDataset(), options);
  const long peak_before_kb = PeakRssKb();
  const Status opened = reader.OpenStore(dfs, "store");
  const long peak_rise_kb = PeakRssKb() - peak_before_kb;
  EXPECT_TRUE(opened.IsNotFound()) << opened.ToString();
  EXPECT_LT(peak_rise_kb, 64 * 1024)
      << "peak RSS rose by " << peak_rise_kb << " KiB";
  EXPECT_FALSE(reader.has_store());
  ASSERT_TRUE(reader.BuildStore(kMaxRadius).ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader), "rebuilt after the claim");
}

// A manifest of the previous format version must fail on its version, not
// be parsed as the current layout. Version 1 ended with a per-cell keyword
// summary section, appended here as version 1 wrote it.
TEST(ManifestDecodeTest, PreviousVersionIsRejected) {
  const EngineOptions options = MakeOptions(false, "version");
  SpqEngine builder(TestDataset(), options);
  ASSERT_TRUE(builder.BuildStore(kMaxRadius).ok());
  const std::vector<SpqResult> baseline = RunSuite(builder);
  dfs::MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(builder.store()->Checkpoint(dfs, "store").ok());

  std::vector<uint8_t> payload = ManifestPayload(dfs);
  ASSERT_GT(payload.size(), kNumCellsAt + 4);
  ASSERT_EQ(GetU32At(payload, kNxAt), kGridSize);  // the layout above holds
  const uint32_t num_cells = GetU32At(payload, kNumCellsAt);
  ASSERT_EQ(num_cells, kGridSize * kGridSize);
  PutU32At(payload, kVersionAt, 1);
  // Per cell: a u64 term signature, then varint min_len, max_len and
  // reachable_features.
  Buffer summaries;
  for (uint32_t cell = 0; cell < num_cells; ++cell) {
    summaries.PutUint64(0x8000'0000'0000'0401ull);
    summaries.PutVarint(2);
    summaries.PutVarint(16);
    summaries.PutVarint(cell % 7);
  }
  payload.insert(payload.end(), summaries.data(),
                 summaries.data() + summaries.size());
  ReplaceManifestPayload(dfs, payload);

  SpqEngine reader(TestDataset(), options);
  const Status opened = reader.OpenStore(dfs, "store");
  EXPECT_TRUE(opened.IsNotFound()) << opened.ToString();
  EXPECT_NE(opened.ToString().find("manifest version 1"), std::string::npos)
      << opened.ToString();
  EXPECT_FALSE(reader.has_store());
  ASSERT_TRUE(reader.BuildStore(kMaxRadius).ok());
  ExpectSuitesIdentical(baseline, RunSuite(reader),
                        "rebuilt after a version-1 manifest");
}

}  // namespace
}  // namespace spq::core
