// Restore-equivalence tests — the durability acceptance criterion: for
// every monitor kind, checkpoint at block k, restore into a fresh process
// image, feed blocks k+1..n into both the original and the restored
// monitor, and the maintained models must match entry-for-entry. A WAL
// variant crashes "for real" (the post-checkpoint arrivals exist only in
// the log) and must converge bit-identically after replay.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/demon_monitor.h"
#include "datagen/cluster_generator.h"
#include "datagen/labeled_generator.h"
#include "datagen/quest_generator.h"
#include "itemsets/model_io.h"
#include "persistence/block_codec.h"
#include "persistence/file_header.h"

namespace demon {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Workload helpers (same generators and parameters as engine_test.cc).

std::vector<TransactionBlock> MakeTxBlocks(size_t num_blocks,
                                           size_t block_size,
                                           size_t num_items, uint64_t seed) {
  QuestParams params;
  params.num_transactions = num_blocks * block_size;
  params.num_items = num_items;
  params.num_patterns = 30;
  params.avg_transaction_len = 6;
  params.seed = seed;
  QuestGenerator gen(params);
  std::vector<TransactionBlock> blocks;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.push_back(gen.NextBlock(block_size, tid));
    tid += block_size;
  }
  return blocks;
}

std::vector<PointBlock> MakePointBlocks(size_t num_blocks, size_t block_size,
                                        size_t dim, uint64_t seed) {
  ClusterGenParams params;
  params.num_points = num_blocks * block_size;
  params.num_clusters = 5;
  params.dim = dim;
  params.seed = seed;
  ClusterGenerator gen(params);
  std::vector<PointBlock> blocks;
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.push_back(gen.NextBlock(block_size));
  }
  return blocks;
}

LabeledSchema TestSchema() {
  LabeledSchema schema;
  schema.attribute_cardinalities = {3, 2, 4, 2};
  schema.num_classes = 2;
  return schema;
}

std::vector<LabeledBlock> MakeLabeledBlocks(size_t num_blocks,
                                            size_t block_size,
                                            uint64_t seed) {
  LabeledGenerator::Params params;
  params.schema = TestSchema();
  params.concept_depth = 3;
  params.seed = seed;
  LabeledGenerator gen(params);
  std::vector<LabeledBlock> blocks;
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.push_back(gen.NextBlock(block_size));
  }
  return blocks;
}

void ExpectItemsetModelsEqual(const ItemsetModel& a, const ItemsetModel& b) {
  EXPECT_EQ(a.num_transactions(), b.num_transactions());
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (const auto& [itemset, entry] : b.entries()) {
    const auto it = a.entries().find(itemset);
    ASSERT_NE(it, a.entries().end()) << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
    EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
  }
}

void ExpectClusterModelsEqual(const ClusterModel& a, const ClusterModel& b) {
  ASSERT_EQ(a.NumClusters(), b.NumClusters());
  for (size_t c = 0; c < a.NumClusters(); ++c) {
    EXPECT_EQ(a.clusters()[c], b.clusters()[c]);
  }
}

/// Asserts every monitor of `a` and `b` holds an identical model, by kind.
void ExpectMonitorsEqual(const DemonMonitor& a, const DemonMonitor& b) {
  ASSERT_EQ(a.NumMonitors(), b.NumMonitors());
  for (size_t id = 0; id < a.NumMonitors(); ++id) {
    const MonitorSpec& spec = *a.SpecOf(id).value();
    SCOPED_TRACE(spec.name);
    switch (spec.kind) {
      case MonitorKind::kUnrestrictedItemsets:
      case MonitorKind::kWindowedItemsets:
        ExpectItemsetModelsEqual(*a.ItemsetModelOf(id).value(),
                                 *b.ItemsetModelOf(id).value());
        break;
      case MonitorKind::kUnrestrictedClusters:
      case MonitorKind::kWindowedClusters:
        ExpectClusterModelsEqual(*a.ClusterModelOf(id).value(),
                                 *b.ClusterModelOf(id).value());
        break;
      case MonitorKind::kClassifier:
        EXPECT_EQ(a.ClassifierOf(id).value()->ToString(),
                  b.ClassifierOf(id).value()->ToString());
        break;
      case MonitorKind::kPatterns:
        EXPECT_EQ(a.PatternsOf(id).value()->sequences(),
                  b.PatternsOf(id).value()->sequences());
        break;
    }
  }
}

/// The full Figure 11 fleet: every monitor kind, every counting strategy,
/// and both BSS families.
void RegisterFleet(DemonMonitor& demon, size_t dim) {
  BirchOptions birch;
  birch.num_clusters = 5;
  birch.phase2 = Phase2Algorithm::kAgglomerative;
  birch.tree.max_leaf_entries = 128;
  DTreeOptions dtree;
  dtree.min_split_weight = 50.0;

  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                               .name = "uw-ecut",
                               .bss = BlockSelectionSequence::Periodic(2, 0),
                               .minsup = 0.05})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                               .name = "uw-ecut-plus",
                               .minsup = 0.05,
                               .strategy = CountingStrategy::kEcutPlus})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                               .name = "uw-ptscan",
                               .minsup = 0.05,
                               .strategy = CountingStrategy::kPtScan})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                               .name = "mrw-itemsets",
                               .bss = BlockSelectionSequence::WindowRelative(
                                   {true, false, true}),
                               .window = 3,
                               .minsup = 0.05})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                               .name = "mrw-all",
                               .window = 2,
                               .minsup = 0.05,
                               .strategy = CountingStrategy::kPtScan})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                               .name = "uw-clusters",
                               .dim = dim,
                               .birch = birch})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                               .name = "mrw-clusters",
                               .window = 2,
                               .dim = dim,
                               .birch = birch})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kClassifier,
                               .name = "classifier",
                               .schema = TestSchema(),
                               .dtree = dtree})
                  .ok());
  ASSERT_TRUE(demon
                  .AddMonitor({.kind = MonitorKind::kPatterns,
                               .name = "patterns",
                               .minsup = 0.05,
                               .alpha = 0.95})
                  .ok());
}

struct Workload {
  std::vector<TransactionBlock> tx;
  std::vector<PointBlock> points;
  std::vector<LabeledBlock> labeled;
  size_t num_items = 30;
  size_t dim = 3;
};

Workload MakeWorkload() {
  Workload w;
  w.tx = MakeTxBlocks(6, 150, w.num_items, 91);
  w.points = MakePointBlocks(6, 200, w.dim, 92);
  w.labeled = MakeLabeledBlocks(6, 150, 93);
  return w;
}

/// Feeds rounds [from, to) of the interleaved workload.
void Feed(DemonMonitor& demon, const Workload& w, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    demon.AddBlock(w.tx[i]);
    demon.AddPointBlock(w.points[i]);
    demon.AddLabeledBlock(w.labeled[i]);
  }
}

// ---------------------------------------------------------------------------
// The core criterion, exercised over all monitor kinds at once and under
// several engine configurations: sequential, parallel, and parallel with
// GEMM's offline updates deferred (so the checkpoint's Quiesce has real
// pending work to drain).

void RunRestoreEquivalence(const EngineOptions& options) {
  const Workload w = MakeWorkload();
  const size_t k = 3;
  // One file per test: ctest runs the callers in parallel processes.
  const std::string test =
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string ckpt = TempPath(test + ".ckpt");

  DemonMonitor original(w.num_items, options);
  RegisterFleet(original, w.dim);
  Feed(original, w, 0, k);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());

  auto restored = DemonMonitor::Restore(ckpt, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->num_items(), w.num_items);
  EXPECT_EQ(restored.value()->snapshot().latest_id(), k);
  EXPECT_EQ(restored.value()->point_snapshot().latest_id(), k);
  EXPECT_EQ(restored.value()->labeled_snapshot().latest_id(), k);

  // Models must already agree at the checkpoint...
  original.Quiesce();
  ExpectMonitorsEqual(original, *restored.value());

  // ...and keep agreeing as the stream continues past it.
  Feed(original, w, k, w.tx.size());
  Feed(*restored.value(), w, k, w.tx.size());
  original.Quiesce();
  restored.value()->Quiesce();
  ExpectMonitorsEqual(original, *restored.value());

  // The restored structures pass the same deep invariant audits the
  // engine runs at block boundaries in DEMON_AUDIT builds.
  restored.value()->engine().AuditMonitors();
}

TEST(CheckpointRestoreTest, SequentialEngineAllMonitorKinds) {
  RunRestoreEquivalence(EngineOptions{});
}

TEST(CheckpointRestoreTest, ParallelEngine) {
  EngineOptions options;
  options.num_threads = 4;
  RunRestoreEquivalence(options);
}

TEST(CheckpointRestoreTest, ParallelEngineWithDeferredOffline) {
  EngineOptions options;
  options.num_threads = 2;
  options.defer_offline = true;
  RunRestoreEquivalence(options);
}

// Checkpointing mid-stream with offline GEMM work still queued: Checkpoint
// quiesces first, so the deferred future-window updates land before the
// state is saved and the restored monitor continues identically.
TEST(CheckpointRestoreTest, CheckpointWhileGemmOfflineWorkPending) {
  EngineOptions options;
  options.num_threads = 2;
  options.defer_offline = true;

  const Workload w = MakeWorkload();
  const std::string ckpt = TempPath("gemm_pending.ckpt");

  DemonMonitor original(w.num_items, options);
  RegisterFleet(original, w.dim);
  // No Quiesce between the feed and the checkpoint: the engine still owes
  // the GEMM maintainers their offline updates for the last block.
  Feed(original, w, 0, 3);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());

  auto restored = DemonMonitor::Restore(ckpt, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Feed(original, w, 3, w.tx.size());
  Feed(*restored.value(), w, 3, w.tx.size());
  original.Quiesce();
  restored.value()->Quiesce();
  ExpectMonitorsEqual(original, *restored.value());
}

// Restore must work at every cut point of the stream, including before the
// first block (an "empty" checkpoint) and after the last.
TEST(CheckpointRestoreTest, EveryCutPointRoundTrips) {
  const Workload w = MakeWorkload();
  for (size_t k = 0; k <= w.tx.size(); k += 2) {
    const std::string ckpt =
        TempPath("cut_" + std::to_string(k) + ".ckpt");
    DemonMonitor original(w.num_items);
    RegisterFleet(original, w.dim);
    Feed(original, w, 0, k);
    ASSERT_TRUE(original.Checkpoint(ckpt).ok());

    auto restored = DemonMonitor::Restore(ckpt);
    ASSERT_TRUE(restored.ok()) << "cut " << k;
    Feed(original, w, k, w.tx.size());
    Feed(*restored.value(), w, k, w.tx.size());
    original.Quiesce();
    restored.value()->Quiesce();
    ExpectMonitorsEqual(original, *restored.value());
  }
}

// Checkpoint bytes are deterministic: the same monitored state written
// twice (original and its own restore) produces identical files. The
// crash-injection harness diffs final checkpoints on exactly this
// guarantee.
TEST(CheckpointRestoreTest, CheckpointBytesAreDeterministic) {
  const Workload w = MakeWorkload();
  const std::string first = TempPath("determinism_a.ckpt");
  const std::string second = TempPath("determinism_b.ckpt");

  DemonMonitor original(w.num_items);
  RegisterFleet(original, w.dim);
  Feed(original, w, 0, 4);
  ASSERT_TRUE(original.Checkpoint(first).ok());

  auto restored = DemonMonitor::Restore(first);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value()->Checkpoint(second).ok());

  auto a = persistence::ReadPayloadFile(first,
                                        persistence::FormatId::kCheckpoint, 2);
  auto b = persistence::ReadPayloadFile(second,
                                        persistence::FormatId::kCheckpoint, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

// An ECUT-only monitor drops each block's flat records once its item lists
// exist, so its checkpoint writes blocks transposed back from the lists.
// The bytes must equal those of a run whose PT-Scan monitor kept every
// flat block — the snapshot and the shared monitor's section alike — and
// the checkpoint must restore to the same models.
TEST(CheckpointRestoreTest, DroppedBlocksCheckpointAsTheyWereKept) {
  constexpr size_t kItems = 40;
  std::vector<TransactionBlock> blocks = MakeTxBlocks(6, 150, kItems, 808);
  for (size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].mutable_info()->label = "hour " + std::to_string(b);
    blocks[b].mutable_info()->start_time = 3600 * static_cast<int64_t>(b);
    blocks[b].mutable_info()->end_time = 3600 * static_cast<int64_t>(b + 1);
  }
  const MonitorSpec ecut_plus = {.kind = MonitorKind::kUnrestrictedItemsets,
                                 .name = "uw-ecut-plus",
                                 .minsup = 0.05,
                                 .strategy = CountingStrategy::kEcutPlus};
  const MonitorSpec windowed = {.kind = MonitorKind::kWindowedItemsets,
                                .name = "mrw-ecut",
                                .window = 3,
                                .minsup = 0.05,
                                .strategy = CountingStrategy::kEcut};
  EngineOptions engine;
  engine.num_threads = 2;

  DemonMonitor dropped(kItems, engine);
  ASSERT_TRUE(dropped.AddMonitor(ecut_plus).ok());
  ASSERT_TRUE(dropped.AddMonitor(windowed).ok());
  DemonMonitor kept(kItems, engine);
  ASSERT_TRUE(kept.AddMonitor(ecut_plus).ok());
  ASSERT_TRUE(kept.AddMonitor(windowed).ok());
  ASSERT_TRUE(kept.AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                               .name = "uw-ptscan",
                               .minsup = 0.05,
                               .strategy = CountingStrategy::kPtScan})
                  .ok());
  for (const TransactionBlock& block : blocks) {
    dropped.AddBlock(block);
    kept.AddBlock(block);
  }
  dropped.Quiesce();
  kept.Quiesce();
  for (BlockId id = 1; id <= blocks.size(); ++id) {
    ASSERT_EQ(dropped.snapshot().block(id)->LiveTransactions(), nullptr);
    ASSERT_NE(kept.snapshot().block(id)->LiveTransactions(), nullptr);
  }

  const std::string dropped_path = TempPath("dropped_blocks.ckpt");
  const std::string kept_path = TempPath("kept_blocks.ckpt");
  ASSERT_TRUE(dropped.Checkpoint(dropped_path).ok());
  ASSERT_TRUE(kept.Checkpoint(kept_path).ok());
  auto a = persistence::ReadPayloadFile(dropped_path,
                                        persistence::FormatId::kCheckpoint, 2);
  auto b = persistence::ReadPayloadFile(kept_path,
                                        persistence::FormatId::kCheckpoint, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Both open with the snapshot of the blocks as they arrived.
  persistence::Writer prefix;
  prefix.WriteU64(kItems);
  TransactionSnapshot arrived;
  for (const TransactionBlock& block : blocks) arrived.Append(block);
  persistence::WriteSnapshot(prefix, arrived);
  persistence::WriteSnapshot(prefix, PointSnapshot());
  persistence::WriteSnapshot(prefix, LabeledSnapshot());
  const size_t p = prefix.buffer().size();
  ASSERT_GT(a.value().size(), p + 8);
  EXPECT_EQ(a.value().substr(0, p), prefix.buffer());
  EXPECT_EQ(b.value().substr(0, p), prefix.buffer());
  // Then the monitor count (2 and 3), and the two shared monitors' specs
  // and states, byte for byte.
  const std::string monitors = a.value().substr(p + 8);
  EXPECT_EQ(b.value().substr(p + 8, monitors.size()), monitors);

  auto restored = DemonMonitor::Restore(dropped_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectMonitorsEqual(*restored.value(), dropped);
  for (size_t id = 0; id < dropped.NumMonitors(); ++id) {
    ExpectItemsetModelsEqual(*restored.value()->ItemsetModelOf(id).value(),
                             *kept.ItemsetModelOf(id).value());
  }
  // Restored blocks drop their records too, once the monitors are back.
  EXPECT_EQ(restored.value()->snapshot().block(1)->LiveTransactions(),
            nullptr);
}

// Specs survive the round trip, so a deployment can rediscover its
// monitors by kind/name after a restore.
TEST(CheckpointRestoreTest, SpecsSurviveRestore) {
  const Workload w = MakeWorkload();
  const std::string ckpt = TempPath("specs.ckpt");
  DemonMonitor original(w.num_items);
  RegisterFleet(original, w.dim);
  Feed(original, w, 0, 2);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());

  auto restored = DemonMonitor::Restore(ckpt);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value()->NumMonitors(), original.NumMonitors());
  for (size_t id = 0; id < original.NumMonitors(); ++id) {
    const MonitorSpec& before = *original.SpecOf(id).value();
    const MonitorSpec& after = *restored.value()->SpecOf(id).value();
    EXPECT_EQ(after.kind, before.kind);
    EXPECT_EQ(after.name, before.name);
    EXPECT_EQ(after.bss.ToString(), before.bss.ToString());
    EXPECT_EQ(after.window, before.window);
    EXPECT_EQ(after.minsup, before.minsup);
    EXPECT_EQ(after.strategy, before.strategy);
    EXPECT_EQ(restored.value()->NameOf(id).value(), original.NameOf(id).value());
  }
}

// ---------------------------------------------------------------------------
// Crash recovery through the WAL: the post-checkpoint arrivals exist only
// in the log, and replay must converge to the uninterrupted run.

TEST(CheckpointRestoreTest, WalReplayConvergesAfterCrash) {
  const Workload w = MakeWorkload();
  const size_t k = 2;
  const std::string ckpt = TempPath("wal_crash.ckpt");
  const std::string wal = TempPath("wal_crash.log");
  std::remove(wal.c_str());

  // Reference: the uninterrupted run.
  DemonMonitor reference(w.num_items);
  RegisterFleet(reference, w.dim);
  Feed(reference, w, 0, w.tx.size());
  reference.Quiesce();

  // Crashing run: checkpoint at k, then keep going with only the WAL
  // persisting the arrivals — and "crash" by dropping the object.
  {
    DemonMonitor crashing(w.num_items);
    RegisterFleet(crashing, w.dim);
    ASSERT_TRUE(crashing.AttachWal(wal).ok());
    Feed(crashing, w, 0, k);
    ASSERT_TRUE(crashing.Checkpoint(ckpt).ok());
    // Deliberately no ResetWal: replay must cope with records the
    // checkpoint already covers.
    Feed(crashing, w, k, w.tx.size());
    ASSERT_TRUE(crashing.wal_status().ok());
  }

  auto restored = DemonMonitor::Restore(ckpt);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value()->ReplayWal(wal).ok());
  restored.value()->Quiesce();
  ExpectMonitorsEqual(reference, *restored.value());
  EXPECT_EQ(restored.value()->snapshot().latest_id(), w.tx.size());

  // Replay is idempotent: everything in the log is now covered.
  ASSERT_TRUE(restored.value()->ReplayWal(wal).ok());
  EXPECT_EQ(restored.value()->snapshot().latest_id(), w.tx.size());
}

TEST(CheckpointRestoreTest, ResetWalRotatesTheLogAfterCheckpoint) {
  const Workload w = MakeWorkload();
  const std::string ckpt = TempPath("wal_rotate.ckpt");
  const std::string wal = TempPath("wal_rotate.log");
  std::remove(wal.c_str());

  DemonMonitor original(w.num_items);
  RegisterFleet(original, w.dim);
  ASSERT_TRUE(original.AttachWal(wal).ok());
  Feed(original, w, 0, 3);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());
  ASSERT_TRUE(original.ResetWal().ok());
  Feed(original, w, 3, w.tx.size());
  original.Quiesce();

  auto restored = DemonMonitor::Restore(ckpt);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value()->ReplayWal(wal).ok());
  restored.value()->Quiesce();
  ExpectMonitorsEqual(original, *restored.value());
}

TEST(CheckpointRestoreTest, WalGapAfterCheckpointIsDataLoss) {
  const Workload w = MakeWorkload();
  const std::string ckpt = TempPath("wal_gap.ckpt");
  const std::string wal = TempPath("wal_gap.log");
  std::remove(wal.c_str());

  // Checkpoint covers blocks 1..2; the log holds only block 4's arrival
  // (block 3 was lost — e.g. a rotated-away log segment).
  DemonMonitor original(w.num_items);
  RegisterFleet(original, w.dim);
  Feed(original, w, 0, 2);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());
  {
    auto log = persistence::WriteAheadLog::Open(wal);
    ASSERT_TRUE(log.ok());
    TransactionBlock skipped = w.tx[3];
    skipped.mutable_info()->id = 4;
    ASSERT_TRUE(log.value()->Append(skipped).ok());
  }

  auto restored = DemonMonitor::Restore(ckpt);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->ReplayWal(wal).code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Failure modes: a checkpoint that cannot be trusted is rejected with a
// structured Status — never a crash, never a half-restored monitor.

TEST(CheckpointRestoreTest, MissingWrongFormatAndTruncatedFilesAreRejected) {
  EXPECT_EQ(DemonMonitor::Restore(TempPath("no_such.ckpt")).status().code(),
            StatusCode::kIoError);

  // A WAL is not a checkpoint.
  const std::string wal = TempPath("not_a_ckpt.log");
  std::remove(wal.c_str());
  { ASSERT_TRUE(persistence::WriteAheadLog::Open(wal).ok()); }
  EXPECT_EQ(DemonMonitor::Restore(wal).status().code(),
            StatusCode::kInvalidArgument);

  // Write a real checkpoint, then truncate it at several depths.
  const Workload w = MakeWorkload();
  const std::string ckpt = TempPath("truncated.ckpt");
  DemonMonitor original(w.num_items);
  RegisterFleet(original, w.dim);
  Feed(original, w, 0, 2);
  ASSERT_TRUE(original.Checkpoint(ckpt).ok());

  std::FILE* f = std::fopen(ckpt.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);

  for (const size_t keep :
       {size_t{10}, size_t{30}, bytes.size() / 2, bytes.size() - 5}) {
    const std::string path =
        TempPath("truncated_" + std::to_string(keep) + ".ckpt");
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(bytes.data(), 1, keep, out);
    std::fclose(out);
    const Status status = DemonMonitor::Restore(path).status();
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "keep=" << keep;
  }

  // Trailing garbage after a complete payload is corruption too.
  const std::string padded = TempPath("padded.ckpt");
  std::FILE* out = std::fopen(padded.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), out);
  const char junk[3] = {1, 2, 3};
  std::fwrite(junk, 1, sizeof(junk), out);
  std::fclose(out);
  EXPECT_EQ(DemonMonitor::Restore(padded).status().code(),
            StatusCode::kDataLoss);
}

// A checkpoint written by hand: universe `num_items`, `transactions` as
// transaction block 1, and one ECUT+ monitor whose state names block 1 and
// records `pairs` as its materialized pairs.
std::string WriteCraftedCheckpoint(
    const std::string& name, size_t num_items,
    std::vector<Transaction> transactions,
    const std::vector<std::pair<Item, Item>>& pairs) {
  persistence::Writer w;
  w.WriteU64(num_items);
  TransactionSnapshot blocks;
  blocks.Append(TransactionBlock(std::move(transactions), 0));
  persistence::WriteSnapshot(w, blocks);
  persistence::WriteSnapshot(w, PointSnapshot());
  persistence::WriteSnapshot(w, LabeledSnapshot());
  w.WriteU64(1);
  SaveMonitorSpec(w, {.kind = MonitorKind::kUnrestrictedItemsets,
                      .name = "uw",
                      .minsup = 0.5,
                      .strategy = CountingStrategy::kEcutPlus});
  persistence::Writer state;
  SerializeItemsetModel(state, ItemsetModel(0.5, num_items));
  state.WriteU64(1);  // one block, id 1
  state.WriteU32(1);
  state.WriteU64(pairs.size());
  for (const auto& [a, c] : pairs) {
    state.WriteU32(a);
    state.WriteU32(c);
  }
  w.WriteString(state.buffer());
  const std::string path = TempPath(name);
  EXPECT_TRUE(persistence::WritePayloadFile(
                  path, persistence::FormatId::kCheckpoint,
                  /*version=*/2, w)
                  .ok());
  return path;
}

TEST(CheckpointRestoreTest, HostileItemsAndPairsAreDataLoss) {
  constexpr size_t kItems = 8;
  const std::vector<Transaction> good = {{0, 1, 2}, {1, 2}, {0, 7}};
  const std::string control =
      WriteCraftedCheckpoint("crafted_ok.ckpt", kItems, good, {{1, 2}});
  auto restored = DemonMonitor::Restore(control);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Each would reach BlockTidLists::Build, which CHECK-fails on the first
  // two and indexes past its item lists on the last two.
  EXPECT_EQ(DemonMonitor::Restore(
                WriteCraftedCheckpoint("crafted_item.ckpt", kItems,
                                       {{0, 1}, {2, kItems}}, {}))
                .status()
                .code(),
            StatusCode::kDataLoss);
  for (const auto& pair : std::vector<std::pair<Item, Item>>{
           {2, 2}, {1, kItems}, {1u << 30, 1}}) {
    const Status status =
        DemonMonitor::Restore(
            WriteCraftedCheckpoint("crafted_pair.ckpt", kItems, good, {pair}))
            .status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << pair.first << "," << pair.second << ": " << status.ToString();
  }

  // The WAL decoder applies the same universe check as the checkpoint.
  const std::string wal = TempPath("crafted_item.log");
  std::remove(wal.c_str());
  {
    auto log = persistence::WriteAheadLog::Open(wal);
    ASSERT_TRUE(log.ok());
    TransactionBlock hostile({{0, kItems + 3}}, 3);
    hostile.mutable_info()->id = 2;
    ASSERT_TRUE(log.value()->Append(hostile).ok());
  }
  EXPECT_EQ(restored.value()->ReplayWal(wal).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace demon
