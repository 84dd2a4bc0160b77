#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/audit.h"
#include "core/demon_monitor.h"
#include "datagen/cluster_generator.h"
#include "datagen/labeled_generator.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

using TxBlockPtr = std::shared_ptr<const TransactionBlock>;

// ---------------------------------------------------------------------------
// Workload helpers.

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

/// The heterogeneous Figure 11 configuration the acceptance criteria name:
/// unrestricted itemsets, windowed itemsets, unrestricted clusters,
/// windowed clusters, a classifier, and a pattern detector, all in one
/// monitor.
struct Fig11Ids {
  DemonMonitor::MonitorId uw_itemsets;
  DemonMonitor::MonitorId mrw_itemsets;
  DemonMonitor::MonitorId uw_clusters;
  DemonMonitor::MonitorId mrw_clusters;
  DemonMonitor::MonitorId classifier;
  DemonMonitor::MonitorId patterns;
};

Fig11Ids RegisterFig11Monitors(DemonMonitor& demon, size_t dim) {
  BirchOptions birch;
  birch.num_clusters = 5;
  birch.phase2 = Phase2Algorithm::kAgglomerative;
  birch.tree.max_leaf_entries = 128;
  DTreeOptions dtree;
  dtree.min_split_weight = 50.0;

  Fig11Ids ids;
  ids.uw_itemsets =
      demon
          .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                       .name = "uw-itemsets",
                       .bss = BlockSelectionSequence::Periodic(2, 0),
                       .minsup = 0.05})
          .value();
  ids.mrw_itemsets =
      demon
          .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                       .name = "mrw-itemsets",
                       .bss = BlockSelectionSequence::WindowRelative(
                           {true, false, true}),
                       .window = 3,
                       .minsup = 0.05})
          .value();
  ids.uw_clusters = demon
                        .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                                     .name = "uw-clusters",
                                     .dim = dim,
                                     .birch = birch})
                        .value();
  ids.mrw_clusters = demon
                         .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                                      .name = "mrw-clusters",
                                      .window = 2,
                                      .dim = dim,
                                      .birch = birch})
                         .value();
  ids.classifier = demon
                       .AddMonitor({.kind = MonitorKind::kClassifier,
                                    .name = "classifier",
                                    .schema = TestSchema(),
                                    .dtree = dtree})
                       .value();
  ids.patterns = demon
                     .AddMonitor({.kind = MonitorKind::kPatterns,
                                  .name = "patterns",
                                  .minsup = 0.05,
                                  .alpha = 0.95})
                     .value();
  return ids;
}

/// Everything the engine maintains, captured for cross-run comparison.
struct RunResult {
  ItemsetModel uw_itemsets;
  ItemsetModel mrw_itemsets;
  ClusterModel uw_clusters;
  ClusterModel mrw_clusters;
  std::string classifier_dump;
  std::vector<std::vector<size_t>> pattern_sequences;
  std::vector<MonitorStats> stats;
};

RunResult RunFig11(const EngineOptions& options, bool quiesce_each_block) {
  const size_t num_items = 30;
  const size_t dim = 3;
  DemonMonitor demon(num_items, options);
  const Fig11Ids ids = RegisterFig11Monitors(demon, dim);

  // Interleave the three payloads, as one evolving database would.
  const auto tx = MakeTxBlocks(6, 150, num_items, 91);
  const auto points = MakePointBlocks(4, 300, dim, 92);
  const auto labeled = MakeLabeledBlocks(4, 200, 93);
  for (size_t i = 0; i < tx.size(); ++i) {
    demon.AddBlock(tx[i]);
    if (i < points.size()) demon.AddPointBlock(points[i]);
    if (i < labeled.size()) demon.AddLabeledBlock(labeled[i]);
    if (quiesce_each_block) demon.Quiesce();
  }
  demon.Quiesce();

  RunResult result;
  result.uw_itemsets = *demon.ItemsetModelOf(ids.uw_itemsets).value();
  result.mrw_itemsets = *demon.ItemsetModelOf(ids.mrw_itemsets).value();
  result.uw_clusters = *demon.ClusterModelOf(ids.uw_clusters).value();
  result.mrw_clusters = *demon.ClusterModelOf(ids.mrw_clusters).value();
  result.classifier_dump = demon.ClassifierOf(ids.classifier).value()->ToString();
  result.pattern_sequences = demon.PatternsOf(ids.patterns).value()->sequences();
  for (size_t id = 0; id < demon.NumMonitors(); ++id) {
    result.stats.push_back(demon.StatsOf(id).value());
  }
  return result;
}

void ExpectRunsEqual(const RunResult& a, const RunResult& b) {
  ExpectItemsetModelsEqual(a.uw_itemsets, b.uw_itemsets);
  ExpectItemsetModelsEqual(a.mrw_itemsets, b.mrw_itemsets);
  ExpectClusterModelsEqual(a.uw_clusters, b.uw_clusters);
  ExpectClusterModelsEqual(a.mrw_clusters, b.mrw_clusters);
  EXPECT_EQ(a.classifier_dump, b.classifier_dump);
  EXPECT_EQ(a.pattern_sequences, b.pattern_sequences);
  // Routing decisions must also be identical (times of course differ).
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].blocks_routed, b.stats[i].blocks_routed) << i;
    EXPECT_EQ(a.stats[i].blocks_skipped, b.stats[i].blocks_skipped) << i;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion. Parallel maintenance (with and
// without offline deferral, with and without mid-run quiescing) must be
// bit-identical to sequential maintenance across all monitor kinds.

TEST(EngineDeterminismTest, ParallelEqualsSequentialAllMonitorKinds) {
  EngineOptions sequential;  // num_threads = 0
  const RunResult reference = RunFig11(sequential, false);

  EngineOptions parallel;
  parallel.num_threads = 4;
  ExpectRunsEqual(RunFig11(parallel, false), reference);

  EngineOptions deferred = parallel;
  deferred.defer_offline = true;
  ExpectRunsEqual(RunFig11(deferred, false), reference);
  ExpectRunsEqual(RunFig11(deferred, true), reference);

  EngineOptions single;
  single.num_threads = 1;
  single.defer_offline = true;
  ExpectRunsEqual(RunFig11(single, false), reference);
}

// ---------------------------------------------------------------------------
// Engine-level behavior with a purpose-built recording maintainer.

class RecordingMaintainer : public ModelMaintainer {
 public:
  std::string_view type_name() const override { return "recording"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kTransactions;
  }
  void AddResponse(const AnyBlock& block) override {
    response_ids_.push_back(block.id());
    pending_ = true;
  }
  void RunOffline() override {
    if (!pending_) return;
    offline_after_.push_back(response_ids_.size());
    pending_ = false;
  }
  bool has_offline_work() const override { return pending_; }

  const std::vector<BlockId>& response_ids() const { return response_ids_; }
  const std::vector<size_t>& offline_after() const { return offline_after_; }

 private:
  std::vector<BlockId> response_ids_;
  std::vector<size_t> offline_after_;
  bool pending_ = false;
};

AnyBlock MakeTinyBlock(BlockId id) {
  auto block = std::make_shared<TransactionBlock>(
      std::vector<Transaction>{Transaction({1, 2})}, /*first_tid=*/id * 10);
  block->mutable_info()->id = id;
  return AnyBlock(TxBlockPtr(block));
}

TEST(MaintenanceEngineTest, MonitorsSeeBlocksInArrivalOrder) {
  for (const size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    for (const bool defer : {false, true}) {
      EngineOptions options;
      options.num_threads = threads;
      options.defer_offline = defer;
      MaintenanceEngine engine(options);
      std::vector<const RecordingMaintainer*> recorders;
      for (int m = 0; m < 5; ++m) {
        auto recorder = std::make_unique<RecordingMaintainer>();
        recorders.push_back(recorder.get());
        std::string name = "m";
        name += std::to_string(m);
        engine.Register(std::move(name), std::move(recorder));
      }
      for (BlockId id = 1; id <= 12; ++id) {
        engine.Dispatch(MakeTinyBlock(id));
      }
      engine.Quiesce();
      for (const RecordingMaintainer* recorder : recorders) {
        ASSERT_EQ(recorder->response_ids().size(), 12u);
        for (BlockId id = 1; id <= 12; ++id) {
          EXPECT_EQ(recorder->response_ids()[id - 1], id)
              << "threads=" << threads << " defer=" << defer;
        }
        // Every offline drain happened after its own response and before
        // the next block's response reached this maintainer.
        ASSERT_EQ(recorder->offline_after().size(), 12u);
        for (size_t i = 0; i < 12; ++i) {
          EXPECT_EQ(recorder->offline_after()[i], i + 1);
        }
      }
    }
  }
}

TEST(MaintenanceEngineTest, GateSkipsUnselectedBlocksAndCountsThem) {
  MaintenanceEngine engine;
  const auto gated = engine.Register(
      "gated", std::make_unique<RecordingMaintainer>(),
      BlockSelectionSequence::Periodic(2, 0));
  const auto open = engine.Register("open",
                                    std::make_unique<RecordingMaintainer>());
  for (BlockId id = 1; id <= 6; ++id) engine.Dispatch(MakeTinyBlock(id));

  const MonitorStats gated_stats = engine.StatsOf(gated).value();
  EXPECT_EQ(gated_stats.blocks_routed, 3u);   // blocks 1, 3, 5
  EXPECT_EQ(gated_stats.blocks_skipped, 3u);  // blocks 2, 4, 6
  const MonitorStats open_stats = engine.StatsOf(open).value();
  EXPECT_EQ(open_stats.blocks_routed, 6u);
  EXPECT_EQ(open_stats.blocks_skipped, 0u);

  const auto* maintainer = static_cast<const RecordingMaintainer*>(
      engine.MaintainerOf(gated).value());
  EXPECT_EQ(maintainer->response_ids(),
            (std::vector<BlockId>{1, 3, 5}));
}

TEST(MaintenanceEngineTest, MismatchedPayloadIsNeitherRoutedNorSkipped) {
  MaintenanceEngine engine;
  const auto id = engine.Register("tx-only",
                                  std::make_unique<RecordingMaintainer>());
  auto points = std::make_shared<PointBlock>(
      std::vector<double>{0.0, 1.0, 2.0, 3.0}, /*dim=*/2);
  points->mutable_info()->id = 1;
  engine.Dispatch(AnyBlock(AnyBlock::PointPtr(points)));
  const MonitorStats stats = engine.StatsOf(id).value();
  EXPECT_EQ(stats.blocks_routed, 0u);
  EXPECT_EQ(stats.blocks_skipped, 0u);
}

TEST(MaintenanceEngineTest, UnknownIdsAreNotFound) {
  MaintenanceEngine engine;
  EXPECT_EQ(engine.StatsOf(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.NameOf(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.MaintainerOf(7).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Deferred offline updates (§3.2.3): response reflects only the
// time-critical path; Quiesce (or the next block) lands the rest.

TEST(EngineDeferTest, QuiesceDrainsDeferredGemmUpdates) {
  const size_t num_items = 30;
  const auto blocks = MakeTxBlocks(5, 150, num_items, 94);

  EngineOptions options;
  options.num_threads = 2;
  options.defer_offline = true;
  DemonMonitor demon(num_items, options);
  const auto mrw = demon
                       .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                    .name = "mrw",
                                    .window = 3,
                                    .minsup = 0.05})
                       .value();

  std::vector<TxBlockPtr> shared;
  for (size_t t = 0; t < blocks.size(); ++t) {
    demon.AddBlock(blocks[t]);
    shared.push_back(std::make_shared<TransactionBlock>(blocks[t]));
    demon.Quiesce();
    // After quiescing, the current window model equals Apriori from
    // scratch on the window — i.e. the deferred updates have landed.
    const size_t start = t + 1 >= 3 ? t + 1 - 3 : 0;
    const std::vector<TxBlockPtr> window(shared.begin() + start,
                                         shared.end());
    const ItemsetModel expected = Apriori(window, 0.05, num_items);
    const ItemsetModel& actual = *demon.ItemsetModelOf(mrw).value();
    ExpectItemsetModelsEqual(actual, expected);
  }
  const MonitorStats stats = demon.StatsOf(mrw).value();
  EXPECT_EQ(stats.blocks_routed, 5u);
  EXPECT_GE(stats.response_seconds, 0.0);
  EXPECT_GE(stats.offline_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// One history per monitor.

// The mrw-drift shape — an unrestricted ECUT monitor next to a windowed
// (w = 3) one, whose current and future window models absorb each block
// on engine threads and in GEMM's concurrent drain — builds each block's
// item lists exactly once, and every maintainer reads that one extent.
TEST(SharedHistoryTest, EachBlockIsBuiltOnce) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "counters compiled out";
  const size_t num_items = 30;
  const auto blocks = MakeTxBlocks(9, 150, num_items, 96);
  for (const size_t threads : {size_t{0}, size_t{4}}) {
    for (const bool defer : {false, true}) {
      SCOPED_TRACE(std::to_string(threads) + (defer ? " deferred" : ""));
      EngineOptions options;
      options.num_threads = threads;
      options.defer_offline = defer && threads > 0;
      DemonMonitor demon(num_items, options);
      ASSERT_TRUE(demon
                      .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                   .name = "uw-ecut",
                                   .minsup = 0.05,
                                   .strategy = CountingStrategy::kEcut})
                      .ok());
      ASSERT_TRUE(demon
                      .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                   .name = "mrw-ecut",
                                   .window = 3,
                                   .minsup = 0.05,
                                   .strategy = CountingStrategy::kEcut})
                      .ok());
      for (const TransactionBlock& block : blocks) demon.AddBlock(block);
      demon.Quiesce();
      EXPECT_EQ(demon.telemetry()->counter("tidlist/builds")->value(),
                blocks.size());
      // borders/shared-item-extent: every maintainer's item extents are
      // the snapshot's own.
      for (DemonMonitor::MonitorId id = 0; id < demon.NumMonitors(); ++id) {
        audit::AuditResult audit;
        demon.engine().MaintainerOf(id).value()->AuditInvariants(&audit);
        EXPECT_TRUE(audit.ok()) << audit.ToString();
      }
      audit::AuditResult history;
      demon.AuditInto(&history);
      EXPECT_TRUE(history.ok()) << history.ToString();
    }
  }
}

// An ECUT-only monitor set lets each block's flat records go once the
// engine has absorbed the block; a PT-Scan monitor keeps them.
TEST(SharedHistoryTest, FlatBlocksLiveOnlyWhereRecordsAreRead) {
  const size_t num_items = 30;
  const auto blocks = MakeTxBlocks(5, 150, num_items, 97);
  BordersOptions ecut;
  ecut.minsup = 0.05;
  ecut.num_items = num_items;
  ecut.strategy = CountingStrategy::kEcut;
  BordersOptions ptscan = ecut;
  ptscan.strategy = CountingStrategy::kPtScan;
  for (const bool with_ptscan : {false, true}) {
    SCOPED_TRACE(with_ptscan ? "with PT-Scan" : "ECUT only");
    EngineOptions options;
    options.num_threads = 2;
    options.defer_offline = true;
    MaintenanceEngine engine(options);
    engine.Register("uw-ecut", std::make_unique<BordersAdapter>(ecut));
    engine.Register("mrw-ecut",
                    std::make_unique<GemmItemsetAdapter>(
                        BlockSelectionSequence::AllBlocks(), 3, ecut));
    if (with_ptscan) {
      engine.Register("uw-ptscan", std::make_unique<BordersAdapter>(ptscan));
    }
    std::vector<std::shared_ptr<const HistoryBlock>> history;
    for (size_t b = 0; b < blocks.size(); ++b) {
      auto block = std::make_shared<TransactionBlock>(blocks[b]);
      block->mutable_info()->id = static_cast<BlockId>(b + 1);
      const std::weak_ptr<const TransactionBlock> weak = block;
      history.push_back(std::make_shared<const HistoryBlock>(block));
      engine.Dispatch(AnyBlock(history.back(), std::move(block)));
      engine.Quiesce();
      EXPECT_EQ(weak.expired(), !with_ptscan) << "block " << b + 1;
      EXPECT_NE(history.back()->item_lists(), nullptr);
    }
  }

  // The same through DemonMonitor, whose snapshot holds the history.
  for (const bool with_ptscan : {false, true}) {
    DemonMonitor demon(num_items);
    ASSERT_TRUE(demon
                    .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                 .name = "uw-ecut",
                                 .minsup = 0.05,
                                 .strategy = CountingStrategy::kEcut})
                    .ok());
    if (with_ptscan) {
      ASSERT_TRUE(demon
                      .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                   .name = "uw-ptscan",
                                   .minsup = 0.05,
                                   .strategy = CountingStrategy::kPtScan})
                      .ok());
    }
    for (const TransactionBlock& block : blocks) demon.AddBlock(block);
    demon.Quiesce();
    for (BlockId id = 1; id <= blocks.size(); ++id) {
      const auto live = demon.snapshot().block(id)->LiveTransactions();
      EXPECT_EQ(live != nullptr, with_ptscan) << "block " << id;
      if (live != nullptr) {
        EXPECT_EQ(*live, blocks[id - 1]);
      }
    }
  }
}

TEST(GemmDeferTest, BeginBlockUpdatesOnlyTheCurrentModel) {
  // Unit-level check of the split AddBlock: BeginBlock touches the
  // current window's model only; DrainOffline completes the rest.
  const auto blocks = MakeTxBlocks(4, 50, 20, 95);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(
      BlockSelectionSequence::AllBlocks(), 3,
      [] { return CountingMaintainer(); });
  std::vector<TxBlockPtr> shared;
  for (const auto& block : blocks) {
    shared.push_back(std::make_shared<TransactionBlock>(block));
  }

  gemm.AddBlock(shared[0]);
  gemm.AddBlock(shared[1]);
  EXPECT_FALSE(gemm.has_offline_work());

  gemm.BeginBlock(shared[2]);
  EXPECT_TRUE(gemm.has_offline_work());
  // Current model covers blocks 1..3 immediately (response path done).
  EXPECT_EQ(gemm.current().records(), 150u);
  gemm.DrainOffline();
  EXPECT_FALSE(gemm.has_offline_work());

  // BeginBlock with pending work drains inline first — the future-window
  // models cannot miss a block.
  gemm.BeginBlock(shared[3]);
  EXPECT_TRUE(gemm.has_offline_work());
  gemm.DrainOffline();
  const auto ids = gemm.current().block_ids();
  EXPECT_EQ(ids.size(), 3u);  // window of 3: blocks 2, 3, 4
}

// ---------------------------------------------------------------------------
// DemonMonitor error paths.

TEST(DemonMonitorErrorTest, WindowedAccessorBeforeFirstBlock) {
  DemonMonitor demon(20);
  const auto mrw = demon
                       .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                    .name = "mrw",
                                    .window = 3,
                                    .minsup = 0.1})
                       .value();
  BirchOptions birch;
  const auto mrw_clusters =
      demon
          .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                       .name = "mrw-clusters",
                       .window = 2,
                       .dim = 3,
                       .birch = birch})
          .value();
  // Before any block, a windowed monitor has no current model; the
  // accessor must fail cleanly instead of aborting (Gemm::current()'s
  // DEMON_CHECK would crash the process).
  EXPECT_EQ(demon.ItemsetModelOf(mrw).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(demon.ClusterModelOf(mrw_clusters).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DemonMonitorErrorTest, WrongKindAccessorsAreInvalidArgument) {
  DemonMonitor demon(20);
  const auto uw = demon
                      .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                   .name = "uw",
                                   .minsup = 0.1})
                      .value();
  BirchOptions birch;
  const auto clusters = demon
                            .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                                         .name = "clusters",
                                         .dim = 3,
                                         .birch = birch})
                            .value();
  const auto patterns = demon
                            .AddMonitor({.kind = MonitorKind::kPatterns,
                                         .name = "p",
                                         .minsup = 0.1,
                                         .alpha = 0.9})
                            .value();

  EXPECT_EQ(demon.ClusterModelOf(uw).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon.ClassifierOf(uw).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon.PatternsOf(uw).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon.ItemsetModelOf(clusters).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon.ItemsetModelOf(patterns).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DemonMonitorErrorTest, BadIdsAreNotFoundOnEveryAccessor) {
  DemonMonitor demon(20);
  EXPECT_EQ(demon.ItemsetModelOf(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(demon.ClusterModelOf(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(demon.ClassifierOf(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(demon.PatternsOf(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(demon.StatsOf(4).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(demon.NameOf(5).status().code(), StatusCode::kNotFound);
}

TEST(DemonMonitorErrorTest, RegistrationAfterAnyPayloadRejected) {
  BirchOptions birch;
  DTreeOptions dtree;
  {
    DemonMonitor demon(20);
    demon.AddPointBlock(MakePointBlocks(1, 20, 3, 96)[0]);
    EXPECT_EQ(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                               .name = "late",
                               .minsup = 0.1})
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  {
    DemonMonitor demon(20);
    demon.AddLabeledBlock(MakeLabeledBlocks(1, 20, 97)[0]);
    EXPECT_EQ(demon
                  .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                               .name = "late",
                               .dim = 3,
                               .birch = birch})
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(demon
                  .AddMonitor({.kind = MonitorKind::kClassifier,
                               .name = "late",
                               .schema = TestSchema(),
                               .dtree = dtree})
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(DemonMonitorErrorTest, ClusterAndClassifierRegistrationValidation) {
  DemonMonitor demon(20);
  BirchOptions birch;
  DTreeOptions dtree;
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                             .name = "bad",
                             .dim = 0,
                             .birch = birch})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                             .name = "bad",
                             .bss = BlockSelectionSequence::WindowRelative(
                                 {true}),
                             .dim = 3,
                             .birch = birch})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                             .name = "bad",
                             .window = 0,
                             .dim = 3,
                             .birch = birch})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                             .name = "bad",
                             .bss = BlockSelectionSequence::WindowRelative(
                                 {true, false}),
                             .window = 3,
                             .dim = 3,
                             .birch = birch})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  LabeledSchema empty_schema;
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kClassifier,
                             .name = "bad",
                             .schema = empty_schema,
                             .dtree = dtree})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(demon.NumMonitors(), 0u);
}

}  // namespace
}  // namespace demon
