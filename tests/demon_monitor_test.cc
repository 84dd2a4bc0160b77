#include "core/demon_monitor.h"

#include <gtest/gtest.h>

#include "core/block_ops.h"
#include "datagen/cluster_generator.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

std::vector<TransactionBlock> MakeBlocks(size_t num_blocks, size_t block_size,
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

TEST(BssFromStringTest, ParsesAllForms) {
  auto all = BlockSelectionSequence::FromString("all");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all.value().SelectsBlock(17));

  auto prefix = BlockSelectionSequence::FromString("10110");
  ASSERT_TRUE(prefix.ok());
  EXPECT_TRUE(prefix.value().SelectsBlock(1));
  EXPECT_FALSE(prefix.value().SelectsBlock(2));
  EXPECT_FALSE(prefix.value().SelectsBlock(6));  // tail 0

  auto tailed = BlockSelectionSequence::FromString("101...");
  ASSERT_TRUE(tailed.ok());
  EXPECT_TRUE(tailed.value().SelectsBlock(9));  // tail = last bit = 1

  auto periodic = BlockSelectionSequence::FromString("periodic:7/0");
  ASSERT_TRUE(periodic.ok());
  EXPECT_TRUE(periodic.value().SelectsBlock(8));
  EXPECT_FALSE(periodic.value().SelectsBlock(9));

  auto relative = BlockSelectionSequence::FromString("relative:101");
  ASSERT_TRUE(relative.ok());
  EXPECT_TRUE(relative.value().is_window_relative());
  EXPECT_EQ(relative.value().window_bits().size(), 3u);
}

TEST(BssFromStringTest, RejectsMalformedInput) {
  EXPECT_FALSE(BlockSelectionSequence::FromString("").ok());
  EXPECT_FALSE(BlockSelectionSequence::FromString("10a1").ok());
  EXPECT_FALSE(BlockSelectionSequence::FromString("periodic:7").ok());
  EXPECT_FALSE(BlockSelectionSequence::FromString("periodic:0/0").ok());
  EXPECT_FALSE(BlockSelectionSequence::FromString("periodic:7/9").ok());
  EXPECT_FALSE(BlockSelectionSequence::FromString("relative:").ok());
}

TEST(BlockOpsTest, MergePreservesTransactionsAndTimes) {
  auto blocks = MakeBlocks(3, 50, 20, 51);
  blocks[0].mutable_info()->start_time = 100;
  blocks[0].mutable_info()->end_time = 200;
  blocks[2].mutable_info()->start_time = 300;
  blocks[2].mutable_info()->end_time = 400;
  const TransactionBlock merged =
      MergeBlocks({&blocks[0], &blocks[1], &blocks[2]});
  EXPECT_EQ(merged.size(), 150u);
  EXPECT_EQ(merged.info().start_time, 0);  // block 1 has default times
  EXPECT_EQ(merged.info().end_time, 400);
  EXPECT_EQ(merged.transactions()[0], blocks[0].transactions()[0]);
  EXPECT_EQ(merged.transactions()[149], blocks[2].transactions()[49]);
  // Record by record, the merge is the concatenation of the parts.
  std::vector<Transaction> concatenated;
  for (const TransactionBlock& block : blocks) {
    for (const TransactionView t : block) concatenated.emplace_back(t);
  }
  EXPECT_EQ(merged, TransactionBlock(concatenated, blocks[0].first_tid()));
  EXPECT_EQ(merged.TotalItemOccurrences(),
            blocks[0].TotalItemOccurrences() +
                blocks[1].TotalItemOccurrences() +
                blocks[2].TotalItemOccurrences());
}

TEST(BlockOpsTest, CoarsenGroupsAndRemainder) {
  const auto blocks = MakeBlocks(7, 10, 20, 52);
  const auto coarse = CoarsenBlocks(blocks, 3);
  ASSERT_EQ(coarse.size(), 3u);
  EXPECT_EQ(coarse[0].size(), 30u);
  EXPECT_EQ(coarse[1].size(), 30u);
  EXPECT_EQ(coarse[2].size(), 10u);  // remainder group
  // Coarsening by 1 is the identity on contents.
  const auto same = CoarsenBlocks(blocks, 1);
  ASSERT_EQ(same.size(), blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(same[i].size(), blocks[i].size());
  }
}

TEST(BlockOpsTest, ModelOnMergedEqualsModelOnParts) {
  // §2.1's hierarchy claim, verified: mining the merged block equals
  // mining the parts together.
  const auto blocks = MakeBlocks(3, 200, 30, 53);
  const TransactionBlock merged =
      MergeBlocks({&blocks[0], &blocks[1], &blocks[2]});
  const ItemsetModel from_merged = AprioriOnBlock(merged, 0.05, 30);

  std::vector<std::shared_ptr<const TransactionBlock>> parts;
  for (const auto& block : blocks) {
    parts.push_back(std::make_shared<TransactionBlock>(block));
  }
  const ItemsetModel from_parts = Apriori(parts, 0.05, 30);
  ASSERT_EQ(from_merged.entries().size(), from_parts.entries().size());
  for (const auto& [itemset, entry] : from_parts.entries()) {
    EXPECT_EQ(from_merged.CountOf(itemset), entry.count);
  }
}

TEST(DemonMonitorTest, RegistrationValidation) {
  DemonMonitor demon(30);
  EXPECT_FALSE(demon
                   .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                .name = "bad",
                                .minsup = 1.5})
                   .ok());
  EXPECT_FALSE(
      demon
          .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                       .name = "bad",
                       .bss = BlockSelectionSequence::WindowRelative({true}),
                       .minsup = 0.1})
          .ok());
  EXPECT_FALSE(demon
                   .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                .name = "bad",
                                .bss = BlockSelectionSequence::WindowRelative(
                                    {true, false}),
                                .window = 3,
                                .minsup = 0.1})
                   .ok());
  EXPECT_FALSE(demon
                   .AddMonitor({.kind = MonitorKind::kPatterns,
                                .name = "bad",
                                .minsup = 0.1,
                                .alpha = 1.5})
                   .ok());
  EXPECT_EQ(demon.NumMonitors(), 0u);
}

TEST(DemonMonitorTest, RoutesBlocksToAllMonitorKinds) {
  const size_t num_items = 30;
  DemonMonitor demon(num_items);
  auto uw = demon.AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                              .name = "every other block",
                              .bss = BlockSelectionSequence::Periodic(2, 0),
                              .minsup = 0.05});
  auto mrw = demon.AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                               .name = "last 3 blocks",
                               .window = 3,
                               .minsup = 0.05});
  auto patterns = demon.AddMonitor({.kind = MonitorKind::kPatterns,
                                    .name = "patterns",
                                    .minsup = 0.05,
                                    .alpha = 0.95});
  ASSERT_TRUE(uw.ok() && mrw.ok() && patterns.ok());

  const auto blocks = MakeBlocks(6, 150, num_items, 54);
  for (const auto& block : blocks) demon.AddBlock(block);
  EXPECT_EQ(demon.snapshot().NumBlocks(), 6u);

  // UW monitor saw blocks 1, 3, 5 (periodic BSS).
  std::vector<std::shared_ptr<const TransactionBlock>> selected;
  for (size_t i = 0; i < 6; i += 2) {
    selected.push_back(std::make_shared<TransactionBlock>(blocks[i]));
  }
  auto uw_model = demon.ItemsetModelOf(uw.value());
  ASSERT_TRUE(uw_model.ok());
  const ItemsetModel truth_uw = Apriori(selected, 0.05, num_items);
  EXPECT_EQ((*uw_model.value()).entries().size(), truth_uw.entries().size());
  EXPECT_EQ((*uw_model.value()).num_transactions(),
            truth_uw.num_transactions());

  // MRW monitor covers blocks 4, 5, 6.
  std::vector<std::shared_ptr<const TransactionBlock>> window;
  for (size_t i = 3; i < 6; ++i) {
    window.push_back(std::make_shared<TransactionBlock>(blocks[i]));
  }
  auto mrw_model = demon.ItemsetModelOf(mrw.value());
  ASSERT_TRUE(mrw_model.ok());
  const ItemsetModel truth_mrw = Apriori(window, 0.05, num_items);
  EXPECT_EQ((*mrw_model.value()).num_transactions(),
            truth_mrw.num_transactions());
  EXPECT_EQ((*mrw_model.value()).NumFrequent(), truth_mrw.NumFrequent());

  // Pattern detector tracked all 6 blocks.
  auto miner = demon.PatternsOf(patterns.value());
  ASSERT_TRUE(miner.ok());
  EXPECT_EQ(miner.value()->NumBlocks(), 6u);

  // Wrong-kind and unknown-id queries fail cleanly.
  EXPECT_FALSE(demon.ItemsetModelOf(patterns.value()).ok());
  EXPECT_FALSE(demon.PatternsOf(uw.value()).ok());
  EXPECT_FALSE(demon.NameOf(99).ok());
  EXPECT_EQ(demon.NameOf(uw.value()).value(), "every other block");
}

TEST(DemonMonitorTest, RegistrationAfterFirstBlockRejected) {
  DemonMonitor demon(20);
  demon.AddBlock(MakeBlocks(1, 10, 20, 55)[0]);
  EXPECT_EQ(demon
                .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                             .name = "late",
                             .minsup = 0.1})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(DemonMonitorTest, PointBlocksFlowThroughClusterMonitors) {
  // The Figure 11 loop for the clustering model class: point blocks route
  // to BIRCH+ (unrestricted) and GEMM-over-BIRCH+ (most recent window).
  ClusterGenParams params;
  params.num_points = 1500;
  params.num_clusters = 4;
  params.dim = 3;
  params.seed = 56;
  ClusterGenerator gen(params);
  std::vector<PointBlock> blocks;
  for (int b = 0; b < 5; ++b) blocks.push_back(gen.NextBlock(300));

  BirchOptions birch;
  birch.num_clusters = 4;
  birch.phase2 = Phase2Algorithm::kAgglomerative;
  birch.tree.max_leaf_entries = 128;

  DemonMonitor demon(0);
  const auto uw = demon
                      .AddMonitor({.kind = MonitorKind::kUnrestrictedClusters,
                                   .name = "uw-clusters",
                                   .dim = params.dim,
                                   .birch = birch})
                      .value();
  const auto mrw = demon
                       .AddMonitor({.kind = MonitorKind::kWindowedClusters,
                                    .name = "mrw-clusters",
                                    .window = 2,
                                    .dim = params.dim,
                                    .birch = birch})
                       .value();
  std::vector<std::shared_ptr<const PointBlock>> shared;
  for (const auto& block : blocks) {
    demon.AddPointBlock(block);
    shared.push_back(std::make_shared<PointBlock>(block));
  }
  EXPECT_EQ(demon.point_snapshot().NumBlocks(), 5u);

  // Unrestricted monitor equals from-scratch BIRCH on all blocks.
  const ClusterModel expected_uw = RunBirch(shared, params.dim, birch);
  const ClusterModel& actual_uw = *demon.ClusterModelOf(uw).value();
  ASSERT_EQ(actual_uw.NumClusters(), expected_uw.NumClusters());
  for (size_t c = 0; c < expected_uw.NumClusters(); ++c) {
    EXPECT_EQ(actual_uw.clusters()[c], expected_uw.clusters()[c]);
  }

  // Windowed monitor equals from-scratch BIRCH on the last two blocks.
  const ClusterModel expected_mrw = RunBirch(
      {shared.end() - 2, shared.end()}, params.dim, birch);
  const ClusterModel& actual_mrw = *demon.ClusterModelOf(mrw).value();
  ASSERT_EQ(actual_mrw.NumClusters(), expected_mrw.NumClusters());
  for (size_t c = 0; c < expected_mrw.NumClusters(); ++c) {
    EXPECT_EQ(actual_mrw.clusters()[c], expected_mrw.clusters()[c]);
  }
}

TEST(DemonMonitorTest, StatsExposeRoutingAndTimeSplit) {
  const size_t num_items = 25;
  DemonMonitor demon(num_items);
  const auto uw =
      demon
          .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                       .name = "every other",
                       .bss = BlockSelectionSequence::Periodic(2, 0),
                       .minsup = 0.05})
          .value();
  const auto mrw = demon
                       .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                    .name = "window",
                                    .window = 2,
                                    .minsup = 0.05})
                       .value();
  for (const auto& block : MakeBlocks(4, 100, num_items, 57)) {
    demon.AddBlock(block);
  }
  const MonitorStats uw_stats = demon.StatsOf(uw).value();
  EXPECT_EQ(uw_stats.blocks_routed, 2u);
  EXPECT_EQ(uw_stats.blocks_skipped, 2u);
  EXPECT_GT(uw_stats.response_seconds, 0.0);
  EXPECT_EQ(uw_stats.offline_seconds, 0.0);  // no GEMM, no offline half

  const MonitorStats mrw_stats = demon.StatsOf(mrw).value();
  EXPECT_EQ(mrw_stats.blocks_routed, 4u);
  EXPECT_EQ(mrw_stats.blocks_skipped, 0u);
  EXPECT_GT(mrw_stats.response_seconds, 0.0);
  EXPECT_GT(mrw_stats.total_seconds(), mrw_stats.response_seconds);
}

}  // namespace
}  // namespace demon
