#include "common/audit.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "clustering/cf_tree.h"
#include "core/engine.h"
#include "core/maintainers.h"
#include "datagen/cluster_generator.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/borders.h"
#include "tidlist/tidlist_store.h"

namespace demon {
namespace {

using BlockPtr = std::shared_ptr<const TransactionBlock>;

// ---------------------------------------------------------------------------
// Workload helpers.

std::vector<BlockPtr> MakeQuestBlocks(size_t num_blocks, size_t block_size,
                                      size_t num_items, uint64_t seed) {
  QuestParams params;
  params.num_transactions = num_blocks * block_size;
  params.num_items = num_items;
  params.num_patterns = 30;
  params.avg_transaction_len = 6;
  params.seed = seed;
  QuestGenerator gen(params);
  std::vector<BlockPtr> blocks;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto block =
        std::make_shared<TransactionBlock>(gen.NextBlock(block_size, tid));
    tid += block->size();
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// Installs a violation-capturing failure handler for the lifetime of one
// test, so CheckOrDie reports instead of aborting the process.
class ScopedFailureCapture {
 public:
  ScopedFailureCapture() {
    previous_ = audit::SetFailureHandlerForTest(
        [this](const std::vector<audit::Violation>& violations) {
          for (const auto& v : violations) captured_.push_back(v);
          ++invocations_;
        });
  }
  ~ScopedFailureCapture() {
    audit::SetFailureHandlerForTest(std::move(previous_));
  }

  const std::vector<audit::Violation>& captured() const { return captured_; }
  int invocations() const { return invocations_; }

 private:
  audit::FailureHandler previous_;
  std::vector<audit::Violation> captured_;
  int invocations_ = 0;
};

// ---------------------------------------------------------------------------
// Core AuditResult / macro behavior.

TEST(AuditResultTest, StartsOkAndAccumulatesViolations) {
  audit::AuditResult audit;
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(audit.ToString(), "");

  audit.Fail("tidlist", "tidlist/sorted-unique", "out of order", "[3, 1]");
  EXPECT_FALSE(audit.ok());
  ASSERT_EQ(audit.violations().size(), 1u);
  EXPECT_TRUE(audit.Has("tidlist/sorted-unique"));
  EXPECT_FALSE(audit.Has("tidlist/offset-range"));

  const std::string report = audit.ToString();
  EXPECT_NE(report.find("tidlist/sorted-unique"), std::string::npos);
  EXPECT_NE(report.find("out of order"), std::string::npos);
  EXPECT_NE(report.find("[3, 1]"), std::string::npos);
}

TEST(AuditResultTest, AuditCheckRecordsOnlyOnFailure) {
  audit::AuditResult audit;
  AUDIT_CHECK(&audit, "demo", "demo/pass", 1 + 1 == 2, "never recorded", "");
  EXPECT_TRUE(audit.ok());

  AUDIT_CHECK(&audit, "demo", "demo/fail", 1 + 1 == 3,
              audit::Msg() << "arith broke at " << 42, "state dump");
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(audit.Has("demo/fail"));
  // The stringified condition is embedded in the message.
  EXPECT_NE(audit.violations()[0].message.find("1 + 1 == 3"),
            std::string::npos);
  EXPECT_NE(audit.violations()[0].message.find("arith broke at 42"),
            std::string::npos);
}

TEST(AuditResultTest, CheckOrDieInvokesInstalledHandler) {
  ScopedFailureCapture capture;
  audit::AuditResult ok_audit;
  ok_audit.CheckOrDie();
  EXPECT_EQ(capture.invocations(), 0);

  audit::AuditResult bad_audit;
  bad_audit.Fail("m", "m/inv", "msg");
  bad_audit.CheckOrDie();
  EXPECT_EQ(capture.invocations(), 1);
  ASSERT_EQ(capture.captured().size(), 1u);
  EXPECT_EQ(capture.captured()[0].invariant, "m/inv");
}

// ---------------------------------------------------------------------------
// TID-list corruption injection.

TEST(TidListAuditTest, CleanBlockPasses) {
  const auto blocks = MakeQuestBlocks(1, 300, 40, 7);
  PairMaterializationSpec spec;
  spec.pairs = {{0, 1}, {2, 5}};
  const auto lists = BlockTidLists::Build(*blocks[0], 40, &spec);
  audit::AuditResult audit;
  lists->AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(TidListAuditTest, UnsortedListIsReported) {
  const auto blocks = MakeQuestBlocks(1, 300, 40, 8);
  auto lists = std::const_pointer_cast<BlockTidLists>(
      BlockTidLists::Build(*blocks[0], 40));
  // Find a list with at least two TIDs and swap them out of order.
  for (Item item = 0; item < 40; ++item) {
    if (lists->ItemListSize(item) >= 2) {
      TidList list = lists->MaterializeItemList(item);
      std::swap(list[0], list[1]);
      lists->SetItemListForTest(item, list);
      break;
    }
  }
  audit::AuditResult audit;
  lists->AuditInto(&audit);
  EXPECT_TRUE(audit.Has("tidlist/sorted-unique")) << audit.ToString();
}

TEST(TidListAuditTest, OutOfRangeOffsetIsReported) {
  const auto blocks = MakeQuestBlocks(1, 200, 40, 9);
  auto lists = std::const_pointer_cast<BlockTidLists>(
      BlockTidLists::Build(*blocks[0], 40));
  for (Item item = 0; item < 40; ++item) {
    if (lists->ItemListSize(item) > 0) {
      TidList list = lists->MaterializeItemList(item);
      list.back() = static_cast<uint32_t>(lists->num_transactions() + 5);
      lists->SetItemListForTest(item, list);
      break;
    }
  }
  audit::AuditResult audit;
  lists->AuditInto(&audit);
  EXPECT_TRUE(audit.Has("tidlist/offset-range")) << audit.ToString();
}

TEST(TidListAuditTest, StalePairListIsReported) {
  const auto blocks = MakeQuestBlocks(1, 300, 40, 10);
  PairMaterializationSpec spec;
  spec.pairs = {{0, 1}, {1, 2}, {3, 4}};
  auto lists = std::const_pointer_cast<BlockTidLists>(
      BlockTidLists::Build(*blocks[0], 40, &spec));
  // Mutating an item list desynchronizes every materialized pair list that
  // covers the item: the pair list no longer equals the intersection.
  lists->SetItemListForTest(1, TidList{});
  audit::AuditResult audit;
  lists->AuditInto(&audit);
  EXPECT_FALSE(audit.ok());
  EXPECT_TRUE(audit.Has("tidlist/pair-is-intersection") ||
              audit.Has("tidlist/item-slots"))
      << audit.ToString();
}

// ---------------------------------------------------------------------------
// Itemset-model corruption injection.

ItemsetModel MineSmallModel(uint64_t seed) {
  const auto blocks = MakeQuestBlocks(2, 300, 40, seed);
  return Apriori({blocks.begin(), blocks.end()}, 0.05, 40);
}

TEST(ItemsetModelAuditTest, FreshlyMinedModelPasses) {
  const ItemsetModel model = MineSmallModel(11);
  ASSERT_FALSE(model.entries().empty());
  audit::AuditResult audit;
  model.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ItemsetModelAuditTest, OverflowedCountIsReported) {
  ItemsetModel model = MineSmallModel(12);
  auto& entries = *model.mutable_entries();
  ASSERT_FALSE(entries.empty());
  entries.begin()->second.count = model.num_transactions() + 100;
  audit::AuditResult audit;
  model.AuditInto(&audit);
  EXPECT_TRUE(audit.Has("borders/count-bounded")) << audit.ToString();
}

TEST(ItemsetModelAuditTest, WrongFrequentFlagIsReported) {
  ItemsetModel model = MineSmallModel(13);
  auto& entries = *model.mutable_entries();
  for (auto&& [itemset, entry] : entries) {
    if (entry.frequent) {
      entry.frequent = false;  // count still >= MinCount(): inconsistent.
      break;
    }
  }
  audit::AuditResult audit;
  model.AuditInto(&audit);
  EXPECT_TRUE(audit.Has("borders/frequent-flag")) << audit.ToString();
}

TEST(ItemsetModelAuditTest, MissingSubsetBreaksClosure) {
  ItemsetModel model = MineSmallModel(14);
  auto& entries = *model.mutable_entries();
  // Remove a frequent 1-itemset that supports some tracked 2-itemset.
  Itemset victim;
  for (const auto& [itemset, entry] : entries) {
    if (itemset.size() == 2) {
      victim = {itemset[0]};
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "workload mined no 2-itemsets";
  entries.erase(victim);
  audit::AuditResult audit;
  model.AuditInto(&audit);
  EXPECT_FALSE(audit.ok());
  EXPECT_TRUE(audit.Has("borders/closure") ||
              audit.Has("borders/negative-border") ||
              audit.Has("borders/one-layer-complete"))
      << audit.ToString();
}

// ---------------------------------------------------------------------------
// BORDERS maintainer: structural audit plus re-mine equivalence.

TEST(BordersAuditTest, MaintainerPassesStructuralAndRescratchAudit) {
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcutPlus;
  BordersMaintainer maintainer(options);
  for (const auto& block : MakeQuestBlocks(3, 250, 40, 15)) {
    maintainer.AddBlock(block);
  }
  audit::AuditResult audit;
  maintainer.AuditInto(&audit);
  maintainer.AuditRescratchInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// ---------------------------------------------------------------------------
// CF-tree corruption injection.

CFTreeOptions SmallTree() {
  CFTreeOptions options;
  options.branching = 4;
  options.leaf_capacity = 4;
  options.max_leaf_entries = 256;
  return options;
}

CFTree BuildTree(size_t num_points, uint64_t seed) {
  ClusterGenParams params;
  params.num_points = num_points;
  params.num_clusters = 4;
  params.dim = 2;
  params.seed = seed;
  ClusterGenerator gen(params);
  CFTree tree(2, SmallTree());
  tree.InsertBlock(gen.NextBlock(num_points));
  return tree;
}

TEST(CfTreeAuditTest, HealthyTreePasses) {
  const CFTree tree = BuildTree(500, 21);
  audit::AuditResult audit;
  tree.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(CfTreeAuditTest, EmptiedLeafEntryIsReported) {
  CFTree tree = BuildTree(500, 22);
  tree.MutateLeafEntryForTest(0, [](ClusterFeature* cf) {
    *cf = ClusterFeature(2);  // N = 0 violates the non-empty-entry invariant.
  });
  audit::AuditResult audit;
  tree.AuditInto(&audit);
  EXPECT_TRUE(audit.Has("cf-tree/entry-weight")) << audit.ToString();
}

TEST(CfTreeAuditTest, StrayPointBreaksAdditivity) {
  CFTree tree = BuildTree(500, 23);
  tree.MutateLeafEntryForTest(0, [](ClusterFeature* cf) {
    const double stray[2] = {1e4, -1e4};
    cf->Add(stray, 2);  // Leaf changes but no ancestor CF was updated.
  });
  audit::AuditResult audit;
  tree.AuditInto(&audit);
  EXPECT_FALSE(audit.ok());
  // Either an internal entry no longer equals the sum of its children, or
  // (for a root-leaf tree) the cached root CF disagrees with the leaves.
  EXPECT_TRUE(audit.Has("cf-tree/child-sum") || audit.Has("cf-tree/root-cf"))
      << audit.ToString();
}

// ---------------------------------------------------------------------------
// Engine-level escalation.

TEST(EngineAuditTest, HealthyMonitorsPassBoundaryAudit) {
  ScopedFailureCapture capture;
  MaintenanceEngine engine;
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  engine.Register("unrestricted",
                  std::make_unique<BordersAdapter>(options));
  engine.Register(
      "windowed",
      std::make_unique<GemmItemsetAdapter>(
          BlockSelectionSequence::WindowRelative({true, true, true}), 3,
          options));
  for (const auto& block : MakeQuestBlocks(4, 250, 40, 31)) {
    engine.Dispatch(AnyBlock(block));
  }
  engine.Quiesce();
  engine.AuditMonitors();
  EXPECT_EQ(capture.invocations(), 0)
      << audit::FormatViolation(capture.captured()[0]);
}

// A maintainer whose audit always fails, to exercise the escalation path.
class PoisonedMaintainer : public ModelMaintainer {
 public:
  std::string_view type_name() const override { return "poisoned"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kTransactions;
  }
  void AddResponse(const AnyBlock& /*block*/) override {}
  void AuditInvariants(audit::AuditResult* audit) const override {
    AUDIT_FAIL(audit, "poison", "poison/always", "planted violation", "");
  }
};

TEST(EngineAuditTest, ViolationIsEscalatedWithMonitorContext) {
  ScopedFailureCapture capture;
  MaintenanceEngine engine;
  engine.Register("bad-monitor", std::make_unique<PoisonedMaintainer>());
  engine.AuditMonitors();
  ASSERT_EQ(capture.invocations(), 1);
  ASSERT_EQ(capture.captured().size(), 1u);
  const audit::Violation& v = capture.captured()[0];
  EXPECT_EQ(v.invariant, "poison/always");
  // The engine prefixes the monitor name so a multi-monitor report is
  // attributable.
  EXPECT_NE(v.module.find("bad-monitor"), std::string::npos);
}

}  // namespace
}  // namespace demon
