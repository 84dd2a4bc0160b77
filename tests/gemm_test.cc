#include "core/gemm.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "clustering/birch.h"
#include "common/thread_pool.h"
#include "core/aum.h"
#include "core/maintainers.h"
#include "datagen/cluster_generator.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

using TxBlockPtr = std::shared_ptr<const TransactionBlock>;
using PtBlockPtr = std::shared_ptr<const PointBlock>;

QuestParams TestQuestParams(size_t num_transactions, size_t num_items,
                            uint64_t seed) {
  QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = num_items;
  params.num_patterns = 30;
  params.avg_transaction_len = 6;
  params.avg_pattern_len = 3;
  params.seed = seed;
  return params;
}

std::vector<TxBlockPtr> MakeBlocks(size_t num_blocks, size_t block_size,
                                   size_t num_items, uint64_t seed) {
  QuestGenerator gen(
      TestQuestParams(num_blocks * block_size, num_items, seed));
  std::vector<TxBlockPtr> blocks;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto block =
        std::make_shared<TransactionBlock>(gen.NextBlock(block_size, tid));
    tid += block->size();
    block->mutable_info()->id = static_cast<BlockId>(b + 1);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// A Quest stream whose patterns are replaced every 4 blocks, so window
// models demote, prune and retire itemsets as the window slides.
std::vector<TxBlockPtr> MakeDriftingBlocks(size_t num_blocks,
                                           size_t block_size,
                                           size_t num_items, uint64_t seed) {
  constexpr size_t kPeriod = 4;
  std::vector<TxBlockPtr> blocks;
  std::unique_ptr<QuestGenerator> gen;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (b % kPeriod == 0) {
      gen = std::make_unique<QuestGenerator>(
          TestQuestParams(kPeriod * block_size, num_items, seed + b));
    }
    auto block =
        std::make_shared<TransactionBlock>(gen->NextBlock(block_size, tid));
    tid += block->size();
    block->mutable_info()->id = static_cast<BlockId>(b + 1);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

std::string StateOf(const BordersMaintainer& maintainer) {
  persistence::Writer w;
  maintainer.SaveState(w);
  return w.buffer();
}

// One window-independent and one window-relative BSS for window size w.
std::vector<BlockSelectionSequence> BssPairFor(size_t w) {
  std::vector<bool> relative = {true, false, true, true, false};
  relative.resize(w);
  return {BlockSelectionSequence::WindowIndependent(
              {true, false, true, true, false, true, true, false, true},
              /*tail_bit=*/true),
          BlockSelectionSequence::WindowRelative(relative)};
}

// Ground truth for routing tests: blocks the current model must cover
// after block t arrived, window size w.
std::vector<BlockId> ExpectedSelection(const BlockSelectionSequence& bss,
                                       size_t t, size_t w) {
  const size_t start = t >= w ? t - w + 1 : 1;
  std::vector<BlockId> out;
  for (size_t id = start; id <= t; ++id) {
    bool selected = false;
    if (bss.is_window_relative()) {
      selected = bss.window_bits()[id - start];
    } else {
      selected = bss.SelectsBlock(static_cast<BlockId>(id));
    }
    if (selected) out.push_back(static_cast<BlockId>(id));
  }
  return out;
}

TEST(GemmTest, MaintainsAtMostWModels) {
  const auto blocks = MakeBlocks(8, 10, 20, 40);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(
      BlockSelectionSequence::AllBlocks(), 3,
      [] { return CountingMaintainer(); });
  for (size_t i = 0; i < blocks.size(); ++i) {
    gemm.AddBlock(blocks[i]);
    EXPECT_LE(gemm.NumModels(), 3u);
    if (i >= 2) {
      EXPECT_EQ(gemm.NumModels(), 3u);
    }
  }
  // Model starts are consecutive: t-w+1 .. t.
  EXPECT_EQ(gemm.ModelStarts(), (std::vector<BlockId>{6, 7, 8}));
}

TEST(GemmTest, AllOnesBssCurrentModelCoversWholeWindow) {
  const auto blocks = MakeBlocks(7, 10, 20, 41);
  const size_t w = 4;
  Gemm<CountingMaintainer, TxBlockPtr> gemm(
      BlockSelectionSequence::AllBlocks(), w,
      [] { return CountingMaintainer(); });
  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    const size_t start = t >= w ? t - w + 1 : 1;
    std::vector<BlockId> expected;
    for (size_t id = start; id <= t; ++id) {
      expected.push_back(static_cast<BlockId>(id));
    }
    EXPECT_EQ(gemm.current().block_ids(), expected) << "t=" << t;
  }
}

TEST(GemmTest, WindowIndependentBssRoutesCorrectly) {
  // Paper §3.2.1 example: b = <10110...>, w = 3.
  const auto bss = BlockSelectionSequence::WindowIndependent(
      {true, false, true, true, false}, false);
  const auto blocks = MakeBlocks(5, 10, 20, 42);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(bss, 3,
                                            [] { return CountingMaintainer(); });
  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    EXPECT_EQ(gemm.current().block_ids(), ExpectedSelection(bss, t, 3))
        << "t=" << t;
  }
  // Concretely: after D4 the current model must be built from D3, D4
  // (the paper's worked update of m(D[2,4], <011>)).
}

TEST(GemmTest, WindowRelativeBssSlidesWithWindow) {
  // Paper §3.2.2 example: window-relative <101>, w = 3. After D4 arrives
  // the model covers D2 and D4.
  const auto bss =
      BlockSelectionSequence::WindowRelative({true, false, true});
  const auto blocks = MakeBlocks(6, 10, 20, 43);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(bss, 3,
                                            [] { return CountingMaintainer(); });
  gemm.AddBlock(blocks[0]);
  gemm.AddBlock(blocks[1]);
  gemm.AddBlock(blocks[2]);
  EXPECT_EQ(gemm.current().block_ids(), (std::vector<BlockId>{1, 3}));
  gemm.AddBlock(blocks[3]);
  EXPECT_EQ(gemm.current().block_ids(), (std::vector<BlockId>{2, 4}));
  gemm.AddBlock(blocks[4]);
  EXPECT_EQ(gemm.current().block_ids(), (std::vector<BlockId>{3, 5}));
}

TEST(GemmTest, WindowRelativeAlternatingDisjointSets) {
  // The §3.2.4 degenerate case for AuM: <1010101010> flips the whole
  // selected set every slide. GEMM handles it with one A_M call.
  std::vector<bool> bits(10);
  for (size_t i = 0; i < 10; ++i) bits[i] = (i % 2 == 0);
  const auto bss = BlockSelectionSequence::WindowRelative(bits);
  const auto blocks = MakeBlocks(12, 5, 20, 44);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(bss, 10,
                                            [] { return CountingMaintainer(); });
  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    EXPECT_EQ(gemm.current().block_ids(), ExpectedSelection(bss, t, 10));
  }
  // After t=11 the set is {2,4,...}; after t=12 it is {3,5,...}: disjoint.
}

TEST(GemmTest, WindowSizeOne) {
  const auto blocks = MakeBlocks(4, 10, 20, 45);
  Gemm<CountingMaintainer, TxBlockPtr> gemm(
      BlockSelectionSequence::AllBlocks(), 1,
      [] { return CountingMaintainer(); });
  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    EXPECT_EQ(gemm.NumModels(), 1u);
    EXPECT_EQ(gemm.current().block_ids(),
              std::vector<BlockId>{static_cast<BlockId>(t)});
  }
}

class GemmItemsetBssTest
    : public ::testing::TestWithParam<BlockSelectionSequence> {};

TEST_P(GemmItemsetBssTest, CurrentItemsetModelEqualsFromScratch) {
  // End-to-end invariant (§3.2): GEMM instantiated with the BORDERS
  // maintainer yields, after every block, exactly the model mined from
  // scratch over the blocks the BSS selects from the current window.
  const auto bss = GetParam();
  const size_t w = 4;
  const auto blocks = MakeBlocks(9, 150, 40, 46);

  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcut;
  Gemm<BordersMaintainer, TxBlockPtr> gemm(
      bss, w, [&options] { return BordersMaintainer(options); });

  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    std::vector<TxBlockPtr> selected;
    for (BlockId id : ExpectedSelection(bss, t, w)) {
      selected.push_back(blocks[id - 1]);
    }
    const ItemsetModel& actual = gemm.current().model();
    if (selected.empty()) {
      EXPECT_EQ(actual.num_transactions(), 0u) << "t=" << t;
      continue;
    }
    const ItemsetModel expected =
        Apriori(selected, options.minsup, options.num_items);
    ASSERT_EQ(actual.entries().size(), expected.entries().size())
        << "t=" << t;
    for (const auto& [itemset, entry] : expected.entries()) {
      const auto it = actual.entries().find(itemset);
      ASSERT_NE(it, actual.entries().end()) << ToString(itemset);
      EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
      EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BssVariants, GemmItemsetBssTest,
    ::testing::Values(
        BlockSelectionSequence::AllBlocks(),
        BlockSelectionSequence::Periodic(2, 0),
        BlockSelectionSequence::WindowIndependent(
            {true, false, true, true, false, true, false, false, true}),
        BlockSelectionSequence::WindowRelative({true, false, true, true}),
        BlockSelectionSequence::WindowRelative({false, true, false, true})),
    [](const auto& info) {
      switch (info.index) {
        case 0:
          return "AllBlocks";
        case 1:
          return "PeriodicEven";
        case 2:
          return "IndependentMixed";
        case 3:
          return "Relative1011";
        default:
          return "Relative0101";
      }
    });

TEST(GemmTest, ClusterModelMatchesFromScratchBirch) {
  // GEMM over BIRCH+ gives most-recent-window clustering, which BIRCH
  // alone cannot (no deletions, §3.2.4). Check against from-scratch BIRCH
  // on the window's selected blocks; from block 2w on, the current model
  // is a recycled one.
  ClusterGenParams params;
  params.num_points = 5600;
  params.num_clusters = 6;
  params.dim = 3;
  params.seed = 47;
  ClusterGenerator gen(params);
  std::vector<PtBlockPtr> blocks;
  for (int b = 0; b < 7; ++b) {
    auto block = std::make_shared<PointBlock>(gen.NextBlock(800));
    block->mutable_info()->id = static_cast<BlockId>(b + 1);
    blocks.push_back(std::move(block));
  }

  BirchOptions birch_options;
  birch_options.num_clusters = 6;
  birch_options.phase2 = Phase2Algorithm::kAgglomerative;
  birch_options.tree.max_leaf_entries = 256;
  const size_t w = 3;
  const auto bss = BlockSelectionSequence::AllBlocks();
  Gemm<ClusterMaintainer, PtBlockPtr> gemm(bss, w, [&] {
    return ClusterMaintainer(params.dim, birch_options);
  });

  for (size_t t = 1; t <= blocks.size(); ++t) {
    gemm.AddBlock(blocks[t - 1]);
    const size_t start = t >= w ? t - w + 1 : 1;
    std::vector<PtBlockPtr> window(blocks.begin() + (start - 1),
                                   blocks.begin() + t);
    const ClusterModel expected = RunBirch(window, params.dim, birch_options);
    const ClusterModel& actual = gemm.current().model();
    ASSERT_EQ(actual.NumClusters(), expected.NumClusters()) << "t=" << t;
    for (size_t c = 0; c < expected.NumClusters(); ++c) {
      EXPECT_EQ(actual.clusters()[c], expected.clusters()[c]);
    }
  }
}

TEST(GemmTest, TelemetrySpansCoverResponseAndOffline) {
  const auto blocks = MakeBlocks(5, 100, 30, 48);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 30;
  ThreadPool two_threads(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two_threads}) {
    SCOPED_TRACE(pool == nullptr ? "serial drain" : "pooled drain");
    telemetry::TelemetryRegistry registry;
    Gemm<BordersMaintainer, TxBlockPtr> gemm(
        BlockSelectionSequence::AllBlocks(), 3,
        [&options] { return BordersMaintainer(options); });
    gemm.set_telemetry(&registry);
    gemm.set_thread_pool(pool);
    for (const auto& block : blocks) gemm.AddBlock(block);
    const std::vector<telemetry::SpanRecord> spans = registry.CollectSpans();
    if constexpr (!telemetry::kEnabled) {
      EXPECT_TRUE(spans.empty());
      continue;
    }
    // Every AddBlock emits one response-path window span (a root here)
    // and one gemm-offline span; each off-line window span hangs off its
    // block's gemm-offline span, whichever thread emitted it. With w = 3
    // the blocks drain 0, 1, 2, 2 and 2 future windows.
    std::map<uint64_t, const telemetry::SpanRecord*> drains;
    for (const auto& span : spans) {
      if (span.name == "gemm-offline") drains[span.id] = &span;
    }
    EXPECT_EQ(drains.size(), blocks.size());
    size_t response_spans = 0;
    size_t offline_window_spans = 0;
    for (const auto& span : spans) {
      EXPECT_EQ(span.category, "gemm");
      EXPECT_GE(span.end_ns, span.start_ns);
      if (span.name.rfind("window@", 0) != 0) continue;
      if (span.parent == 0) {
        ++response_spans;
        continue;
      }
      const auto drain = drains.find(span.parent);
      ASSERT_NE(drain, drains.end()) << span.name << " has a parent that "
                                     << "is not a gemm-offline span";
      EXPECT_GE(span.start_ns, drain->second->start_ns) << span.name;
      EXPECT_LE(span.end_ns, drain->second->end_ns) << span.name;
      ++offline_window_spans;
    }
    EXPECT_EQ(response_spans, blocks.size());
    EXPECT_EQ(offline_window_spans, 7u);
  }
}

// The off-line drain on a pool leaves every window model byte for byte
// as the serial drain does, after every block.
TEST(GemmTest, ConcurrentDrainMatchesSerialDrain) {
  const auto blocks = MakeDriftingBlocks(12, 200, 40, 51);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcutPlus;
  ThreadPool pool(2);
  for (const size_t w : {1, 2, 3, 5}) {
    for (const BlockSelectionSequence& bss : BssPairFor(w)) {
      SCOPED_TRACE("w=" + std::to_string(w) +
                   (bss.is_window_relative() ? " relative" : " independent"));
      Gemm<BordersMaintainer, TxBlockPtr> serial(
          bss, w, [&options] { return BordersMaintainer(options); });
      Gemm<BordersMaintainer, TxBlockPtr> concurrent(bss, w, [&] {
        BordersMaintainer maintainer(options);
        maintainer.set_counting_pool(&pool);
        return maintainer;
      });
      concurrent.set_thread_pool(&pool);
      for (const TxBlockPtr& block : blocks) {
        SCOPED_TRACE("block " + std::to_string(block->info().id));
        serial.AddBlock(block);
        concurrent.AddBlock(block);
        ASSERT_EQ(concurrent.ModelStarts(), serial.ModelStarts());
        for (size_t i = 0; i < serial.NumModels(); ++i) {
          EXPECT_EQ(StateOf(concurrent.window_model(i)),
                    StateOf(serial.window_model(i)))
              << "window model " << i;
        }
      }
    }
  }
}

// A window model reset and reused for a new window is indistinguishable
// from a factory-fresh maintainer fed the blocks that window selects.
TEST(GemmTest, RecycledWindowModelMatchesFreshModel) {
  const auto blocks = MakeDriftingBlocks(12, 200, 40, 52);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcutPlus;
  for (const size_t w : {2, 3, 5}) {
    for (const BlockSelectionSequence& bss : BssPairFor(w)) {
      SCOPED_TRACE("w=" + std::to_string(w) +
                   (bss.is_window_relative() ? " relative" : " independent"));
      Gemm<BordersMaintainer, TxBlockPtr> gemm(
          bss, w, [&options] { return BordersMaintainer(options); });
      for (size_t t = 1; t <= blocks.size(); ++t) {
        gemm.AddBlock(blocks[t - 1]);
        // From 2w blocks on, every window model has been recycled.
        if (t < 2 * w) continue;
        const std::vector<BlockId> starts = gemm.ModelStarts();
        for (size_t i = 0; i < starts.size(); ++i) {
          SCOPED_TRACE("t=" + std::to_string(t) + " window@" +
                       std::to_string(starts[i]));
          BordersMaintainer fresh(options);
          for (const BlockId id : gemm.ExpectedSelection(starts[i])) {
            fresh.AddBlock(blocks[id - 1]);
          }
          const BordersMaintainer& recycled = gemm.window_model(i);
          EXPECT_EQ(StateOf(recycled), StateOf(fresh));
          EXPECT_EQ(recycled.model().entries().num_retired(),
                    fresh.model().entries().num_retired());
          EXPECT_EQ(recycled.tidlist_store().TotalPayloadBytes(),
                    fresh.tidlist_store().TotalPayloadBytes());
        }
      }
    }
  }
}

TEST(AuMTest, AllOnesBssMatchesGemmModel) {
  const auto blocks = MakeBlocks(7, 150, 40, 49);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  const size_t w = 3;

  AuMItemsetMaintainer aum(options, BlockSelectionSequence::AllBlocks(), w);
  for (size_t t = 1; t <= blocks.size(); ++t) {
    aum.AddBlock(blocks[t - 1]);
    const size_t start = t >= w ? t - w + 1 : 1;
    const std::vector<TxBlockPtr> window(blocks.begin() + (start - 1),
                                         blocks.begin() + t);
    const ItemsetModel expected =
        Apriori(window, options.minsup, options.num_items);
    ASSERT_EQ(aum.model().entries().size(), expected.entries().size());
    for (const auto& [itemset, entry] : expected.entries()) {
      EXPECT_EQ(aum.model().CountOf(itemset), entry.count);
    }
    if (t > w) {
      // Steady state: exactly one addition and one deletion per slide.
      EXPECT_EQ(aum.last_stats().blocks_added, 1u);
      EXPECT_EQ(aum.last_stats().blocks_removed, 1u);
    }
  }
}

// AuM over ECUT/ECUT+ deletes the block that just left its window. AuM's
// window was the last holder of that block's flat records, so the
// deletion reads them transposed back from the shared item lists — and
// must still leave the model Apriori computes over the window.
TEST(AuMTest, DeletingADroppedBlockMatchesApriori) {
  const auto blocks = MakeDriftingBlocks(9, 120, 30, 52);
  for (const CountingStrategy strategy :
       {CountingStrategy::kEcut, CountingStrategy::kEcutPlus}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersOptions options;
    options.minsup = 0.06;
    options.num_items = 30;
    options.strategy = strategy;
    const size_t w = 2;
    AuMItemsetMaintainer aum(options, BlockSelectionSequence::AllBlocks(), w);
    for (size_t t = 1; t <= blocks.size(); ++t) {
      // A copy only AuM holds: once AuM's window lets go of it, nothing
      // keeps the flat block alive.
      aum.AddBlock(std::make_shared<const TransactionBlock>(*blocks[t - 1]));
      if (t > w) {
        EXPECT_EQ(aum.last_stats().blocks_removed, 1u);
      }
      const size_t start = t >= w ? t - w + 1 : 1;
      const std::vector<TxBlockPtr> window(blocks.begin() + (start - 1),
                                           blocks.begin() + t);
      const ItemsetModel expected =
          Apriori(window, options.minsup, options.num_items);
      ASSERT_EQ(aum.model().entries().size(), expected.entries().size())
          << "t=" << t;
      for (const auto& [itemset, entry] : expected.entries()) {
        EXPECT_EQ(aum.model().CountOf(itemset), entry.count);
        EXPECT_EQ(aum.model().IsFrequent(itemset), entry.frequent);
      }
    }
  }
}

TEST(AuMTest, AlternatingBssDegeneratesToFullReplacement) {
  // §3.2.4: with window-relative <1010> the selected sets of consecutive
  // windows are disjoint, so AuM replaces every block.
  const auto blocks = MakeBlocks(8, 80, 30, 50);
  BordersOptions options;
  options.minsup = 0.06;
  options.num_items = 30;
  const auto bss =
      BlockSelectionSequence::WindowRelative({true, false, true, false});
  AuMItemsetMaintainer aum(options, bss, 4);
  for (size_t t = 1; t <= blocks.size(); ++t) aum.AddBlock(blocks[t - 1]);
  // Window [5..8]: selected {5, 7}; previous window [4..7] selected {4, 6}.
  EXPECT_EQ(aum.last_stats().blocks_added, 2u);
  EXPECT_EQ(aum.last_stats().blocks_removed, 2u);
  const ItemsetModel expected =
      Apriori({blocks[4], blocks[6]}, options.minsup, options.num_items);
  ASSERT_EQ(aum.model().entries().size(), expected.entries().size());
  for (const auto& [itemset, entry] : expected.entries()) {
    EXPECT_EQ(aum.model().CountOf(itemset), entry.count);
    EXPECT_EQ(aum.model().IsFrequent(itemset), entry.frequent);
  }
}

}  // namespace
}  // namespace demon
