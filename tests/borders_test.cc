#include "itemsets/borders.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/random.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "persistence/block_codec.h"

namespace demon {
namespace {

using BlockPtr = std::shared_ptr<const TransactionBlock>;

// Asserts that two models are identical: same tracked itemsets, counts and
// frequency flags (the paper's correctness claim for BORDERS maintenance).
void ExpectModelsEqual(const ItemsetModel& actual,
                       const ItemsetModel& expected) {
  EXPECT_EQ(actual.num_transactions(), expected.num_transactions());
  ASSERT_EQ(actual.entries().size(), expected.entries().size());
  for (const auto& [itemset, entry] : expected.entries()) {
    const auto it = actual.entries().find(itemset);
    ASSERT_NE(it, actual.entries().end()) << "missing " << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
    EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
  }
}

std::vector<BlockPtr> MakeQuestBlocks(size_t num_blocks, size_t block_size,
                                      size_t num_items, uint64_t seed,
                                      double avg_len = 8.0) {
  QuestParams params;
  params.num_transactions = num_blocks * block_size;
  params.num_items = num_items;
  params.num_patterns = 40;
  params.avg_transaction_len = avg_len;
  params.avg_pattern_len = 3;
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

class BordersStrategyTest
    : public ::testing::TestWithParam<CountingStrategy> {};

TEST_P(BordersStrategyTest, IncrementalEqualsFromScratchAfterEveryBlock) {
  const auto blocks = MakeQuestBlocks(5, 400, 60, 21);
  BordersOptions options;
  options.minsup = 0.04;
  options.num_items = 60;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);

  std::vector<BlockPtr> so_far;
  for (const auto& block : blocks) {
    maintainer.AddBlock(block);
    so_far.push_back(block);
    const ItemsetModel scratch =
        Apriori(so_far, options.minsup, options.num_items);
    ExpectModelsEqual(maintainer.model(), scratch);
  }
}

TEST_P(BordersStrategyTest, DistributionShiftBetweenBlocks) {
  // Second-block distribution differs (the Figs 4-7 setting): more model
  // churn exercises promotion/demotion paths.
  const auto first = MakeQuestBlocks(1, 1500, 60, 22, /*avg_len=*/8.0);
  QuestParams second_params;
  second_params.num_transactions = 500;
  second_params.num_items = 60;
  second_params.num_patterns = 80;  // different pattern table
  second_params.avg_transaction_len = 10.0;
  second_params.avg_pattern_len = 4;
  second_params.seed = 1234;
  QuestGenerator second_gen(second_params);
  auto second = std::make_shared<TransactionBlock>(
      second_gen.NextBlock(500, first[0]->size()));

  BordersOptions options;
  options.minsup = 0.03;
  options.num_items = 60;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(first[0]);
  maintainer.AddBlock(second);

  const ItemsetModel scratch =
      Apriori({first[0], second}, options.minsup, options.num_items);
  ExpectModelsEqual(maintainer.model(), scratch);
  EXPECT_GT(maintainer.last_stats().update_iterations +
                maintainer.last_stats().new_candidates,
            0u);
}

TEST_P(BordersStrategyTest, RemoveOldestBlockMatchesFromScratch) {
  const auto blocks = MakeQuestBlocks(4, 300, 50, 23);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 50;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.RemoveOldestBlock();
  ExpectModelsEqual(maintainer.model(),
                    Apriori({blocks[1], blocks[2], blocks[3]},
                            options.minsup, options.num_items));
  maintainer.RemoveOldestBlock();
  ExpectModelsEqual(
      maintainer.model(),
      Apriori({blocks[2], blocks[3]}, options.minsup, options.num_items));
}

TEST_P(BordersStrategyTest, SlidingWindowAddAndRemove) {
  // AuM-style usage (§3.2.4): add new block, drop oldest, repeatedly.
  const auto blocks = MakeQuestBlocks(6, 250, 40, 24);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[1]);
  maintainer.AddBlock(blocks[2]);
  for (size_t next = 3; next < blocks.size(); ++next) {
    maintainer.AddBlock(blocks[next]);
    maintainer.RemoveOldestBlock();
    const std::vector<BlockPtr> window(blocks.begin() + (next - 2),
                                       blocks.begin() + next + 1);
    ExpectModelsEqual(maintainer.model(),
                      Apriori(window, options.minsup, options.num_items));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BordersStrategyTest,
                         ::testing::Values(CountingStrategy::kPtScan,
                                           CountingStrategy::kEcut,
                                           CountingStrategy::kEcutPlus),
                         [](const auto& info) {
                           switch (info.param) {
                             case CountingStrategy::kPtScan:
                               return "PtScan";
                             case CountingStrategy::kEcut:
                               return "Ecut";
                             case CountingStrategy::kEcutPlus:
                               return "EcutPlus";
                           }
                           return "Unknown";
                         });

TEST(BordersTest, RaisingMinSupportShrinksModelConsistently) {
  const auto blocks = MakeQuestBlocks(3, 400, 50, 25);
  BordersOptions options;
  options.minsup = 0.03;
  options.num_items = 50;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.ChangeMinSupport(0.08);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, 0.08, 50));
}

TEST(BordersTest, LoweringMinSupportGrowsModelConsistently) {
  const auto blocks = MakeQuestBlocks(3, 400, 50, 26);
  BordersOptions options;
  options.minsup = 0.08;
  options.num_items = 50;
  options.strategy = CountingStrategy::kEcut;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.ChangeMinSupport(0.03);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, 0.03, 50));
}

TEST(BordersTest, UnselectedBlocksAreSimplySkipped) {
  // BSS semantics (§3.1.1): if b_{t+1} = 0 the model carries over; the
  // caller just does not pass the block in. The model must then equal the
  // from-scratch model over the selected blocks only.
  const auto blocks = MakeQuestBlocks(4, 300, 40, 27);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[2]);  // skip blocks[1] and blocks[3]
  ExpectModelsEqual(maintainer.model(),
                    Apriori({blocks[0], blocks[2]}, options.minsup, 40));
}

TEST(BordersTest, StatsReportPhases) {
  const auto blocks = MakeQuestBlocks(2, 500, 50, 28);
  BordersOptions options;
  options.minsup = 0.04;
  options.num_items = 50;
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[1]);
  const auto& stats = maintainer.last_stats();
  EXPECT_GE(stats.detection_seconds, 0.0);
  EXPECT_GE(stats.update_seconds, 0.0);
}

TEST(BordersTest, EcutPlusBudgetZeroStillCorrect) {
  // With a zero pair budget ECUT+ degenerates to ECUT but must stay exact.
  const auto blocks = MakeQuestBlocks(3, 300, 40, 29);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcutPlus;
  options.pair_budget_fraction = 0.0;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, options.minsup, 40));
}

TEST(BordersTest, ManySmallBlocksStressPromotionDemotionCycles) {
  // Tiny skewed blocks make itemsets oscillate across the threshold.
  Rng rng(30);
  BordersOptions options;
  options.minsup = 0.3;
  options.num_items = 8;
  BordersMaintainer maintainer(options);
  std::vector<BlockPtr> so_far;
  Tid tid = 0;
  for (int b = 0; b < 20; ++b) {
    std::vector<Transaction> transactions;
    const size_t n = 5 + rng.NextUint64(10);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Item> items;
      for (Item item = 0; item < 8; ++item) {
        if (rng.NextBernoulli(0.4)) items.push_back(item);
      }
      if (items.empty()) items.push_back(static_cast<Item>(b % 8));
      transactions.push_back(Transaction(std::move(items)));
    }
    auto block =
        std::make_shared<TransactionBlock>(std::move(transactions), tid);
    tid += block->size();
    maintainer.AddBlock(block);
    so_far.push_back(block);
    ExpectModelsEqual(maintainer.model(),
                      Apriori(so_far, options.minsup, options.num_items));
  }
}

// --- Retired-extension rows --------------------------------------------

constexpr CountingStrategy kAllStrategies[] = {CountingStrategy::kPtScan,
                                               CountingStrategy::kEcut,
                                               CountingStrategy::kEcutPlus};

constexpr double kOscillatingMinsup = 0.25;

// A stream whose border oscillates: {0} — always bought with 1 and 2 —
// has a cumulative count of exactly MinCount (25 b) after the odd blocks
// b = 1, 3, 5, ... and one short of it after the even ones, so {0},
// {0,1}, {0,2} and {0,1,2} are demoted and re-promoted block after block
// while items 1..6 stay frequent. Item 0's extensions {0,x} stay in the
// border while {0} is frequent, so every demotion prunes them and every
// re-promotion generates them again. Block ids are the block indices.
std::vector<BlockPtr> OscillatingBlocks(size_t num_blocks,
                                        size_t block_size = 100) {
  Rng rng(77);
  std::vector<BlockPtr> blocks;
  uint64_t cumulative = 0;
  for (size_t b = 1; b <= num_blocks; ++b) {
    // MinCount after b blocks is block_size * b / 4 exactly.
    const uint64_t target = block_size * b / 4 - (b % 2 == 0 ? 1 : 0);
    const uint64_t with_zero = target - cumulative;
    cumulative = target;
    std::vector<Transaction> transactions;
    for (size_t t = 0; t < block_size; ++t) {
      std::vector<Item> items;
      if (t < with_zero) {
        items = {0, 1, 2};
      } else {
        for (Item item = 1; item <= 2; ++item) {
          if (rng.NextBernoulli(0.5)) items.push_back(item);
        }
      }
      for (Item item = 3; item <= 6; ++item) {
        if (rng.NextBernoulli(0.6)) items.push_back(item);
      }
      for (Item item = 7; item <= 11; ++item) {
        if (rng.NextBernoulli(0.05)) items.push_back(item);
      }
      if (items.empty()) items.push_back(11);
      transactions.push_back(Transaction(std::move(items)));
    }
    auto block = std::make_shared<TransactionBlock>(std::move(transactions),
                                                    (b - 1) * block_size);
    block->mutable_info()->id = static_cast<BlockId>(b - 1);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

BordersOptions OscillatingOptions(CountingStrategy strategy) {
  BordersOptions options;
  options.minsup = kOscillatingMinsup;
  options.num_items = 12;
  options.strategy = strategy;
  return options;
}

// The structural audits plus the from-scratch one, which also recounts
// every retired-row entry.
void ExpectAuditsClean(const BordersMaintainer& maintainer) {
  audit::AuditResult audit;
  maintainer.AuditInto(&audit);
  maintainer.AuditRescratchInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(BordersTest, OscillatingBorderIsRevivedNotRecounted) {
  const auto blocks = OscillatingBlocks(9);
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    // Declared first: the maintainer's TID-list pager reports to it until
    // the maintainer is destroyed.
    telemetry::TelemetryRegistry registry;
    BordersMaintainer maintainer(OscillatingOptions(strategy));
    maintainer.set_telemetry(&registry);
    telemetry::Counter* const counted =
        registry.counter("counting/itemsets_counted");
    std::vector<BlockPtr> so_far;
    size_t revived = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      SCOPED_TRACE(b);
      const uint64_t tracked_before = maintainer.model().entries().size();
      const uint64_t counted_before = counted->value();
      maintainer.AddBlock(blocks[b]);
      so_far.push_back(blocks[b]);
      ExpectModelsEqual(maintainer.model(),
                        Apriori(so_far, kOscillatingMinsup, 12));
      ExpectAuditsClean(maintainer);
      // Blocks 0, 2, 4, ... leave {0} frequent, 1, 3, 5, ... demote it.
      ASSERT_EQ(maintainer.model().IsFrequent({0}), b % 2 == 0);
      const auto& stats = maintainer.last_stats();
      revived += stats.revived_candidates;
      if (b % 2 == 1) {
        EXPECT_GT(maintainer.model().entries().num_retired(), 0u);
        continue;
      }
      if (b == 0) continue;  // the base case mines from scratch
      EXPECT_GT(stats.revived_candidates, 0u);
      EXPECT_LE(stats.revived_candidates, stats.new_candidates);
      if constexpr (telemetry::kEnabled) {
        // Detection counts the whole model once; the update phase counts
        // only the candidates no row held.
        EXPECT_EQ(counted->value() - counted_before - tracked_before,
                  stats.new_candidates - stats.revived_candidates);
      }
    }
    if constexpr (telemetry::kEnabled) {
      EXPECT_EQ(registry.counter("borders/revived_candidates")->value(),
                revived);
    }
  }
}

TEST(BordersTest, RetiredRowsStayExactUnderBlockDeletion) {
  const auto blocks = OscillatingBlocks(12);
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersMaintainer maintainer(OscillatingOptions(strategy));
    std::deque<BlockPtr> window;
    size_t revived = 0;
    for (const BlockPtr& block : blocks) {
      maintainer.AddBlock(block);
      window.push_back(block);
      revived += maintainer.last_stats().revived_candidates;
      if (window.size() > 4) {
        maintainer.RemoveOldestBlock();
        window.pop_front();
        revived += maintainer.last_stats().revived_candidates;
      }
      ExpectModelsEqual(maintainer.model(),
                        Apriori({window.begin(), window.end()},
                                kOscillatingMinsup, 12));
      ExpectAuditsClean(maintainer);
    }
    EXPECT_GT(revived, 0u);
  }
}

TEST(BordersTest, RetiredRowsStayExactUnderMinSupportChanges) {
  const auto blocks = OscillatingBlocks(5);
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersMaintainer maintainer(OscillatingOptions(strategy));
    const std::vector<BlockPtr> first(blocks.begin(), blocks.begin() + 4);
    for (const BlockPtr& block : first) maintainer.AddBlock(block);

    // Raising κ demotes most of L, retiring its border extensions.
    maintainer.ChangeMinSupport(0.45);
    ExpectModelsEqual(maintainer.model(), Apriori(first, 0.45, 12));
    EXPECT_GT(maintainer.model().entries().num_retired(), 0u);
    ExpectAuditsClean(maintainer);

    // A block arrives under the raised κ; the rows count it too.
    maintainer.AddBlock(blocks[4]);
    ExpectModelsEqual(maintainer.model(), Apriori(blocks, 0.45, 12));
    ExpectAuditsClean(maintainer);

    // Lowering κ again re-promotes them from their rows.
    maintainer.ChangeMinSupport(kOscillatingMinsup);
    ExpectModelsEqual(maintainer.model(),
                      Apriori(blocks, kOscillatingMinsup, 12));
    EXPECT_GT(maintainer.last_stats().revived_candidates, 0u);
    ExpectAuditsClean(maintainer);
  }
}

// GEMM keeps w copies of a maintainer: a copy carries the rows and keeps
// them exact independently of the original.
TEST(BordersTest, RetiredRowsSurviveMaintainerCopies) {
  const auto blocks = OscillatingBlocks(7);
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersMaintainer original(OscillatingOptions(strategy));
    original.AddBlock(blocks[0]);
    original.AddBlock(blocks[1]);
    const size_t retired = original.model().entries().num_retired();
    ASSERT_GT(retired, 0u);
    BordersMaintainer copy = original;

    // The original revives its rows; the copy's stay untouched.
    original.AddBlock(blocks[2]);
    EXPECT_GT(original.last_stats().revived_candidates, 0u);
    EXPECT_EQ(copy.model().entries().num_retired(), retired);

    copy.AddBlock(blocks[2]);
    EXPECT_EQ(copy.last_stats().revived_candidates,
              original.last_stats().revived_candidates);
    std::vector<BlockPtr> so_far = {blocks[0], blocks[1], blocks[2]};
    for (size_t b = 3; b < blocks.size(); ++b) {
      original.AddBlock(blocks[b]);
      copy.AddBlock(blocks[b]);
      so_far.push_back(blocks[b]);
      const ItemsetModel scratch = Apriori(so_far, kOscillatingMinsup, 12);
      ExpectModelsEqual(original.model(), scratch);
      ExpectModelsEqual(copy.model(), scratch);
      ExpectAuditsClean(original);
      ExpectAuditsClean(copy);
    }
  }
}

// On a drifting stream the pruned border of old regimes would outgrow the
// model; rows are capped at half the tracked itemsets and stay exact.
TEST(BordersTest, RetiredRowsStayBelowHalfTheModel) {
  std::vector<BlockPtr> blocks = MakeQuestBlocks(4, 300, 40, 31);
  for (const BlockPtr& block : MakeQuestBlocks(4, 300, 40, 32)) {
    blocks.push_back(block);
  }
  BordersOptions options;
  options.minsup = 0.04;
  options.num_items = 40;
  BordersMaintainer maintainer(options);
  std::vector<BlockPtr> so_far;
  size_t most_retired = 0;
  for (const BlockPtr& block : blocks) {
    maintainer.AddBlock(block);
    so_far.push_back(block);
    const ItemsetTrie& trie = maintainer.model().entries();
    EXPECT_LE(trie.num_retired(), trie.size() / 2);
    most_retired = std::max(most_retired, trie.num_retired());
    ExpectModelsEqual(maintainer.model(),
                      Apriori(so_far, options.minsup, options.num_items));
    ExpectAuditsClean(maintainer);
  }
  EXPECT_GT(most_retired, 0u);
}

// Detection walks shard transactions over a pool and fold the retired
// rows concurrently: rows, revivals and models must match the sequential
// maintainer's exactly.
TEST(BordersTest, ParallelDetectionFoldsRetiredRowsLikeSequential) {
  const auto blocks = OscillatingBlocks(6, /*block_size=*/1200);
  ThreadPool pool(4);
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersMaintainer sequential(OscillatingOptions(strategy));
    BordersMaintainer parallel(OscillatingOptions(strategy));
    parallel.set_counting_pool(&pool);
    for (const BlockPtr& block : blocks) {
      sequential.AddBlock(block);
      parallel.AddBlock(block);
      EXPECT_EQ(parallel.last_stats().revived_candidates,
                sequential.last_stats().revived_candidates);
      ExpectModelsEqual(parallel.model(), sequential.model());
      ExpectAuditsClean(parallel);
    }
    EXPECT_GT(parallel.model().entries().num_retired(), 0u);
    parallel.RemoveOldestBlock();
    sequential.RemoveOldestBlock();
    ExpectModelsEqual(parallel.model(), sequential.model());
    ExpectAuditsClean(parallel);
  }
}

// Rows are a cache, not state: a checkpoint of a maintainer holding rows
// equals the one its restored twin (which has none) writes, and the two
// stay byte-identical as the stream goes on.
TEST(BordersTest, RetiredRowsAreNotCheckpointed) {
  const auto blocks = OscillatingBlocks(6);
  persistence::BlockSource source;
  source.transactions = [&](BlockId id)
      -> Result<std::shared_ptr<const HistoryBlock>> {
    return std::make_shared<const HistoryBlock>(blocks.at(id));
  };
  const auto save = [](const BordersMaintainer& maintainer) {
    persistence::Writer w;
    maintainer.SaveState(w);
    return w.buffer();
  };
  for (const CountingStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(strategy));
    BordersMaintainer original(OscillatingOptions(strategy));
    original.AddBlock(blocks[0]);
    original.AddBlock(blocks[1]);
    ASSERT_GT(original.model().entries().num_retired(), 0u);
    const auto saved = save(original);

    BordersMaintainer restored(OscillatingOptions(strategy));
    persistence::Reader r(saved);
    r.set_block_source(&source);
    ASSERT_TRUE(restored.LoadState(r).ok()) << r.status();
    EXPECT_EQ(restored.model().entries().num_retired(), 0u);
    EXPECT_EQ(save(restored), saved);

    for (size_t b = 2; b < blocks.size(); ++b) {
      original.AddBlock(blocks[b]);
      restored.AddBlock(blocks[b]);
      if (b == 2) {
        EXPECT_GT(original.last_stats().revived_candidates, 0u);
        EXPECT_EQ(restored.last_stats().revived_candidates, 0u);
      }
      EXPECT_EQ(save(restored), save(original));
      ExpectAuditsClean(restored);
    }
  }
}

// Reset() drops everything a stream left behind — model, retired rows,
// blocks and ECUT+ pair lists — so a second stream sees a fresh maintainer.
TEST(BordersTest, ResetLeavesNoState) {
  const BordersOptions options = OscillatingOptions(CountingStrategy::kEcutPlus);
  BordersMaintainer recycled(options);
  for (const BlockPtr& block : OscillatingBlocks(4)) recycled.AddBlock(block);
  ASSERT_GT(recycled.model().entries().num_retired(), 0u);
  ASSERT_GT(recycled.tidlist_store().TotalPairSlots(), 0u);
  recycled.Reset();

  const auto second = MakeQuestBlocks(4, 300, 12, 61, /*avg_len=*/4.0);
  BordersMaintainer fresh(options);
  std::vector<BlockPtr> so_far;
  for (const BlockPtr& block : second) {
    recycled.AddBlock(block);
    fresh.AddBlock(block);
    so_far.push_back(block);
    persistence::Writer recycled_state;
    persistence::Writer fresh_state;
    recycled.SaveState(recycled_state);
    fresh.SaveState(fresh_state);
    EXPECT_EQ(recycled_state.buffer(), fresh_state.buffer());
    EXPECT_EQ(recycled.tidlist_store().TotalPayloadBytes(),
              fresh.tidlist_store().TotalPayloadBytes());
    EXPECT_EQ(recycled.model().entries().num_retired(),
              fresh.model().entries().num_retired());
    ExpectModelsEqual(recycled.model(),
                      Apriori(so_far, options.minsup, options.num_items));
    ExpectAuditsClean(recycled);
  }
}

}  // namespace
}  // namespace demon
