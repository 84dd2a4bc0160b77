#include "itemsets/counting_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <utility>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/borders.h"

namespace demon {
namespace {

struct Fixture {
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  TidListStore plain_store;
  TidListStore pair_store;
  size_t num_items;
};

Fixture MakeFixture(size_t num_blocks, size_t block_size, size_t num_items,
                    uint64_t seed) {
  QuestParams params;
  params.num_transactions = num_blocks * block_size;
  params.num_items = num_items;
  params.num_patterns = 50;
  params.avg_transaction_len = 8;
  params.avg_pattern_len = 3;
  params.seed = seed;
  QuestGenerator gen(params);

  Fixture fixture;
  fixture.num_items = num_items;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto block = std::make_shared<TransactionBlock>(
        gen.NextBlock(block_size, tid));
    tid += block->size();
    fixture.blocks.push_back(block);
    fixture.plain_store.Append(BlockTidLists::Build(*block, num_items));
    PairMaterializationSpec spec;
    for (Item a = 0; a < 12; ++a) {
      for (Item b2 = a + 1; b2 < 12; ++b2) spec.pairs.push_back({a, b2});
    }
    fixture.pair_store.Append(
        BlockTidLists::Build(*block, num_items, &spec));
  }
  return fixture;
}

std::vector<Itemset> RandomItemsets(size_t count, size_t max_size,
                                    size_t num_items, uint64_t seed) {
  Rng rng(seed);
  std::vector<Itemset> itemsets;
  while (itemsets.size() < count) {
    Itemset itemset;
    const size_t size = 1 + rng.NextUint64(max_size);
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(
          rng.NextBernoulli(0.5) ? rng.NextUint64(12)
                                 : rng.NextUint64(num_items));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(
            std::lower_bound(itemset.begin(), itemset.end(), item), item);
      }
    }
    itemsets.push_back(std::move(itemset));
  }
  return itemsets;
}

void ExpectStatsEq(const CountingStats& a, const CountingStats& b,
                   const char* what) {
  EXPECT_EQ(a.slots_fetched, b.slots_fetched) << what;
  EXPECT_EQ(a.lists_opened, b.lists_opened) << what;
}

// The tentpole invariant: for every strategy and thread count, parallel
// counting is bit-identical to sequential — counts and stats alike.
TEST(CountingContextTest, ParallelMatchesSequentialAllStrategies) {
  const Fixture fixture = MakeFixture(4, 700, 120, 21);
  const auto itemsets = RandomItemsets(160, 4, fixture.num_items, 22);

  for (CountingStrategy strategy :
       {CountingStrategy::kPtScan, CountingStrategy::kEcut,
        CountingStrategy::kEcutPlus}) {
    const TidListStore& store = strategy == CountingStrategy::kEcutPlus
                                    ? fixture.pair_store
                                    : fixture.plain_store;
    CountingContext sequential;
    CountingStats seq_stats;
    const auto expected = sequential.Count(strategy, itemsets, fixture.blocks,
                                           store, &seq_stats);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      CountingContext context(&pool);
      CountingStats stats;
      const auto counts =
          context.Count(strategy, itemsets, fixture.blocks, store, &stats);
      EXPECT_EQ(counts, expected)
          << CountingStrategyName(strategy) << " threads=" << threads;
      ExpectStatsEq(stats, seq_stats, CountingStrategyName(strategy));
    }
  }
}

TEST(CountingContextTest, CountItemsMatchesBruteForce) {
  const Fixture fixture = MakeFixture(3, 400, 80, 23);
  std::vector<uint64_t> expected(fixture.num_items, 0);
  for (const auto& block : fixture.blocks) {
    for (const Transaction& t : block->transactions()) {
      for (Item item : t.items()) ++expected[item];
    }
  }
  CountingContext sequential;
  EXPECT_EQ(sequential.CountItems(fixture.blocks, fixture.num_items),
            expected);
  ThreadPool pool(4);
  CountingContext parallel(&pool);
  EXPECT_EQ(parallel.CountItems(fixture.blocks, fixture.num_items), expected);
}

TEST(CountingContextTest, AprioriWithPoolMatchesSequential) {
  const Fixture fixture = MakeFixture(3, 400, 60, 24);
  const ItemsetModel expected = Apriori(fixture.blocks, 0.02,
                                        fixture.num_items);
  ThreadPool pool(4);
  CountingContext context(&pool);
  const ItemsetModel parallel =
      Apriori(fixture.blocks, 0.02, fixture.num_items, &context);
  ASSERT_EQ(parallel.entries().size(), expected.entries().size());
  EXPECT_EQ(parallel.num_transactions(), expected.num_transactions());
  for (const auto& [itemset, entry] : expected.entries()) {
    const auto it = parallel.entries().find(itemset);
    ASSERT_NE(it, parallel.entries().end()) << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
    EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
  }
}

// Scratch buffers persist across calls; reuse must not leak state between
// calls with different itemset sets or strategies.
TEST(CountingContextTest, ReuseAcrossCallsMatchesFreshContext) {
  const Fixture fixture = MakeFixture(2, 300, 60, 25);
  ThreadPool pool(3);
  CountingContext reused(&pool);
  for (uint64_t round = 0; round < 4; ++round) {
    const auto itemsets =
        RandomItemsets(30 + 20 * round, 4, fixture.num_items, 100 + round);
    for (CountingStrategy strategy :
         {CountingStrategy::kPtScan, CountingStrategy::kEcut,
          CountingStrategy::kEcutPlus}) {
      CountingContext fresh;
      EXPECT_EQ(reused.Count(strategy, itemsets, fixture.blocks,
                             fixture.pair_store),
                fresh.Count(strategy, itemsets, fixture.blocks,
                            fixture.pair_store))
          << CountingStrategyName(strategy) << " round " << round;
    }
  }
}

// Counting from inside a task running on the same pool must not deadlock:
// this is exactly what happens when the MaintenanceEngine shares its pool
// with a maintainer's counting kernel.
TEST(CountingContextTest, NestedCallInsidePoolTaskDoesNotDeadlock) {
  const Fixture fixture = MakeFixture(2, 300, 60, 26);
  const auto itemsets = RandomItemsets(50, 3, fixture.num_items, 27);
  CountingContext sequential;
  const auto expected =
      sequential.PtScan(itemsets, fixture.blocks);

  ThreadPool pool(2);
  std::vector<CountingContext> contexts(3, CountingContext(&pool));
  std::vector<std::vector<uint64_t>> results(contexts.size());
  std::atomic<size_t> next{0};
  for (size_t i = 0; i < contexts.size(); ++i) {
    pool.Submit([&, i] {
      results[i] = contexts[i].PtScan(itemsets, fixture.blocks);
      next.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(next.load(), contexts.size());
  for (const auto& counts : results) EXPECT_EQ(counts, expected);
}

// Regression for the nested-oversubscription guard: when counting runs
// inside a pool task that holds a parallelism token (the engine's
// monitor-level fan-out), nested ShardCountFor must size itself to the
// remaining token budget, and the counts must stay bit-identical to the
// sequential path. Before the token scheme, each of N busy workers fanned
// out N more shards that queued behind the other busy workers — 4-thread
// counting slower than 1-thread.
TEST(CountingContextTest, NestedEcutCapsFanOutAndMatchesSequential) {
  const Fixture fixture = MakeFixture(3, 400, 60, 41);
  const auto itemsets = RandomItemsets(120, 3, fixture.num_items, 42);
  CountingContext sequential;
  const auto expected = sequential.Ecut(itemsets, fixture.plain_store, false);

  ThreadPool pool(4);
  EXPECT_FALSE(pool.InWorker());
  EXPECT_EQ(pool.ApproxAvailableTokens(), 4u);

  // Saturate the pool: every worker runs a counting call holding one
  // token (as the engine does), so the four leases drain the budget and
  // each nested fan-out must run its shards inline.
  std::vector<CountingContext> contexts(4, CountingContext(&pool));
  std::vector<std::vector<uint64_t>> results(contexts.size());
  std::vector<unsigned char> in_worker(contexts.size(), 0);
  for (size_t i = 0; i < contexts.size(); ++i) {
    pool.Submit([&, i] {
      ThreadPool::TokenLease lease(&pool, 1);
      in_worker[i] = pool.InWorker() ? 1 : 0;
      results[i] = contexts[i].Ecut(itemsets, fixture.plain_store, false);
    });
  }
  pool.WaitIdle();
  for (size_t i = 0; i < contexts.size(); ++i) {
    EXPECT_EQ(in_worker[i], 1) << "task " << i << " not on a pool worker";
    EXPECT_EQ(results[i], expected) << "task " << i;
  }
  // Every lease returned its token, and top-level calls on the now-idle
  // pool still parallelize and agree.
  EXPECT_EQ(pool.ApproxAvailableTokens(), 4u);
  CountingContext top(&pool);
  EXPECT_EQ(top.Ecut(itemsets, fixture.plain_store, false), expected);
  pool.WaitIdle();
  EXPECT_EQ(pool.ApproxAvailableTokens(), 4u);
}

TEST(CountingContextTest, BordersMaintainerWithPoolMatchesWithout) {
  const Fixture fixture = MakeFixture(4, 400, 60, 28);
  for (CountingStrategy strategy :
       {CountingStrategy::kPtScan, CountingStrategy::kEcut,
        CountingStrategy::kEcutPlus}) {
    BordersOptions options;
    options.minsup = 0.02;
    options.num_items = fixture.num_items;
    options.strategy = strategy;

    BordersMaintainer sequential(options);
    ThreadPool pool(4);
    BordersMaintainer parallel(options);
    parallel.set_counting_pool(&pool);
    for (const auto& block : fixture.blocks) {
      sequential.AddBlock(block);
      parallel.AddBlock(block);
    }
    const auto& expected = sequential.model();
    const auto& got = parallel.model();
    ASSERT_EQ(got.entries().size(), expected.entries().size())
        << CountingStrategyName(strategy);
    for (const auto& [itemset, entry] : expected.entries()) {
      const auto it = got.entries().find(itemset);
      ASSERT_NE(it, got.entries().end()) << ToString(itemset);
      EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
      EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
    }
  }
}

// Retired-row hits are collected per shard and applied once after the
// barrier: walking a model's blocks in and out again on 1 to 8 threads
// leaves node counts and every retired count bit-identical to the
// sequential walk, and the way out restores the counts the model began
// with.
TEST(CountingContextTest, PtScanNodesRetiredCountsMatchAcrossThreadCounts) {
  const Fixture fixture = MakeFixture(6, 600, 40, 33);
  BordersOptions options;
  options.minsup = 0.02;
  options.num_items = fixture.num_items;
  options.strategy = CountingStrategy::kPtScan;
  BordersMaintainer maintainer(options);
  for (const auto& block : fixture.blocks) maintainer.AddBlock(block);
  const ItemsetTrie& model = maintainer.model().entries();
  ASSERT_GT(model.num_retired(), 50u);

  using RetiredCounts = std::map<std::pair<ItemsetTrie::NodeId, Item>,
                                 uint64_t>;
  const auto retired_counts = [](const ItemsetTrie& trie) {
    RetiredCounts counts;
    trie.ForEachRetired([&](ItemsetTrie::NodeId node, Item item,
                            uint64_t count) { counts[{node, item}] = count; });
    return counts;
  };
  struct Walks {
    std::vector<uint64_t> in_counts;
    RetiredCounts in_retired;
    std::vector<uint64_t> out_counts;
    RetiredCounts out_retired;
  };
  const auto walk = [&](CountingContext* context) {
    ItemsetTrie trie = model;
    Walks walks;
    walks.in_counts = context->PtScanNodes(&trie, fixture.blocks, +1);
    walks.in_retired = retired_counts(trie);
    walks.out_counts = context->PtScanNodes(&trie, fixture.blocks, -1);
    walks.out_retired = retired_counts(trie);
    return walks;
  };

  CountingContext sequential;
  const Walks expected = walk(&sequential);
  EXPECT_EQ(expected.out_retired, retired_counts(model));
  EXPECT_NE(expected.in_retired, expected.out_retired);
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    CountingContext context(&pool);
    const Walks got = walk(&context);
    EXPECT_EQ(got.in_counts, expected.in_counts);
    EXPECT_EQ(got.in_retired, expected.in_retired);
    EXPECT_EQ(got.out_counts, expected.out_counts);
    EXPECT_EQ(got.out_retired, expected.out_retired);
  }
}

TEST(CountingContextTest, EmptyInputsAndPoolRebinding) {
  const Fixture fixture = MakeFixture(1, 50, 20, 29);
  ThreadPool pool(2);
  CountingContext context(&pool);
  EXPECT_TRUE(context.PtScan({}, fixture.blocks).empty());
  EXPECT_TRUE(context.Ecut({}, fixture.plain_store, false).empty());
  // Rebinding to null returns the context to sequential operation.
  context.set_pool(nullptr);
  EXPECT_EQ(context.pool(), nullptr);
  const auto itemsets = RandomItemsets(10, 3, fixture.num_items, 30);
  CountingContext fresh;
  EXPECT_EQ(context.PtScan(itemsets, fixture.blocks),
            fresh.PtScan(itemsets, fixture.blocks));
}

// Copies share the pool binding but rebuild scratch lazily — the cheap
// clone GEMM relies on when it spawns window models.
TEST(CountingContextTest, CopyCarriesPoolBindingOnly) {
  const Fixture fixture = MakeFixture(2, 200, 40, 31);
  const auto itemsets = RandomItemsets(20, 3, fixture.num_items, 32);
  ThreadPool pool(2);
  CountingContext original(&pool);
  const auto expected = original.PtScan(itemsets, fixture.blocks);
  CountingContext copy(original);
  EXPECT_EQ(copy.pool(), &pool);
  EXPECT_EQ(copy.PtScan(itemsets, fixture.blocks), expected);
  CountingContext assigned;
  assigned = original;
  EXPECT_EQ(assigned.pool(), &pool);
  EXPECT_EQ(assigned.PtScan(itemsets, fixture.blocks), expected);
}

}  // namespace
}  // namespace demon
