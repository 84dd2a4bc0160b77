#include "itemsets/counting_context.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// --- the prefix-group ECUT kernel -----------------------------------------

// Records over items [0, kProbeItems): the low items are frequent, so
// candidates share prefixes; items kProbeItems-3.. never occur, so their
// lists are empty.
constexpr size_t kProbeItems = 24;

std::shared_ptr<const TransactionBlock> RandomBlock(size_t records,
                                                    Tid first_tid, Rng* rng) {
  std::vector<Transaction> transactions;
  for (size_t r = 0; r < records; ++r) {
    std::vector<Item> items;
    for (Item item = 0; item + 3 < kProbeItems; ++item) {
      const double p = item < 6 ? 0.55 : 0.2;
      if (rng->NextBernoulli(p)) items.push_back(item);
    }
    transactions.push_back(Transaction(std::move(items)));
  }
  return std::make_shared<TransactionBlock>(transactions, first_tid);
}

// Itemsets of sizes 1-5 over a few shared prefixes, with duplicates and
// items whose lists are empty.
std::vector<Itemset> PrefixSharingItemsets(size_t count, uint64_t seed) {
  Rng rng(seed);
  const auto random_set = [&rng](size_t size) {
    Itemset itemset;
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(
          rng.NextBernoulli(0.7) ? rng.NextUint64(8)
                                 : rng.NextUint64(kProbeItems));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(
            std::lower_bound(itemset.begin(), itemset.end(), item), item);
      }
    }
    return itemset;
  };
  std::vector<Itemset> prefixes;
  for (size_t size = 0; size < 5; ++size) {
    for (int i = 0; i < 4; ++i) prefixes.push_back(random_set(size));
  }
  std::vector<Itemset> itemsets;
  while (itemsets.size() < count) {
    if (!itemsets.empty() && rng.NextBernoulli(0.1)) {
      itemsets.push_back(itemsets[rng.NextUint64(itemsets.size())]);
      continue;
    }
    Itemset itemset = prefixes[rng.NextUint64(prefixes.size())];
    const Item first = itemset.empty() ? 0 : itemset.back() + 1;
    if (first >= kProbeItems) continue;
    itemset.push_back(
        static_cast<Item>(first + rng.NextUint64(kProbeItems - first)));
    itemsets.push_back(std::move(itemset));
  }
  return itemsets;
}

// Builds `block`'s lists with the item `raw_item` pinned to the raw
// encoding (the density heuristic stores every non-empty list as delta).
std::shared_ptr<const BlockTidLists> ListsWithRawItem(
    const TransactionBlock& block, Item raw_item,
    const PairMaterializationSpec* pairs) {
  auto lists = std::const_pointer_cast<BlockTidLists>(
      BlockTidLists::Build(block, kProbeItems, pairs));
  lists->SetItemListForTest(raw_item, lists->MaterializeItemList(raw_item));
  return lists;
}

// The differential oracle of the prefix-group kernel: over blocks whose
// sizes straddle the bitset's 64-bit words, raw and delta lists, pair
// lists materialized in some blocks only and a 4 KiB pager budget, ECUT
// and ECUT+ agree with PT-Scan, and counts and stats are identical at
// every thread count.
TEST(CountingContextTest, PrefixGroupEcutMatchesPtScan) {
  Rng rng(51);
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  Tid tid = 0;
  for (const size_t records : {1, 63, 64, 65, 1000, 64}) {
    blocks.push_back(RandomBlock(records, tid, &rng));
    tid += records;
  }
  PairMaterializationSpec pairs;
  for (Item a = 0; a < 8; ++a) {
    for (Item b = a + 1; b < 10; ++b) pairs.pairs.push_back({a, b});
  }
  TidListStore plain(TidListStoreOptions{});
  TidListStore some_pairs(TidListStoreOptions{});
  TidListStoreOptions budget;
  budget.memory_budget_bytes = 4096;
  TidListStore paged(budget);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const Item raw_item = static_cast<Item>(b % 3);
    plain.Append(ListsWithRawItem(*blocks[b], raw_item, nullptr));
    some_pairs.Append(
        ListsWithRawItem(*blocks[b], raw_item, b % 2 == 0 ? &pairs : nullptr));
    paged.Append(
        ListsWithRawItem(*blocks[b], raw_item, b % 3 != 1 ? &pairs : nullptr));
  }
  ASSERT_NE(paged.pager(), nullptr);

  const auto itemsets = PrefixSharingItemsets(400, 52);
  const std::vector<uint64_t> expected = CountingContext().PtScan(
      itemsets, blocks);
  struct Case {
    const char* name;
    const TidListStore* store;
    bool use_pair_lists;
  };
  for (const Case& c : {Case{"ecut", &plain, false},
                        Case{"ecut+ no pairs", &plain, true},
                        Case{"ecut over pairs", &some_pairs, false},
                        Case{"ecut+", &some_pairs, true},
                        Case{"paged ecut", &paged, false},
                        Case{"paged ecut+", &paged, true}}) {
    SCOPED_TRACE(c.name);
    CountingStats seq_stats;
    const auto counts = CountingContext().Ecut(itemsets, *c.store,
                                               c.use_pair_lists, &seq_stats);
    ASSERT_EQ(counts, expected);
    EXPECT_GT(seq_stats.lists_opened, 0u);
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      CountingContext context(&pool);
      CountingStats stats;
      EXPECT_EQ(context.Ecut(itemsets, *c.store, c.use_pair_lists, &stats),
                expected);
      ExpectStatsEq(stats, seq_stats, c.name);
    }
  }
}

// ECUT+ reads the smallest list that can extend a prefix: a materialized
// L(p, e) smaller than L(e) replaces it; a 2-itemset materialized in the
// block, and a 1-itemset, are counted from the directory with no payload
// read; and a prefix that is empty in the block reads no extension list.
TEST(CountingContextTest, EcutPlusReadsTheSmallestExtension) {
  // Item 0 on records [0, 100), item 1 on [0, 150), item 2 on [50, 200);
  // item 3 on none; pair {0, 2} (records [50, 100)) materialized.
  std::vector<Transaction> records;
  for (Item r = 0; r < 200; ++r) {
    std::vector<Item> items;
    if (r < 100) items.push_back(0);
    if (r < 150) items.push_back(1);
    if (r >= 50) items.push_back(2);
    records.push_back(Transaction(std::move(items)));
  }
  const TransactionBlock block(records, 0);
  PairMaterializationSpec spec;
  spec.pairs = {{0, 2}};
  TidListStore store(TidListStoreOptions{});
  store.Append(BlockTidLists::Build(block, 5, &spec));
  ASSERT_TRUE(store.block(0).HasPairList(0, 2));
  ASSERT_EQ(store.block(0).PairListSize(0, 2), 50u);

  const auto count = [&store](const Itemset& itemset, bool pairs,
                              CountingStats* stats) {
    return CountingContext().Ecut({itemset}, store, pairs, stats)[0];
  };
  // Prefix {0, 1}: L(0) and L(1) are read once; the extension is
  // L(0, 2) (50 slots) under ECUT+ and L(2) (150) under ECUT.
  CountingStats plus;
  EXPECT_EQ(count({0, 1, 2}, true, &plus), 50u);
  EXPECT_EQ(plus.lists_opened, 3u);
  EXPECT_EQ(plus.slots_fetched, 100u + 150u + 50u);
  CountingStats plain;
  EXPECT_EQ(count({0, 1, 2}, false, &plain), 50u);
  EXPECT_EQ(plain.lists_opened, 3u);
  EXPECT_EQ(plain.slots_fetched, 100u + 150u + 150u);

  // The materialized 2-itemset and a 1-itemset read nothing.
  CountingStats directory;
  EXPECT_EQ(count({0, 2}, true, &directory), 50u);
  EXPECT_EQ(count({2}, true, &directory), 150u);
  EXPECT_EQ(directory.lists_opened, 0u);
  EXPECT_EQ(directory.slots_fetched, 0u);

  // {0, 2} under ECUT reads L(0) then L(2).
  CountingStats pair_plain;
  EXPECT_EQ(count({0, 2}, false, &pair_plain), 50u);
  EXPECT_EQ(pair_plain.lists_opened, 2u);
  EXPECT_EQ(pair_plain.slots_fetched, 100u + 150u);

  // Prefix {3} is empty: its list is opened, no extension is read.
  CountingStats empty_prefix;
  EXPECT_EQ(count({3, 4}, true, &empty_prefix), 0u);
  EXPECT_EQ(empty_prefix.lists_opened, 1u);
  EXPECT_EQ(empty_prefix.slots_fetched, 0u);
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
