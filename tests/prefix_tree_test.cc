#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "itemsets/itemset_trie.h"

namespace demon {

// Reads the rank bitmaps the trie keeps for wide nodes and dense retired
// rows, and builds fresh ones over the same items.
struct ItemsetTriePeer {
  struct Bitmap {
    std::vector<uint64_t> bits;
    std::vector<uint32_t> ranks;
    bool operator==(const Bitmap& other) const {
      return bits == other.bits && ranks == other.ranks;
    }
  };

  static Bitmap ChildBitmap(const ItemsetTrie& trie, ItemsetTrie::NodeId node) {
    const ItemsetTrie::Node& n = trie.nodes_[node];
    if (n.probe == 0) return {};
    const ItemsetTrie::RankBitmap& probe = trie.probes_[n.probe - 1];
    return {probe.bits, probe.ranks};
  }
  static Bitmap FreshChildBitmap(const ItemsetTrie& trie,
                                 ItemsetTrie::NodeId node) {
    const ItemsetTrie::Node& n = trie.nodes_[node];
    return Fresh(trie.child_items_.data() + n.child_begin, n.child_count);
  }
  static Bitmap RowBitmap(const ItemsetTrie& trie, ItemsetTrie::NodeId node) {
    const ItemsetTrie::RankBitmap& index = trie.rows_.at(node).index;
    return {index.bits, index.ranks};
  }
  static Bitmap FreshRowBitmap(const ItemsetTrie& trie,
                               ItemsetTrie::NodeId node) {
    const std::vector<Item>& items = trie.rows_.at(node).items;
    return Fresh(items.data(), items.size());
  }

 private:
  static Bitmap Fresh(const Item* items, size_t n) {
    ItemsetTrie::RankBitmap fresh;
    fresh.Build(items, n);
    return {fresh.bits, fresh.ranks};
  }
};

namespace {

using NodeId = ItemsetTrie::NodeId;

Itemset RandomItemset(Rng* rng, size_t max_size, size_t num_items) {
  Itemset itemset;
  const size_t size = 1 + rng->NextUint64(max_size);
  while (itemset.size() < size) {
    const Item item = static_cast<Item>(rng->NextUint64(num_items));
    const auto at = std::lower_bound(itemset.begin(), itemset.end(), item);
    if (at == itemset.end() || *at != item) itemset.insert(at, item);
  }
  return itemset;
}

uint64_t BruteForceCount(const Itemset& itemset, const TransactionBlock& block) {
  uint64_t count = 0;
  for (const Transaction& t : block.transactions()) {
    count += t.ContainsAll(itemset.begin(), itemset.end()) ? 1 : 0;
  }
  return count;
}

TEST(PrefixTreeTest, SingleItemsetCounting) {
  ItemsetTrie trie;
  const NodeId node = trie.Insert({1, 3});
  trie.CountTransaction(Transaction({1, 2, 3}));
  trie.CountTransaction(Transaction({1, 2}));
  trie.CountTransaction(Transaction({3}));
  trie.CountTransaction(Transaction({1, 3}));
  EXPECT_EQ(trie.entry(node).count, 2u);
}

TEST(PrefixTreeTest, ReinsertReturnsSameId) {
  ItemsetTrie trie;
  const NodeId a = trie.Insert({5, 9});
  const NodeId b = trie.Insert({5, 9});
  EXPECT_EQ(a, b);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTreeTest, MixedSizesAndSharedPrefixes) {
  ItemsetTrie trie;
  const NodeId n1 = trie.Insert({1});
  const NodeId n12 = trie.Insert({1, 2});
  const NodeId n123 = trie.Insert({1, 2, 3});
  const NodeId n13 = trie.Insert({1, 3});
  trie.CountTransaction(Transaction({1, 2, 3}));
  EXPECT_EQ(trie.entry(n1).count, 1u);
  EXPECT_EQ(trie.entry(n12).count, 1u);
  EXPECT_EQ(trie.entry(n123).count, 1u);
  EXPECT_EQ(trie.entry(n13).count, 1u);
  trie.CountTransaction(Transaction({1, 3, 7}));
  EXPECT_EQ(trie.entry(n1).count, 2u);
  EXPECT_EQ(trie.entry(n12).count, 1u);
  EXPECT_EQ(trie.entry(n13).count, 2u);
}

TEST(PrefixTreeTest, WeightedCounting) {
  ItemsetTrie trie;
  const NodeId node = trie.Insert({2});
  trie.CountTransaction(Transaction({2, 4}), 5);
  EXPECT_EQ(trie.entry(node).count, 5u);
}

TEST(PrefixTreeTest, ResetCounts) {
  ItemsetTrie trie;
  const NodeId node = trie.Insert({1, 2});
  trie.CountTransaction(Transaction({1, 2}));
  EXPECT_EQ(trie.entry(node).count, 1u);
  trie.ResetCounts();
  EXPECT_EQ(trie.entry(node).count, 0u);
}

TEST(PrefixTreeTest, EmptyTransactionCountsNothing) {
  ItemsetTrie trie;
  const NodeId node = trie.Insert({1});
  trie.CountTransaction(Transaction({}));
  EXPECT_EQ(trie.entry(node).count, 0u);
}

// Property check: counts from the trie match brute-force subset tests on
// random itemsets over realistic Quest data.
TEST(PrefixTreeTest, RandomizedAgainstBruteForce) {
  QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(7);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 200; ++i) {
    itemsets.push_back(RandomItemset(&rng, 4, params.num_items));
  }

  ItemsetTrie trie;
  std::vector<NodeId> nodes;
  for (const Itemset& itemset : itemsets) nodes.push_back(trie.Insert(itemset));
  for (const Transaction& t : block.transactions()) trie.CountTransaction(t);

  for (size_t s = 0; s < itemsets.size(); ++s) {
    ASSERT_EQ(trie.entry(nodes[s]).count, BruteForceCount(itemsets[s], block))
        << ToString(itemsets[s]);
  }
}

TEST(ItemsetTrieTest, EmptyTrieCountsNothing) {
  ItemsetTrie trie;
  EXPECT_TRUE(trie.empty());
  std::vector<uint64_t> counts(trie.node_capacity(), 0);
  const Transaction t({1, 2, 3});
  trie.CountTransactionInto(t.items().data(),
                            t.items().data() + t.items().size(),
                            counts.data());
  EXPECT_TRUE(std::as_const(trie).begin() == std::as_const(trie).end());
}

// The per-node count-array walk (parallel PT-Scan's shard kernel) agrees
// with the count-carrying walk on every tracked node.
TEST(ItemsetTrieTest, CountIntoMatchesEntryCounts) {
  ItemsetTrie trie;
  const std::vector<NodeId> nodes = {trie.Insert({1, 3}), trie.Insert({1}),
                                     trie.Insert({2, 3, 5}), trie.Insert({5})};
  const std::vector<Transaction> transactions = {
      Transaction({1, 2, 3}), Transaction({1, 2}),   Transaction({3}),
      Transaction({1, 3}),    Transaction({2, 3, 5}), Transaction({}),
      Transaction({5}),       Transaction({1, 2, 3, 4, 5})};
  std::vector<uint64_t> counts(trie.node_capacity(), 0);
  for (const Transaction& t : transactions) {
    trie.CountTransaction(t);
    trie.CountTransactionInto(t.items().data(),
                              t.items().data() + t.items().size(),
                              counts.data());
  }
  for (const NodeId node : nodes) {
    EXPECT_EQ(counts[node], trie.entry(node).count) << "node " << node;
  }
  EXPECT_EQ(trie.entry(nodes[0]).count, 3u);  // {1, 3}
}

// Clear() keeps capacity but leaves a trie indistinguishable from a fresh
// one — the reuse pattern of CountingContext's candidate trie.
TEST(ItemsetTrieTest, ClearResetsStateAndTracksNewItemsets) {
  ItemsetTrie trie;
  const NodeId first = trie.Insert({1, 2}, {3, true});
  trie.CountTransaction(Transaction({1, 2}));
  EXPECT_EQ(trie.entry(first).count, 4u);
  trie.Clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.NumFrequent(), 0u);
  EXPECT_EQ(trie.Find({1, 2}), ItemsetTrie::kNoNode);

  const NodeId a = trie.Insert({7});
  const NodeId b = trie.Insert({7, 9});
  ASSERT_EQ(trie.size(), 2u);
  EXPECT_EQ(trie.entry(a).count, 0u);
  trie.CountTransaction(Transaction({7, 8, 9}));
  EXPECT_EQ(trie.entry(a).count, 1u);
  EXPECT_EQ(trie.entry(b).count, 1u);
}

TEST(ItemsetTrieTest, RandomizedCountIntoMatchesBruteForce) {
  QuestParams params;
  params.num_transactions = 1500;
  params.num_items = 60;
  params.num_patterns = 30;
  params.avg_transaction_len = 10;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(13);
  ItemsetTrie trie;
  std::vector<std::pair<Itemset, NodeId>> tracked;
  for (int i = 0; i < 300; ++i) {
    Itemset itemset = RandomItemset(&rng, 5, params.num_items);
    const NodeId node = trie.Insert(itemset);
    tracked.emplace_back(std::move(itemset), node);
  }
  std::vector<uint64_t> counts(trie.node_capacity(), 0);
  for (const Transaction& t : block.transactions()) {
    trie.CountTransactionInto(t.items().data(),
                              t.items().data() + t.items().size(),
                              counts.data());
  }
  for (const auto& [itemset, node] : tracked) {
    ASSERT_EQ(counts[node], BruteForceCount(itemset, block))
        << ToString(itemset);
  }
}

TEST(ItemsetTrieTest, InteriorNodesAreUntrackedAndFreedWithTheirLastChild) {
  ItemsetTrie trie;
  trie.Insert({1, 2, 3});
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Find({1}), ItemsetTrie::kNoNode);
  EXPECT_EQ(trie.Find({1, 2}), ItemsetTrie::kNoNode);
  EXPECT_NE(trie.Find({1, 2, 3}), ItemsetTrie::kNoNode);
  EXPECT_EQ(trie.erase({1, 2}), 0u);
  EXPECT_EQ(trie.erase({1, 2, 3}), 1u);
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(std::as_const(trie).begin() == std::as_const(trie).end());
  audit::AuditResult audit;
  trie.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ItemsetTrieTest, FindWithoutLooksUpSubsets) {
  ItemsetTrie trie;
  const NodeId n13 = trie.Insert({1, 3});
  const NodeId n3 = trie.Insert({3});
  const Itemset abc = {1, 2, 3};
  EXPECT_EQ(trie.FindWithout(abc.data(), abc.size(), 1), n13);
  EXPECT_EQ(trie.FindWithout(abc.data(), abc.size(), 0),
            ItemsetTrie::kNoNode);  // {2, 3} untracked
  const Itemset pair = {2, 3};
  EXPECT_EQ(trie.FindWithout(pair.data(), pair.size(), 0), n3);
}

// Frequent-only traversal reaches frequent itemsets below untracked or
// infrequent interior nodes, and yields ItemsetLess order.
TEST(ItemsetTrieTest, ForEachFrequentFindsEveryFrequentItemset) {
  ItemsetTrie trie;
  trie.Insert({0, 1}, {30, true});  // under an untracked {0}
  trie.Insert({2}, {5, false});
  trie.Insert({2, 3}, {9, true});   // under an infrequent {2}
  trie.Insert({2, 4}, {1, false});
  trie.Insert({5}, {40, true});
  std::vector<Itemset> frequent;
  trie.ForEachFrequent(
      [&](const Itemset& itemset, NodeId) { frequent.push_back(itemset); });
  EXPECT_EQ(frequent, (std::vector<Itemset>{{0, 1}, {2, 3}, {5}}));
  EXPECT_EQ(trie.NumFrequent(), 3u);
}

// Differential test against an ordered std::map under interleaved insert,
// erase, find, at and iteration: same contents, ItemsetLess iteration
// order, exact running counts, and a clean structural audit throughout.
TEST(ItemsetTrieTest, DifferentialAgainstStdMap) {
  Rng rng(2024);
  ItemsetTrie trie;
  std::map<Itemset, ItemsetEntry, ItemsetLess> reference;
  for (int step = 0; step < 6000; ++step) {
    const Itemset itemset = RandomItemset(&rng, 4, 12);
    const uint64_t op = rng.NextUint64(10);
    if (op < 4) {
      const ItemsetEntry entry{rng.NextUint64(100), rng.NextUint64(2) == 0};
      const bool inserted = trie.emplace(itemset, entry).second;
      EXPECT_EQ(inserted, reference.emplace(itemset, entry).second);
    } else if (op < 7) {
      EXPECT_EQ(trie.erase(itemset), reference.erase(itemset));
    } else if (op < 8) {
      const NodeId node = trie.Find(itemset);
      const auto it = reference.find(itemset);
      ASSERT_EQ(node != ItemsetTrie::kNoNode, it != reference.end());
      if (node != ItemsetTrie::kNoNode) {
        const bool frequent = !trie.entry(node).frequent;
        trie.SetFrequent(node, frequent);
        it->second.frequent = frequent;
        trie.mutable_count(node) += 1;
        it->second.count += 1;
      }
    } else {
      const auto it = reference.find(itemset);
      const auto found = std::as_const(trie).find(itemset);
      ASSERT_EQ(found != std::as_const(trie).end(), it != reference.end());
      if (it != reference.end()) {
        EXPECT_EQ(found->first, itemset);
        EXPECT_EQ(std::as_const(trie).at(itemset).count, it->second.count);
      }
    }
    if (step % 500 != 0) continue;
    size_t frequent = 0;
    for (const auto& [key, entry] : reference) frequent += entry.frequent;
    ASSERT_EQ(trie.size(), reference.size());
    ASSERT_EQ(trie.NumFrequent(), frequent);
    auto want = reference.begin();
    for (const auto& [key, entry] : std::as_const(trie)) {
      ASSERT_NE(want, reference.end());
      ASSERT_EQ(key, want->first);
      ASSERT_EQ(entry.count, want->second.count);
      ASSERT_EQ(entry.frequent, want->second.frequent);
      ++want;
    }
    ASSERT_EQ(want, reference.end());
    audit::AuditResult audit;
    trie.AuditInto(&audit);
    ASSERT_TRUE(audit.ok()) << audit.ToString();
  }
}

// Mutable facade access hands out Entry references; NumFrequent() must
// stay right when a flag is flipped through one.
TEST(ItemsetTrieTest, MutableFacadeKeepsNumFrequentExact) {
  ItemsetTrie trie;
  trie.emplace({1}, {5, true});
  trie.emplace({2}, {1, false});
  EXPECT_EQ(trie.NumFrequent(), 1u);
  trie.at({2}).frequent = true;
  EXPECT_EQ(trie.NumFrequent(), 2u);
  for (auto&& [itemset, entry] : trie) entry.frequent = false;
  EXPECT_EQ(trie.NumFrequent(), 0u);
  trie[{3}].frequent = true;
  EXPECT_EQ(trie.NumFrequent(), 1u);
}

// Slots of erased nodes and their edge blocks are reused: churning the
// same itemsets in and out never grows the arena.
TEST(ItemsetTrieTest, ArenaDoesNotGrowUnderInsertEraseChurn) {
  Rng rng(99);
  ItemsetTrie trie;
  for (Item item = 0; item < 50; ++item) trie.Insert({item}, {10, true});
  std::vector<Itemset> churn;
  for (int i = 0; i < 400; ++i) churn.push_back(RandomItemset(&rng, 4, 50));
  std::sort(churn.begin(), churn.end(), ItemsetLess());
  churn.erase(std::unique(churn.begin(), churn.end()), churn.end());
  churn.erase(std::remove_if(churn.begin(), churn.end(),
                             [](const Itemset& s) { return s.size() == 1; }),
              churn.end());

  size_t arena_after_first = 0;
  size_t nodes_after_first = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (const Itemset& itemset : churn) trie.Insert(itemset);
    ASSERT_EQ(trie.size(), 50 + churn.size());
    for (const Itemset& itemset : churn) trie.Erase(trie.Find(itemset));
    ASSERT_EQ(trie.size(), 50u);
    if (cycle == 0) {
      arena_after_first = trie.ArenaBytes();
      nodes_after_first = trie.node_capacity();
    }
  }
  EXPECT_EQ(trie.ArenaBytes(), arena_after_first);
  EXPECT_EQ(trie.node_capacity(), nodes_after_first);
  audit::AuditResult audit;
  trie.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// A random sorted transaction over [0, universe) that holds each of the
// items 0..3 with probability 1/2 and `extra` other items.
Transaction RandomTransaction(Rng* rng, size_t universe, size_t extra) {
  std::vector<Item> items;
  for (Item item = 0; item < 4; ++item) {
    if (rng->NextBernoulli(0.5)) items.push_back(item);
  }
  for (size_t i = 0; i < extra; ++i) {
    items.push_back(static_cast<Item>(4 + rng->NextUint64(universe - 4)));
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return Transaction(std::move(items));
}

// Candidate tries hold pairs {a, b} whose b has no level-1 node, so a wide
// node's child bitmap must be sized from its own largest child, not from
// the level-1 index. Counts through the bitmap probe must equal brute
// force while children come and go: bitmaps built, grown past their
// universe, updated in place and released.
TEST(ItemsetTrieTest, WideNodesWithOutOfLevel1ChildrenCountExactly) {
  Rng rng(7);
  ItemsetTrie trie;
  std::set<Itemset> members;
  const auto insert = [&](const Itemset& itemset) {
    trie.Insert(itemset);
    members.insert(itemset);
  };
  const auto erase = [&](const Itemset& itemset) {
    if (members.erase(itemset) > 0) trie.Erase(trie.Find(itemset));
  };
  const auto check = [&](size_t universe) {
    audit::AuditResult audit;
    trie.AuditInto(&audit);
    ASSERT_TRUE(audit.ok()) << audit.ToString();
    std::vector<Transaction> transactions;
    for (int t = 0; t < 300; ++t) {
      transactions.push_back(RandomTransaction(&rng, universe, 12));
    }
    const TransactionBlock block(transactions, 0);
    std::vector<uint64_t> counts(trie.node_capacity(), 0);
    for (const Transaction& t : transactions) {
      trie.CountTransactionInto(t.items().data(),
                                t.items().data() + t.items().size(),
                                counts.data());
    }
    for (const Itemset& itemset : members) {
      ASSERT_EQ(counts[trie.Find(itemset)], BruteForceCount(itemset, block))
          << ToString(itemset);
    }
  };

  // Wide nodes {0}..{3} (untracked interior nodes) over children 100..399.
  for (Item a = 0; a < 4; ++a) {
    for (Item b = 100; b < 400; ++b) {
      if (rng.NextBernoulli(0.3)) insert({a, b});
    }
  }
  insert({0, 150, 160});
  insert({2, 399});
  check(400);

  // Grow past the bitmaps' universe, in ascending order.
  for (Item b = 400; b < 700; b += 3) insert({1, b});
  check(700);

  // Remove most children of {0}: the bitmap is updated, then released.
  for (Item b = 100; b < 400; ++b) {
    if (b != 150 && b % 16 != 0) erase({0, b});
  }
  check(700);
  erase({0, 150, 160});
  for (Item b = 100; b < 400; ++b) erase({0, b});
  check(700);

  // Regrow {0} from empty — a freed slot and its bitmap are reused.
  for (Item b = 500; b > 200; b -= 2) insert({0, b});
  check(700);
}

// A wide node that gains one child far past its bitmap is no longer wide:
// it must drop the bitmap rather than grow it to the far item (the audit
// bounds every bitmap by its node's child count), and keep counting
// exactly through the binary search. Regrown dense, it is wide again.
TEST(ItemsetTrieTest, FarChildOfAWideNodeReleasesItsBitmap) {
  ItemsetTrie trie;
  std::vector<Itemset> members;
  for (Item b = 100; b < 120; ++b) members.push_back({0, b});
  members.push_back({0, 1u << 20});
  for (const Itemset& itemset : members) trie.Insert(itemset);
  const auto check = [&]() {
    audit::AuditResult audit;
    trie.AuditInto(&audit);
    ASSERT_TRUE(audit.ok()) << audit.ToString();
    const std::vector<Transaction> transactions = {
        {0, 100, 105, 119, 1u << 20}, {0, 101, 1u << 20}, {0, 1u << 20},
        {1, 100, 1u << 20}, {0, 103, (1u << 20) + 1}};
    const TransactionBlock block(transactions, 0);
    std::vector<uint64_t> counts(trie.node_capacity(), 0);
    for (const Transaction& t : transactions) {
      trie.CountTransactionInto(t.items().data(),
                                t.items().data() + t.items().size(),
                                counts.data());
    }
    for (const Itemset& itemset : members) {
      ASSERT_EQ(counts[trie.Find(itemset)], BruteForceCount(itemset, block))
          << ToString(itemset);
    }
  };
  check();

  // Without the far child, one more near child makes the node wide
  // again; the far child's return releases the bitmap again.
  trie.Erase(trie.Find({0, 1u << 20}));
  members.pop_back();
  trie.Insert({0, 120});
  members.push_back({0, 120});
  check();
  trie.Insert({0, 1u << 20});
  members.push_back({0, 1u << 20});
  check();

  // Filled in to one child per 40 items up to the far one: wide again,
  // with a bitmap over the whole universe.
  for (Item b = 200; b < (1u << 20); b += 40) {
    trie.Insert({0, b});
    members.push_back({0, b});
  }
  check();
}

// Ascending inserts past a wide node's bitmap extend it in place, and
// appends to a dense retired row re-index it: either way the bitmap and
// its ranks are exactly what a fresh Build over the items gives, word by
// word, and the audit stays clean.
TEST(ItemsetTrieTest, AscendingAppendsKeepBitmapsEqualToAFreshBuild) {
  ItemsetTrie trie;
  const NodeId wide = trie.Insert({0}, {10, true});
  const NodeId holder = trie.Insert({1}, {10, true});
  size_t children = 0;
  size_t row_entries = 0;
  for (Item x = 2; x < 4000; x += 1 + x % 5) {
    // Alternate the two insert paths under the same parent.
    const NodeId child = x % 2 == 0 ? trie.InsertChild(wide, x, {1, false})
                                    : trie.Insert({0, x}, {1, false});
    ASSERT_EQ(trie.parent(child), wide);
    ++children;
    const uint64_t count = x;
    trie.Retire(holder, &x, &count, 1);
    ++row_entries;
    SCOPED_TRACE("item " + std::to_string(x));
    if (children >= 16) {
      const auto bitmap = ItemsetTriePeer::ChildBitmap(trie, wide);
      ASSERT_FALSE(bitmap.bits.empty());
      ASSERT_TRUE(bitmap == ItemsetTriePeer::FreshChildBitmap(trie, wide));
      ASSERT_EQ(bitmap.bits.size(), x / 64 + 1);
    }
    if (row_entries >= 16) {
      const auto bitmap = ItemsetTriePeer::RowBitmap(trie, holder);
      ASSERT_FALSE(bitmap.bits.empty());
      ASSERT_TRUE(bitmap == ItemsetTriePeer::FreshRowBitmap(trie, holder));
    }
    audit::AuditResult audit;
    trie.AuditInto(&audit);
    ASSERT_TRUE(audit.ok()) << audit.ToString();
  }
  EXPECT_GT(children, 1000u);
}

// One detection walk over `transactions`: node counts into a scratch
// array, retired hits into a fresh delta array, which is then applied to
// the rows with `sign`.
void WalkRetired(ItemsetTrie* trie,
                 const std::vector<Transaction>& transactions, int sign) {
  std::vector<uint64_t> counts(trie->node_capacity(), 0);
  std::vector<uint32_t> deltas(trie->NumberRetired(), 0);
  for (const Transaction& t : transactions) {
    trie->CountTransactionInto(t.items().data(),
                               t.items().data() + t.items().size(),
                               counts.data(), deltas.data());
  }
  trie->ApplyRetired(deltas.data(), sign);
}

// A retired row counts, through the walk, every transaction holding its
// node's itemset and the entry's item; entries leave with TakeRetired or
// with their node.
TEST(ItemsetTrieTest, RetiredRowsCountContainedExtensions) {
  ItemsetTrie trie;
  const NodeId a = trie.Insert({1}, {0, true});
  const NodeId ab = trie.Insert({1, 4}, {0, true});
  trie.Insert({4}, {0, true});
  const Item a_items[] = {0, 2, 7};
  const uint64_t a_counts[] = {5, 6, 7};
  trie.Retire(a, a_items, a_counts, 3);
  const Item ab_items[] = {3};
  const uint64_t ab_counts[] = {1};
  trie.Retire(ab, ab_items, ab_counts, 1);
  const Item more_items[] = {5};
  const uint64_t more_counts[] = {8};
  trie.Retire(a, more_items, more_counts, 1);  // merges into the row
  EXPECT_EQ(trie.num_retired(), 5u);

  const std::vector<Transaction> transactions = {
      {0, 1, 2}, {1, 3, 4, 7}, {0, 2, 3, 4}, {1, 4, 5}};
  WalkRetired(&trie, transactions, +1);
  std::map<Itemset, uint64_t> retired;
  trie.ForEachRetired([&](NodeId node, Item item, uint64_t count) {
    Itemset itemset;
    trie.ItemsetOf(node, &itemset);
    itemset.insert(std::upper_bound(itemset.begin(), itemset.end(), item),
                   item);
    retired[itemset] = count;
  });
  EXPECT_EQ(retired, (std::map<Itemset, uint64_t>{{{0, 1}, 6},
                                                  {{1, 2}, 7},
                                                  {{1, 7}, 8},
                                                  {{1, 5}, 9},
                                                  {{1, 3, 4}, 2}}));
  audit::AuditResult audit;
  trie.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Walking the same transactions out again (a block deletion) restores
  // the retired counts.
  WalkRetired(&trie, transactions, -1);
  uint64_t total = 0;
  trie.ForEachRetired([&](NodeId, Item, uint64_t c) { total += c; });
  EXPECT_EQ(total, 5u + 6 + 7 + 8 + 1);

  uint64_t count = 0;
  EXPECT_FALSE(trie.TakeRetired(a, 4, &count));
  EXPECT_FALSE(trie.TakeRetired(ItemsetTrie::kNoNode, 2, &count));
  EXPECT_TRUE(trie.TakeRetired(a, 2, &count));
  EXPECT_EQ(count, 6u);
  EXPECT_FALSE(trie.TakeRetired(a, 2, &count));
  EXPECT_EQ(trie.num_retired(), 4u);

  trie.Erase(ab);  // its row goes with it
  EXPECT_EQ(trie.num_retired(), 3u);
  EXPECT_FALSE(trie.TakeRetired(trie.Find({1, 4}), 3, &count));
  trie.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// Retired counts are 32-bit: a support that no longer fits is kept as
// unknown, survives folds either way, and is dropped instead of revived.
TEST(ItemsetTrieTest, RetiredCountsPastThirtyTwoBitsBecomeUnknown) {
  ItemsetTrie trie;
  const NodeId a = trie.Insert({1}, {0, true});
  const Item items[] = {2, 3, 4};
  const uint64_t counts[] = {uint64_t{1} << 32,
                             ItemsetTrie::kRetiredCountUnknown - 1, 9};
  trie.Retire(a, items, counts, 3);
  const std::vector<Transaction> transactions = {{1, 2, 3, 4}};
  WalkRetired(&trie, transactions, +1);  // {1,3} reaches the limit
  WalkRetired(&trie, transactions, -1);  // unknown stays unknown

  uint64_t count = 0;
  EXPECT_FALSE(trie.TakeRetired(a, 2, &count));
  EXPECT_FALSE(trie.TakeRetired(a, 3, &count));
  EXPECT_TRUE(trie.TakeRetired(a, 4, &count));
  EXPECT_EQ(count, 9u);
  EXPECT_EQ(trie.num_retired(), 0u);
}

// Parallel counting gives each shard its own delta array and applies the
// sum once: an entry that no single shard's delta takes to the limit
// still becomes unknown when the summed deltas do.
TEST(ItemsetTrieTest, SummedShardDeltasCrossingTheLimitBecomeUnknown) {
  ItemsetTrie trie;
  const NodeId a = trie.Insert({1}, {0, true});
  const Item items[] = {2, 3};
  const uint64_t counts[] = {ItemsetTrie::kRetiredCountUnknown - 3, 7};
  trie.Retire(a, items, counts, 2);
  const std::vector<Transaction> shard_transactions[] = {
      {{1, 2, 3}, {1, 2}}, {{1, 2}, {1, 2, 3}}};
  std::vector<uint32_t> summed(trie.NumberRetired(), 0);
  for (const auto& transactions : shard_transactions) {
    std::vector<uint64_t> node_counts(trie.node_capacity(), 0);
    std::vector<uint32_t> deltas(trie.NumberRetired(), 0);
    for (const Transaction& t : transactions) {
      trie.CountTransactionInto(t.items().data(),
                                t.items().data() + t.items().size(),
                                node_counts.data(), deltas.data());
    }
    EXPECT_EQ(node_counts[a], 2u);
    // Alone, each shard's 2 would leave {1,2} one below the limit.
    for (size_t i = 0; i < deltas.size(); ++i) summed[i] += deltas[i];
  }
  trie.ApplyRetired(summed.data(), +1);

  uint64_t count = 0;
  EXPECT_FALSE(trie.TakeRetired(a, 2, &count));  // unknown
  EXPECT_TRUE(trie.TakeRetired(a, 3, &count));
  EXPECT_EQ(count, 7u + 2);
}

// A long row, dense enough for a rank bitmap, counts like brute force
// while entries are taken until it is gone.
TEST(ItemsetTrieTest, LongRetiredRowsCountLikeBruteForce) {
  Rng rng(21);
  ItemsetTrie trie;
  const NodeId owner = trie.Insert({1, 3}, {0, true});
  std::map<Item, uint64_t> expected;  // extension -> count
  std::vector<Item> items;
  std::vector<uint64_t> counts;
  for (Item x = 4; x < 300; ++x) {
    if (!rng.NextBernoulli(0.4)) continue;
    items.push_back(x);
    counts.push_back(x);
    expected[x] = x;
  }
  trie.Retire(owner, items.data(), counts.data(), items.size());

  const auto fold_and_check = [&]() {
    std::vector<Transaction> transactions;
    for (int t = 0; t < 200; ++t) {
      std::vector<Item> txn = {1, 3};
      if (rng.NextBernoulli(0.2)) txn = {1};
      for (int i = 0; i < 15; ++i) {
        txn.push_back(static_cast<Item>(rng.NextUint64(320)));
      }
      std::sort(txn.begin(), txn.end());
      txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
      transactions.push_back(Transaction(std::move(txn)));
    }
    WalkRetired(&trie, transactions, +1);
    for (const Transaction& t : transactions) {
      if (!t.Contains(1) || !t.Contains(3)) continue;
      for (auto& [x, count] : expected) count += t.Contains(x) ? 1 : 0;
    }
    std::map<Item, uint64_t> actual;
    trie.ForEachRetired([&](NodeId node, Item item, uint64_t count) {
      EXPECT_EQ(node, owner);
      actual[item] = count;
    });
    EXPECT_EQ(actual, expected);
    audit::AuditResult audit;
    trie.AuditInto(&audit);
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  };

  fold_and_check();
  // Take entries until the row is gone.
  while (!expected.empty()) {
    const auto victim = std::next(expected.begin(),
                                  rng.NextUint64(expected.size()));
    uint64_t count = 0;
    ASSERT_TRUE(trie.TakeRetired(owner, victim->first, &count));
    EXPECT_EQ(count, victim->second);
    expected.erase(victim);
    if (expected.size() % 25 == 0) fold_and_check();
  }
  EXPECT_EQ(trie.num_retired(), 0u);
}

// Random churn through every mutator that changes a node's children or
// row — Insert, Erase, Retire, TakeRetired, DropRetired — with child
// blocks relocating as they grow and nodes and rows crossing the wide
// thresholds. After every step the audit (which checks each edge's leaf
// flag and each bitmap) is clean, and one walk's node counts and applied
// retired deltas equal a brute-force count.
TEST(ItemsetTrieTest, LeafEdgeFlagsFollowChurn) {
  constexpr size_t kUniverse = 40;
  Rng rng(1806);
  std::vector<Transaction> transactions;
  for (int t = 0; t < 24; ++t) {
    std::vector<Item> items;
    for (Item item = 0; item < kUniverse; ++item) {
      if (rng.NextBernoulli(0.3)) items.push_back(item);
    }
    transactions.push_back(Transaction(std::move(items)));
  }
  const TransactionBlock block(transactions, 0);

  ItemsetTrie trie;
  std::set<Itemset> members;
  // Row entries by owner itemset: extension item -> count.
  std::map<Itemset, std::map<Item, uint64_t>> rows;
  const auto random_member = [&]() {
    return *std::next(members.begin(), rng.NextUint64(members.size()));
  };
  const size_t arena_before = trie.ArenaBytes();
  for (int step = 0; step < 1500; ++step) {
    const uint64_t op = rng.NextUint64(20);
    if (op < 8 || members.empty()) {
      const Itemset itemset = RandomItemset(&rng, 4, kUniverse);
      trie.Insert(itemset);
      members.insert(itemset);
    } else if (op < 12) {
      const Itemset victim = random_member();
      trie.Erase(trie.Find(victim));
      members.erase(victim);
      rows.erase(victim);
    } else if (op < 15) {
      const Itemset owner = random_member();
      std::map<Item, uint64_t>& row = rows[owner];
      std::vector<Item> items;
      std::vector<uint64_t> counts;
      const size_t wanted = 1 + rng.NextUint64(20);
      for (Item x = 0; x < kUniverse && items.size() < wanted; ++x) {
        if (std::binary_search(owner.begin(), owner.end(), x) ||
            row.count(x) > 0 || !rng.NextBernoulli(0.5)) {
          continue;
        }
        items.push_back(x);
        counts.push_back(100 + rng.NextUint64(1000));
        row[x] = counts.back();
      }
      trie.Retire(trie.Find(owner), items.data(), counts.data(),
                  items.size());
      if (row.empty()) rows.erase(owner);
    } else if (op < 18) {
      const Itemset owner = random_member();
      const Item item = static_cast<Item>(rng.NextUint64(kUniverse));
      uint64_t count = 0;
      const auto row = rows.find(owner);
      const bool held = row != rows.end() && row->second.count(item) > 0;
      ASSERT_EQ(trie.TakeRetired(trie.Find(owner), item, &count), held);
      if (held) {
        EXPECT_EQ(count, row->second[item]);
        row->second.erase(item);
        if (row->second.empty()) rows.erase(row);
      }
    } else {
      const Itemset owner = random_member();
      trie.DropRetired(trie.Find(owner));
      rows.erase(owner);
    }

    audit::AuditResult audit;
    trie.AuditInto(&audit);
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();

    // Alternate the walk's sign so the counts stay near where they began.
    const int sign = step % 2 == 0 ? +1 : -1;
    std::vector<uint64_t> counts(trie.node_capacity(), 0);
    std::vector<uint32_t> deltas(trie.NumberRetired(), 0);
    for (const Transaction& t : transactions) {
      trie.CountTransactionInto(t.items().data(),
                                t.items().data() + t.items().size(),
                                counts.data(), deltas.data());
    }
    trie.ApplyRetired(deltas.data(), sign);
    for (const Itemset& itemset : members) {
      ASSERT_EQ(counts[trie.Find(itemset)], BruteForceCount(itemset, block))
          << "step " << step << ": " << ToString(itemset);
    }
    for (auto& [owner, row] : rows) {
      for (auto& [x, count] : row) {
        Itemset extension = owner;
        extension.insert(
            std::upper_bound(extension.begin(), extension.end(), x), x);
        const uint64_t support = BruteForceCount(extension, block);
        count = sign > 0 ? count + support : count - support;
      }
    }
    std::map<Itemset, std::map<Item, uint64_t>> actual;
    trie.ForEachRetired([&](NodeId node, Item item, uint64_t count) {
      Itemset owner;
      trie.ItemsetOf(node, &owner);
      actual[owner][item] = count;
    });
    ASSERT_EQ(actual, rows) << "step " << step;
  }
  EXPECT_GT(members.size(), 100u);
  EXPECT_GT(trie.ArenaBytes(), arena_before);  // blocks relocated
}

}  // namespace
}  // namespace demon
