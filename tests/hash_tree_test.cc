#include "itemsets/hash_tree.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "itemsets/itemset_trie.h"

namespace demon {
namespace {

TEST(HashTreeTest, BasicCounting) {
  HashTree tree;
  const size_t id13 = tree.Insert({1, 3});
  const size_t id2 = tree.Insert({2});
  tree.CountTransaction(Transaction({1, 2, 3}));
  tree.CountTransaction(Transaction({1, 3}));
  tree.CountTransaction(Transaction({2, 4}));
  EXPECT_EQ(tree.CountOf(id13), 2u);
  EXPECT_EQ(tree.CountOf(id2), 2u);
}

TEST(HashTreeTest, ReinsertReturnsSameId) {
  HashTree tree;
  EXPECT_EQ(tree.Insert({7, 9}), tree.Insert({7, 9}));
  EXPECT_EQ(tree.NumItemsets(), 1u);
}

TEST(HashTreeTest, NoDoubleCountingAcrossHashPaths) {
  // Small fanout forces hash collisions; a transaction with many items
  // reaches the same leaf repeatedly.
  HashTree tree(/*fanout=*/2, /*leaf_capacity=*/1);
  const size_t id = tree.Insert({2, 4});
  tree.Insert({1, 3});
  tree.Insert({5, 6});
  tree.Insert({2, 6});
  tree.CountTransaction(Transaction({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(tree.CountOf(id), 1u);
}

TEST(HashTreeTest, SplitsUnderLoadAndStaysCorrect) {
  HashTree tree(/*fanout=*/4, /*leaf_capacity=*/2);
  std::vector<size_t> ids;
  for (Item a = 0; a < 12; ++a) {
    for (Item b = a + 1; b < 12; ++b) ids.push_back(tree.Insert({a, b}));
  }
  tree.CountTransaction(Transaction({0, 1, 2, 3}));
  size_t index = 0;
  for (Item a = 0; a < 12; ++a) {
    for (Item b = a + 1; b < 12; ++b) {
      const uint64_t expected = (a < 4 && b < 4) ? 1 : 0;
      EXPECT_EQ(tree.CountOf(ids[index]), expected)
          << "{" << a << "," << b << "}";
      ++index;
    }
  }
}

TEST(HashTreeTest, MixedSizesIncludingResidents) {
  // Itemsets shorter than the tree depth they reach become residents of
  // interior nodes; counting must still be exact.
  HashTree tree(/*fanout=*/2, /*leaf_capacity=*/1);
  const size_t id1 = tree.Insert({4});
  const size_t id2 = tree.Insert({4, 6});
  const size_t id3 = tree.Insert({4, 6, 8});
  const size_t id4 = tree.Insert({4, 8});
  tree.CountTransaction(Transaction({4, 6}));
  EXPECT_EQ(tree.CountOf(id1), 1u);
  EXPECT_EQ(tree.CountOf(id2), 1u);
  EXPECT_EQ(tree.CountOf(id3), 0u);
  EXPECT_EQ(tree.CountOf(id4), 0u);
}

TEST(HashTreeTest, ResetCounts) {
  HashTree tree;
  const size_t id = tree.Insert({1});
  tree.CountTransaction(Transaction({1}));
  tree.ResetCounts();
  EXPECT_EQ(tree.CountOf(id), 0u);
  tree.CountTransaction(Transaction({1}));
  EXPECT_EQ(tree.CountOf(id), 1u);
}

struct HashTreeParam {
  size_t fanout;
  size_t leaf_capacity;
};

class HashTreeVsPrefixTreeTest
    : public ::testing::TestWithParam<HashTreeParam> {};

TEST_P(HashTreeVsPrefixTreeTest, AgreesWithPrefixTreeOnQuestData) {
  QuestParams params;
  params.num_transactions = 1500;
  params.num_items = 100;
  params.num_patterns = 50;
  params.avg_transaction_len = 8;
  params.seed = 61;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(62);
  ItemsetTrie prefix_tree;
  HashTree hash_tree(GetParam().fanout, GetParam().leaf_capacity);
  std::vector<std::pair<ItemsetTrie::NodeId, size_t>> ids;
  for (int s = 0; s < 300; ++s) {
    Itemset itemset;
    const size_t size = 1 + rng.NextUint64(4);
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(rng.NextUint64(100));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(std::lower_bound(itemset.begin(), itemset.end(), item),
                       item);
      }
    }
    ids.push_back({prefix_tree.Insert(itemset), hash_tree.Insert(itemset)});
  }
  for (const Transaction& t : block.transactions()) {
    prefix_tree.CountTransaction(t);
    hash_tree.CountTransaction(t);
  }
  for (const auto& [pid, hid] : ids) {
    ASSERT_EQ(hash_tree.CountOf(hid), prefix_tree.entry(pid).count);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HashTreeVsPrefixTreeTest,
                         ::testing::Values(HashTreeParam{2, 1},
                                           HashTreeParam{4, 4},
                                           HashTreeParam{8, 16},
                                           HashTreeParam{16, 64}),
                         [](const auto& info) {
                           std::string name = "F";
                           name += std::to_string(info.param.fanout);
                           name += "L";
                           name += std::to_string(info.param.leaf_capacity);
                           return name;
                         });

}  // namespace
}  // namespace demon
