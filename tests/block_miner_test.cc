#include "itemsets/block_miner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

using block_miner_internal::AndCountHardware;
using block_miner_internal::AndCountPortable;
using block_miner_internal::HasHardwarePopcount;

// The miner must leave exactly Apriori's model: the same entries with the
// same counts and flags, the same totals, and — since it inserts in
// Apriori's order — every itemset on the same trie node.
void ExpectMinedLikeApriori(const TransactionBlock& block, double minsup,
                            size_t num_items, ItemsetModel* model) {
  MineBlockInto(block, model);
  const ItemsetModel expected = AprioriOnBlock(block, minsup, num_items);
  EXPECT_EQ(model->num_transactions(), expected.num_transactions());
  EXPECT_EQ(model->NumFrequent(), expected.NumFrequent());
  ASSERT_EQ(model->entries().size(), expected.entries().size());
  const ItemsetTrie& actual = model->entries();
  expected.entries().ForEachTracked(
      [&](const Itemset& itemset, ItemsetTrie::NodeId node) {
        const ItemsetTrie::NodeId mined = actual.Find(itemset);
        ASSERT_NE(mined, ItemsetTrie::kNoNode) << ToString(itemset);
        EXPECT_EQ(mined, node) << ToString(itemset);
        EXPECT_EQ(actual.entry(mined).count, expected.entries().entry(node).count)
            << ToString(itemset);
        EXPECT_EQ(actual.entry(mined).frequent,
                  expected.entries().entry(node).frequent)
            << ToString(itemset);
      });
  audit::AuditResult audit;
  model->AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

void ExpectMinedLikeApriori(const TransactionBlock& block, double minsup,
                            size_t num_items) {
  ItemsetModel model(minsup, num_items);
  ExpectMinedLikeApriori(block, minsup, num_items, &model);
}

TransactionBlock QuestBlock(size_t records, size_t num_items, uint64_t seed) {
  QuestParams params;
  params.num_transactions = records;
  params.num_items = num_items;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.avg_pattern_len = 3;
  params.seed = seed;
  return QuestGenerator(params).NextBlock(records, 0);
}

// Records of up to `max_len` uniform items of [0, num_items).
TransactionBlock UniformBlock(size_t records, size_t num_items,
                              size_t max_len, Rng* rng) {
  std::vector<Transaction> transactions;
  for (size_t r = 0; r < records; ++r) {
    std::vector<Item> items;
    const size_t len = rng->NextUint64(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      items.push_back(static_cast<Item>(rng->NextUint64(num_items)));
    }
    transactions.emplace_back(std::move(items));
  }
  return TransactionBlock(transactions, 0);
}

TEST(BlockMinerTest, SeededQuestBlocksMatchApriori) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const double minsup : {0.02, 0.05, 0.1}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " minsup=" + std::to_string(minsup));
      ExpectMinedLikeApriori(QuestBlock(300 + 97 * seed, 60, seed), minsup,
                             60);
    }
  }
}

TEST(BlockMinerTest, SeededUniformBlocksMatchApriori) {
  Rng rng(11);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    const size_t num_items = 8 + rng.NextUint64(40);
    const TransactionBlock block =
        UniformBlock(1 + rng.NextUint64(400), num_items, 10, &rng);
    ExpectMinedLikeApriori(block, 0.03 + 0.1 * rng.NextDouble(), num_items);
  }
}

TEST(BlockMinerTest, EmptyBlockAndEmptyRecords) {
  ExpectMinedLikeApriori(TransactionBlock(), 0.1, 12);
  const TransactionBlock empty_records(std::vector<Transaction>(70), 0);
  ExpectMinedLikeApriori(empty_records, 0.1, 12);
  ItemsetModel model(0.1, 12);
  MineBlockInto(empty_records, &model);
  EXPECT_EQ(model.entries().size(), 12u);
  EXPECT_EQ(model.NumFrequent(), 0u);
}

// Record counts on and around the 64-record word boundaries of the
// bitmaps, with the largest item of the universe in most records.
TEST(BlockMinerTest, WordBoundaryBlocksMatchApriori) {
  constexpr size_t kItems = 30;
  for (const size_t records : {1, 63, 64, 65, 127, 128, 129, 1000}) {
    SCOPED_TRACE(records);
    Rng rng(records);
    std::vector<Transaction> transactions;
    for (size_t r = 0; r < records; ++r) {
      std::vector<Item> items = {kItems - 1};
      if (r % 7 == 3) items.clear();
      for (Item item = 0; item + 1 < kItems; ++item) {
        if (rng.NextBernoulli(item < 6 ? 0.6 : 0.1)) items.push_back(item);
      }
      transactions.emplace_back(std::move(items));
    }
    const TransactionBlock block(transactions, 0);
    ExpectMinedLikeApriori(block, 0.08, kItems);
    ItemsetModel model(0.08, kItems);
    MineBlockInto(block, &model);
    EXPECT_TRUE(model.IsFrequent({kItems - 1}));
  }
}

// A minimum count of 1 makes every itemset that occurs frequent, so the
// levels run as deep as the longest record.
TEST(BlockMinerTest, MinCountOneOnShortRecords) {
  Rng rng(5);
  const TransactionBlock block = UniformBlock(40, 12, 5, &rng);
  ItemsetModel model(0.001, 12);
  ExpectMinedLikeApriori(block, 0.001, 12, &model);
  EXPECT_EQ(model.MinCount(), 1u);
  EXPECT_GT(model.NumFrequent(), 12u);
}

// A model that held a deep model and retired rows is emptied by the
// miner and comes out exactly as a fresh one.
TEST(BlockMinerTest, RecycledModelWithRetiredRowsMatchesApriori) {
  const TransactionBlock first = QuestBlock(600, 50, 21);
  ItemsetModel model = AprioriOnBlock(first, 0.02, 50);
  ItemsetTrie& trie = *model.mutable_entries();
  ItemsetTrie::NodeId holder = ItemsetTrie::kNoNode;
  trie.ForEachFrequent([&](const Itemset&, ItemsetTrie::NodeId node) {
    if (holder == ItemsetTrie::kNoNode) holder = node;
  });
  ASSERT_NE(holder, ItemsetTrie::kNoNode);
  Itemset owner;
  trie.ItemsetOf(holder, &owner);
  std::vector<Item> extensions;
  std::vector<uint64_t> counts;
  for (Item x = 0; x < 50; ++x) {
    if (std::find(owner.begin(), owner.end(), x) != owner.end()) continue;
    if (trie.Find(Union(owner, {x})) != ItemsetTrie::kNoNode) continue;
    extensions.push_back(x);
    counts.push_back(1);
  }
  trie.Retire(holder, extensions.data(), counts.data(), extensions.size());
  ASSERT_GT(trie.num_retired(), 0u);

  for (uint64_t seed = 22; seed < 25; ++seed) {
    SCOPED_TRACE(seed);
    ExpectMinedLikeApriori(QuestBlock(400, 50, seed), 0.02, 50, &model);
    EXPECT_EQ(model.entries().num_retired(), 0u);
  }
}

TEST(BlockMinerTest, ItemOutsideTheUniverseFails) {
  const TransactionBlock block({Transaction({1, 12})}, 0);
  ItemsetModel model(0.5, 12);
  EXPECT_DEATH(MineBlockInto(block, &model), "item outside universe");
}

// Both kernels against a bit-by-bit reference on `words` words.
void ExpectKernelsAgree(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  const size_t words = a.size();
  uint64_t expected = 0;
  std::vector<uint64_t> expected_and(words);
  for (size_t w = 0; w < words; ++w) {
    expected_and[w] = a[w] & b[w];
    for (int bit = 0; bit < 64; ++bit) expected += (expected_and[w] >> bit) & 1;
  }
  std::vector<uint64_t> out(words, 0x5a5a5a5a5a5a5a5aULL);
  EXPECT_EQ(AndCountPortable(a.data(), b.data(), out.data(), words), expected);
  EXPECT_EQ(out, expected_and);
  if (!HasHardwarePopcount()) return;
  out.assign(words, 0xa5a5a5a5a5a5a5a5ULL);
  EXPECT_EQ(AndCountHardware(a.data(), b.data(), out.data(), words), expected);
  EXPECT_EQ(out, expected_and);
}

TEST(BlockMinerTest, PopcountKernelsAgree) {
  if (!HasHardwarePopcount()) {
    GTEST_LOG_(INFO) << "no POPCNT on this CPU: checking the portable kernel "
                        "only";
  }
  Rng rng(3);
  for (const size_t words : {0, 1, 2, 7, 63, 64, 65}) {
    SCOPED_TRACE(words);
    std::vector<uint64_t> a(words);
    std::vector<uint64_t> b(words);
    for (size_t w = 0; w < words; ++w) {
      a[w] = rng.Next();
      b[w] = rng.Next();
    }
    ExpectKernelsAgree(a, b);
    ExpectKernelsAgree(std::vector<uint64_t>(words, 0), b);
    const std::vector<uint64_t> ones(words, ~uint64_t{0});
    ExpectKernelsAgree(ones, ones);
    ExpectKernelsAgree(ones, b);
    if (words > 0) {
      // A block of 64 * (words - 1) + 13 records: the tail word holds
      // 13 records, the bits above them are clear.
      std::vector<uint64_t> tail = ones;
      tail.back() = (uint64_t{1} << 13) - 1;
      ExpectKernelsAgree(tail, ones);
      ExpectKernelsAgree(tail, a);
    }
  }
}

}  // namespace
}  // namespace demon
