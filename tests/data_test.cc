#include <gtest/gtest.h>

#include <vector>

#include "data/block.h"
#include "data/point.h"
#include "data/snapshot.h"
#include "data/transaction.h"

namespace demon {
namespace {

TEST(TransactionTest, NormalizesSortsAndDedupes) {
  Transaction t({5, 1, 3, 5, 1});
  EXPECT_EQ(t.items(), (std::vector<Item>{1, 3, 5}));
  EXPECT_EQ(t.size(), 3u);
}

TEST(TransactionTest, Contains) {
  Transaction t({2, 4, 8});
  EXPECT_TRUE(t.Contains(4));
  EXPECT_FALSE(t.Contains(5));
}

TEST(TransactionTest, ContainsAll) {
  Transaction t({1, 3, 5, 7, 9});
  const std::vector<Item> sub = {3, 7};
  const std::vector<Item> not_sub = {3, 6};
  EXPECT_TRUE(t.ContainsAll(sub.begin(), sub.end()));
  EXPECT_FALSE(t.ContainsAll(not_sub.begin(), not_sub.end()));
  const std::vector<Item> empty;
  EXPECT_TRUE(t.ContainsAll(empty.begin(), empty.end()));
}

TEST(TransactionBlockTest, TidsAreImplicit) {
  TransactionBlock block({Transaction({1}), Transaction({2})}, 100);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.TidAt(0), 100u);
  EXPECT_EQ(block.TidAt(1), 101u);
}

TEST(TransactionBlockTest, TotalItemOccurrences) {
  TransactionBlock block({Transaction({1, 2}), Transaction({3})}, 0);
  EXPECT_EQ(block.TotalItemOccurrences(), 3u);
  // One slot per item occurrence, and nothing else stored (§3.1.1).
  EXPECT_EQ(block.TotalItemOccurrences(), block.items().size());
  EXPECT_EQ(block.ends(), (std::vector<uint32_t>{2, 3}));
  size_t viewed = 0;
  for (const TransactionView t : block) viewed += t.size();
  EXPECT_EQ(viewed, block.TotalItemOccurrences());
}

TEST(TransactionBlockTest, EmptyBlocksAndEmptyRecords) {
  const TransactionBlock defaulted;
  EXPECT_TRUE(defaulted.empty());
  EXPECT_EQ(defaulted.begin(), defaulted.end());
  EXPECT_EQ(defaulted.TotalItemOccurrences(), 0u);
  const TransactionBlock from_records(std::vector<Transaction>{}, 7);
  const TransactionBlock from_flat({}, {}, 7);
  EXPECT_TRUE(from_records.empty());
  EXPECT_EQ(from_records, from_flat);

  // An empty record between non-empty ones keeps its place and its TID.
  const TransactionBlock block({4, 6, 2}, {2, 2, 3}, 10);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0], Transaction({4, 6}));
  EXPECT_TRUE(block[1].empty());
  EXPECT_EQ(block[2], Transaction({2}));
  EXPECT_EQ(block.TidAt(2), 12u);
  EXPECT_EQ(block, TransactionBlock({Transaction({4, 6}), Transaction(),
                                     Transaction({2})},
                                    10));
}

TEST(TransactionBlockTest, FlatInputIsNormalizedPerRecord) {
  // Unsorted records, duplicates within a record, and an item repeated
  // across records (which must survive: records are sets, blocks bags).
  const TransactionBlock block({9, 3, 9, 1, 5, 5, 5, 3, 1, 3},
                               {4, 7, 10}, 0);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0], Transaction({1, 3, 9}));
  EXPECT_EQ(block[1], Transaction({5}));
  EXPECT_EQ(block[2], Transaction({1, 3}));
  EXPECT_EQ(block.items(), (std::vector<Item>{1, 3, 9, 5, 1, 3}));
  EXPECT_EQ(block.ends(), (std::vector<uint32_t>{3, 4, 6}));
  // Compaction leaves no slack behind.
  EXPECT_EQ(block.items().capacity(), block.items().size());
}

TEST(TransactionBlockTest, ViewsOfFirstAndLastRecord) {
  const std::vector<Transaction> records = {
      Transaction({1, 2, 3}), Transaction({4}), Transaction({0, 8})};
  const TransactionBlock block(records, 0);
  EXPECT_EQ(block[0], records.front());
  EXPECT_EQ(block[2], records.back());
  EXPECT_EQ(block[2].back(), 8u);
  EXPECT_EQ(block[0].data(), block.items().data());
  EXPECT_EQ(block[2].end(), block.items().data() + block.items().size());
  EXPECT_TRUE(block[2].Contains(8));
  const std::vector<Item> pair = {0, 8};
  EXPECT_TRUE(block[2].ContainsAll(pair.begin(), pair.end()));
  EXPECT_FALSE(block[0].ContainsAll(pair.begin(), pair.end()));
  // The iterator visits the same records operator[] returns.
  size_t k = 0;
  for (const TransactionView t : block) EXPECT_EQ(t, block[k++]);
  EXPECT_EQ(k, block.size());
}

TEST(TransactionBlockTest, CopyAndEquality) {
  TransactionBlock block({Transaction({1, 2}), Transaction({3})}, 5);
  block.mutable_info()->label = "b";
  const TransactionBlock copy = block;
  EXPECT_EQ(copy, block);
  EXPECT_EQ(copy.info().label, "b");
  EXPECT_NE(copy.items().data(), block.items().data());
  // Materializing and re-flattening is the identity.
  EXPECT_EQ(TransactionBlock(block.transactions(), 5), block);
  // Same slots split into different records, or a different first TID,
  // is a different block.
  EXPECT_FALSE(TransactionBlock({1, 2, 3}, {1, 3}, 5) == block);
  EXPECT_FALSE(TransactionBlock(block.transactions(), 6) == block);
}

TEST(PointBlockTest, FlatLayout) {
  PointBlock block({1.0, 2.0, 3.0, 4.0}, 2);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.dim(), 2u);
  EXPECT_DOUBLE_EQ(block.PointAt(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(block.PointAt(1)[1], 4.0);
}

TEST(PointBlockTest, FromPoints) {
  PointBlock block = PointBlock::FromPoints({{1.0, 2.0}, {3.0, 4.0}}, 2);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_DOUBLE_EQ(block.PointAt(0)[1], 2.0);
}

TEST(PointTest, Distances) {
  const Point a = {0.0, 0.0};
  const Point b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
}

TEST(SnapshotTest, AppendAssignsIncreasingIds) {
  TransactionSnapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  const BlockId id1 = snapshot.Append(TransactionBlock({Transaction({1})}, 0));
  const BlockId id2 = snapshot.Append(TransactionBlock({Transaction({2})}, 1));
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, 2u);
  EXPECT_EQ(snapshot.latest_id(), 2u);
  EXPECT_EQ(snapshot.oldest_id(), 1u);
  EXPECT_EQ(snapshot.block(1)->info().id, 1u);
}

TEST(SnapshotTest, MostRecentWindow) {
  TransactionSnapshot snapshot;
  for (int i = 0; i < 5; ++i) {
    snapshot.Append(TransactionBlock({Transaction({static_cast<Item>(i)})},
                                     static_cast<Tid>(i)));
  }
  const auto window = snapshot.MostRecentWindow(3);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0]->info().id, 3u);
  EXPECT_EQ(window[2]->info().id, 5u);
  // Window larger than the snapshot returns everything (t < w case, §2.2).
  EXPECT_EQ(snapshot.MostRecentWindow(10).size(), 5u);
}

TEST(SnapshotTest, DropOldest) {
  TransactionSnapshot snapshot;
  for (int i = 0; i < 4; ++i) {
    snapshot.Append(TransactionBlock({Transaction({static_cast<Item>(i)})},
                                     static_cast<Tid>(i)));
  }
  snapshot.Drop(2);
  EXPECT_EQ(snapshot.NumBlocks(), 2u);
  EXPECT_EQ(snapshot.oldest_id(), 3u);
  EXPECT_EQ(snapshot.latest_id(), 4u);
  EXPECT_EQ(snapshot.block(3)->info().id, 3u);
}

TEST(SnapshotTest, TotalRecords) {
  TransactionSnapshot snapshot;
  snapshot.Append(TransactionBlock({Transaction({1}), Transaction({2})}, 0));
  snapshot.Append(TransactionBlock({Transaction({3})}, 2));
  EXPECT_EQ(snapshot.TotalRecords(), 3u);
}

}  // namespace
}  // namespace demon
