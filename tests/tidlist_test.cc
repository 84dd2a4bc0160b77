#include "tidlist/tidlist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/random.h"
#include "tidlist/simd.h"
#include "tidlist/tidlist_store.h"

namespace demon {
namespace {

TidList Reference(const TidList& a, const TidList& b) {
  TidList expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  return expected;
}

/// Sorted unique list of `n` values drawn from [0, universe).
TidList RandomList(Rng* rng, size_t n, uint32_t universe) {
  std::set<uint32_t> values;
  while (values.size() < n) {
    values.insert(static_cast<uint32_t>(rng->NextUint64(universe)));
  }
  return TidList(values.begin(), values.end());
}

/// Checks the storing and the size-only raw merge against the oracle, in
/// both argument orders (the kernels reorder by size internally).
void ExpectMergesMatchOracle(const TidList& a, const TidList& b) {
  const TidList expected = Reference(a, b);
  EXPECT_EQ(Intersect(a, b), expected);
  EXPECT_EQ(Intersect(b, a), expected);
  EXPECT_EQ(IntersectRawSize(a.data(), a.size(), b.data(), b.size()),
            expected.size());
  EXPECT_EQ(IntersectRawSize(b.data(), b.size(), a.data(), a.size()),
            expected.size());
}

TEST(TidListTest, IntersectBasics) {
  EXPECT_EQ(Intersect({1, 3, 5}, {2, 3, 5, 7}), (TidList{3, 5}));
  EXPECT_EQ(Intersect({}, {1, 2}), TidList{});
  EXPECT_EQ(Intersect({1, 2}, {}), TidList{});
  EXPECT_EQ(Intersect({1, 2, 3}, {1, 2, 3}), (TidList{1, 2, 3}));
  EXPECT_EQ(Intersect({1, 2}, {3, 4}), TidList{});
}

TEST(TidListTest, GallopingPathMatchesMerge) {
  // One long list against a short one exercises the galloping branch.
  TidList large;
  for (uint32_t i = 0; i < 10000; i += 3) large.push_back(i);
  TidList small = {0, 3, 4, 2997, 9999, 9996};
  std::sort(small.begin(), small.end());
  const TidList result = Intersect(small, large);
  EXPECT_EQ(result, (TidList{0, 3, 2997, 9996, 9999}));
  // Symmetric argument order agrees.
  EXPECT_EQ(Intersect(large, small), result);
}

TEST(TidListTest, RandomizedAgainstSetIntersection) {
  Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    std::set<uint32_t> sa;
    std::set<uint32_t> sb;
    const size_t na = 1 + rng.NextUint64(300);
    const size_t nb = 1 + rng.NextUint64(300);
    for (size_t i = 0; i < na; ++i) {
      sa.insert(static_cast<uint32_t>(rng.NextUint64(500)));
    }
    for (size_t i = 0; i < nb; ++i) {
      sb.insert(static_cast<uint32_t>(rng.NextUint64(500)));
    }
    ExpectMergesMatchOracle(TidList(sa.begin(), sa.end()),
                            TidList(sb.begin(), sb.end()));
  }
}

TEST(TidListTest, IntersectIntoEdgeCases) {
  TidList out;
  const TidList empty;
  const TidList one_two_three = {1, 2, 3};
  // Both empty.
  IntersectInto(empty, empty, &out);
  EXPECT_TRUE(out.empty());
  // One empty.
  IntersectInto(one_two_three, empty, &out);
  EXPECT_TRUE(out.empty());
  IntersectInto(empty, one_two_three, &out);
  EXPECT_TRUE(out.empty());
  // Single elements: hit and miss.
  IntersectInto({5}, {5}, &out);
  EXPECT_EQ(out, (TidList{5}));
  IntersectInto({5}, {6}, &out);
  EXPECT_TRUE(out.empty());
  IntersectInto({5}, {1, 2, 5, 9}, &out);
  EXPECT_EQ(out, (TidList{5}));
  // Output buffer shrinks and regrows across calls without stale tids.
  IntersectInto({1, 2, 3, 4}, {1, 2, 3, 4}, &out);
  EXPECT_EQ(out, (TidList{1, 2, 3, 4}));
  IntersectInto({1}, {2}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TidListTest, GallopingThresholdBoundary) {
  // Size ratio exactly kGallopRatio must behave identically to both the
  // merge path (just below) and the gallop path (just above).
  for (size_t small_size : {1u, 3u, 7u}) {
    TidList small;
    for (size_t i = 0; i < small_size; ++i) {
      small.push_back(static_cast<uint32_t>(i * 97));
    }
    for (size_t large_size :
         {small_size * kGallopRatio - 1, small_size * kGallopRatio,
          small_size * kGallopRatio + 1}) {
      TidList large;
      for (size_t i = 0; i < large_size; ++i) {
        large.push_back(static_cast<uint32_t>(i * 3));
      }
      TidList expected;
      std::set_intersection(small.begin(), small.end(), large.begin(),
                            large.end(), std::back_inserter(expected));
      EXPECT_EQ(Intersect(small, large), expected)
          << small_size << "x" << large_size;
      EXPECT_EQ(Intersect(large, small), expected)
          << large_size << "x" << small_size;
    }
  }
}

TEST(TidListTest, GallopingMatchesMergeOnRandomInputs) {
  Rng rng(321);
  for (int round = 0; round < 40; ++round) {
    // Extreme size skew forces the galloping path; values near the end
    // of the large list exercise the step clamp at the boundary.
    std::set<uint32_t> ssmall;
    std::set<uint32_t> slarge;
    const size_t ns = 1 + rng.NextUint64(10);
    const size_t nl = 200 + rng.NextUint64(800);
    for (size_t i = 0; i < ns; ++i) {
      ssmall.insert(static_cast<uint32_t>(rng.NextUint64(5000)));
    }
    // Guarantee hits at the extreme tail and head.
    ssmall.insert(4999);
    ssmall.insert(0);
    for (size_t i = 0; i < nl; ++i) {
      slarge.insert(static_cast<uint32_t>(rng.NextUint64(5000)));
    }
    slarge.insert(4999);
    slarge.insert(0);
    ExpectMergesMatchOracle(TidList(ssmall.begin(), ssmall.end()),
                            TidList(slarge.begin(), slarge.end()));
  }
}

TEST(TidListTest, IntersectionSizeWithScratchReuse) {
  const TidList a = {1, 2, 3, 4, 5, 8};
  const TidList b = {2, 3, 4, 8, 9};
  const TidList c = {0, 3, 4, 8};
  IntersectionScratch scratch;
  const std::vector<const TidList*> abc = {&a, &b, &c};
  const std::vector<const TidList*> ab = {&a, &b};
  EXPECT_EQ(IntersectionSize(abc, &scratch), 3u);
  // Reuse with different lists; stale scratch contents must not leak.
  EXPECT_EQ(IntersectionSize(ab, &scratch), 4u);
  const TidList empty;
  const std::vector<const TidList*> ea = {&empty, &a};
  EXPECT_EQ(IntersectionSize(ea, &scratch), 0u);
  EXPECT_EQ(IntersectionSize(abc, &scratch), 3u);
}

TEST(TidListTest, IntersectionSizeMultiWay) {
  const TidList a = {1, 2, 3, 4, 5};
  const TidList b = {2, 3, 4, 9};
  const TidList c = {0, 3, 4};
  EXPECT_EQ(IntersectionSize({&a}), 5u);
  EXPECT_EQ(IntersectionSize({&a, &b}), 3u);
  EXPECT_EQ(IntersectionSize({&a, &b, &c}), 2u);
  const TidList empty;
  EXPECT_EQ(IntersectionSize({&a, &empty, &b}), 0u);
}

// ---------------------------------------------------------------------------
// The raw x raw kernel family that simd::ActiveKernelName() names: the
// storing and the size-only merge-plus-gallop against std::set_intersection
// on adversarial shapes.

TEST(SimdKernelsTest, ReportsAtLeastTheScalarTier) {
  EXPECT_STREQ(simd::ActiveKernelName(), "scalar");
}

TEST(SimdKernelsTest, EmptyAndSingleElementLists) {
  const TidList empty;
  const TidList one = {42};
  const TidList other = {7};
  ExpectMergesMatchOracle(empty, empty);
  ExpectMergesMatchOracle(empty, one);
  ExpectMergesMatchOracle(one, one);
  ExpectMergesMatchOracle(one, other);
}

TEST(SimdKernelsTest, ConsecutiveRunsFullAndPartialOverlap) {
  TidList a;
  TidList b;
  for (uint32_t v = 0; v < 300; ++v) a.push_back(v);
  for (uint32_t v = 150; v < 450; ++v) b.push_back(v);
  ExpectMergesMatchOracle(a, a);
  ExpectMergesMatchOracle(a, b);
}

TEST(SimdKernelsTest, GapsNearUint32Max) {
  // Values at the top of the 32-bit range: the merge and the gallop must
  // compare unsigned.
  const TidList a = {0, 1, 5, 0x7fffffffu, 0x80000000u, 0xfffffff0u,
                     0xfffffffeu, 0xffffffffu};
  const TidList b = {1, 2, 0x7fffffffu, 0x80000001u, 0xfffffff0u,
                     0xffffffffu};
  ExpectMergesMatchOracle(a, b);
  ExpectMergesMatchOracle(a, a);
}

TEST(SimdKernelsTest, LengthsStraddlingVectorWidths) {
  Rng rng(20260808);
  // Short lengths on both sides of 4, 8, 16, 32 and 64: either list may run
  // out first, at any position.
  const size_t lengths[] = {2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65};
  for (const size_t na : lengths) {
    for (const size_t nb : lengths) {
      ExpectMergesMatchOracle(RandomList(&rng, na, 256),
                              RandomList(&rng, nb, 256));
    }
  }
}

TEST(SimdKernelsTest, GallopSkewTriggersGallopPath) {
  Rng rng(7);
  // small * kGallopRatio << large, so both merges take the gallop path.
  const TidList small = RandomList(&rng, 12, 1u << 20);
  const TidList large = RandomList(&rng, 4096, 1u << 20);
  ExpectMergesMatchOracle(small, large);
  // Make some hits certain.
  TidList with_hits = large;
  for (size_t i = 0; i < small.size(); i += 2) with_hits.push_back(small[i]);
  std::sort(with_hits.begin(), with_hits.end());
  with_hits.erase(std::unique(with_hits.begin(), with_hits.end()),
                  with_hits.end());
  ExpectMergesMatchOracle(small, with_hits);
}

TEST(SimdKernelsTest, DifferentialFuzzAcrossDensities) {
  Rng rng(991);
  for (const uint32_t universe : {64u, 1024u, 65536u}) {
    for (int round = 0; round < 8; ++round) {
      // Densities from ~0.1% to ~80% of the universe.
      const size_t na = 1 + rng.NextUint64(universe * 4 / 5);
      const size_t nb = 1 + rng.NextUint64(universe * 4 / 5);
      ExpectMergesMatchOracle(RandomList(&rng, na, universe),
                              RandomList(&rng, nb, universe));
    }
  }
}

TEST(BlockTidListsTest, ListsMatchBlockContents) {
  TransactionBlock block(
      {Transaction({0, 2}), Transaction({1, 2}), Transaction({0, 1, 2})}, 0);
  auto lists = BlockTidLists::Build(block, 3);
  EXPECT_EQ(lists->num_transactions(), 3u);
  EXPECT_EQ(lists->MaterializeItemList(0), (TidList{0, 2}));
  EXPECT_EQ(lists->MaterializeItemList(1), (TidList{1, 2}));
  EXPECT_EQ(lists->MaterializeItemList(2), (TidList{0, 1, 2}));
  // The always-resident directory answers sizes without payload access.
  EXPECT_EQ(lists->ItemListSize(0), 2u);
  EXPECT_EQ(lists->ItemListSize(2), 3u);
  // Item-list slots equal the transactional representation's size (§3.1.1).
  EXPECT_EQ(lists->item_list_slots(), block.TotalItemOccurrences());
  EXPECT_EQ(lists->num_pair_lists(), 0u);
}

TEST(BlockTidListsTest, PairMaterialization) {
  TransactionBlock block(
      {Transaction({0, 1}), Transaction({0, 1, 2}), Transaction({1, 2})}, 0);
  PairMaterializationSpec spec;
  spec.pairs = {{0, 1}, {1, 2}};
  auto lists = BlockTidLists::Build(block, 3, &spec);
  ASSERT_TRUE(lists->HasPairList(0, 1));
  EXPECT_EQ(lists->MaterializePairList(0, 1), (TidList{0, 1}));
  ASSERT_TRUE(lists->HasPairList(1, 2));
  EXPECT_EQ(lists->MaterializePairList(1, 2), (TidList{1, 2}));
  EXPECT_FALSE(lists->HasPairList(0, 2));
  // Argument order does not matter.
  EXPECT_TRUE(lists->HasPairList(1, 0));
  EXPECT_EQ(lists->MaterializePairList(1, 0), lists->MaterializePairList(0, 1));
  EXPECT_EQ(lists->PairListSize(1, 0), 2u);
  EXPECT_EQ(lists->pair_list_slots(), 4u);
}

TEST(BlockTidListsTest, PairBudgetTakesPriorityOrder) {
  TransactionBlock block(
      {Transaction({0, 1, 2}), Transaction({0, 1, 2}), Transaction({0, 1})},
      0);
  PairMaterializationSpec spec;
  spec.pairs = {{0, 1}, {0, 2}, {1, 2}};  // priority order
  spec.budget_slots = 4;
  auto lists = BlockTidLists::Build(block, 3, &spec);
  // {0,1} has 3 tids (fits), {0,2} has 2 (3+2 > 4, skipped), {1,2} has 2
  // (skipped as well: budget is 4 and 3 are used).
  EXPECT_TRUE(lists->HasPairList(0, 1));
  EXPECT_FALSE(lists->HasPairList(0, 2));
  EXPECT_FALSE(lists->HasPairList(1, 2));
  EXPECT_LE(lists->pair_list_slots(), 4u);
}

TEST(TidListStoreTest, AppendAndDrop) {
  TransactionBlock b1({Transaction({0, 1})}, 0);
  TransactionBlock b2({Transaction({1}), Transaction({0})}, 1);
  TidListStore store;
  store.Append(BlockTidLists::Build(b1, 2));
  store.Append(BlockTidLists::Build(b2, 2));
  EXPECT_EQ(store.NumBlocks(), 2u);
  EXPECT_EQ(store.TotalTransactions(), 3u);
  EXPECT_EQ(store.TotalItemSlots(), 4u);
  store.DropOldest(1);
  EXPECT_EQ(store.NumBlocks(), 1u);
  EXPECT_EQ(store.TotalTransactions(), 2u);
}

}  // namespace
}  // namespace demon
