#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/block.h"
#include "datagen/quest_generator.h"
#include "itemsets/counting_context.h"
#include "tidlist/extent_pager.h"
#include "tidlist/tidlist_store.h"

namespace demon {
namespace {

constexpr size_t kNumItems = 60;

std::vector<std::shared_ptr<const TransactionBlock>> MakeBlocks(
    size_t num_blocks, size_t transactions_per_block, uint64_t seed) {
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  for (size_t b = 0; b < num_blocks; ++b) {
    QuestParams params;
    params.num_transactions = transactions_per_block;
    params.num_items = kNumItems;
    params.num_patterns = 25;
    params.seed = seed + b;
    QuestGenerator gen(params);
    blocks.push_back(
        std::make_shared<TransactionBlock>(gen.GenerateAll()));
  }
  return blocks;
}

void FillStore(const std::vector<std::shared_ptr<const TransactionBlock>>&
                   blocks,
               TidListStore* store,
               const PairMaterializationSpec* pairs = nullptr) {
  for (const auto& block : blocks) {
    store->Append(BlockTidLists::Build(*block, kNumItems, pairs));
  }
}

std::vector<Itemset> SampleItemsets(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Itemset> itemsets;
  for (size_t i = 0; i < count; ++i) {
    const size_t k = 2 + rng.NextUint64(3);
    std::set<Item> items;
    while (items.size() < k) {
      items.insert(static_cast<Item>(rng.NextUint64(kNumItems)));
    }
    itemsets.push_back(Itemset(items.begin(), items.end()));
  }
  return itemsets;
}

// ---------------------------------------------------------------------------
// Budgeted residency.

TEST(ExtentPagerTest, TinyBudgetSpillsAndListsStayExact) {
  const auto blocks = MakeBlocks(8, 400, 21);

  // Explicit zero budget (not the env-reading default constructor), so the
  // reference store stays unmanaged even under the CI soak's
  // DEMON_TIDLIST_BUDGET_BYTES.
  TidListStore unbounded{TidListStoreOptions{}};
  FillStore(blocks, &unbounded);
  ASSERT_EQ(unbounded.pager(), nullptr);

  TidListStoreOptions options;
  options.memory_budget_bytes = 1024;
  TidListStore budgeted(options);
  FillStore(blocks, &budgeted);
  ASSERT_NE(budgeted.pager(), nullptr);
  const ExtentPager& pager = *budgeted.pager();

  // The workload must overflow the budget by a wide margin for the test to
  // mean anything (the acceptance bar is a 4x overcommit).
  EXPECT_GE(budgeted.TotalPayloadBytes(), 4 * options.memory_budget_bytes);
  EXPECT_GT(pager.spills(), 0u);
  EXPECT_GT(pager.evictions(), 0u);

  // Every list decodes to exactly what the unbounded store holds, faulting
  // extents back in as needed.
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (Item item = 0; item < kNumItems; ++item) {
      EXPECT_EQ(budgeted.block(b).MaterializeItemList(item),
                unbounded.block(b).MaterializeItemList(item))
          << "block " << b << " item " << item;
    }
  }
  EXPECT_GT(pager.page_ins(), 0u);
  EXPECT_GE(pager.peak_resident_bytes(), pager.resident_bytes());

  // Unpinned steady state: the budget can only be exceeded by the one
  // block Adopt/fault-in keeps while it is being touched.
  size_t largest_block = 0;
  for (const auto& lists : budgeted.blocks()) {
    largest_block = std::max(largest_block, lists->payload_bytes());
  }
  EXPECT_LE(pager.resident_bytes(),
            options.memory_budget_bytes + largest_block);

  audit::AuditResult audit;
  budgeted.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ExtentPagerTest, LeaseKeepsViewsValidUnderEvictionPressure) {
  const auto blocks = MakeBlocks(6, 300, 33);
  TidListStoreOptions options;
  options.memory_budget_bytes = 512;
  TidListStore store(options);
  FillStore(blocks, &store);

  const BlockTidLists& first = store.block(0);
  const TidList expected = first.MaterializeItemList(3);
  const TidListLease lease = first.Lease();
  const TidListView view = first.ItemView(3);

  // Hammer every other block to churn the pager; the leased block must
  // stay resident and the view must keep decoding the same bytes.
  for (int round = 0; round < 3; ++round) {
    for (size_t b = 1; b < store.NumBlocks(); ++b) {
      for (Item item = 0; item < kNumItems; item += 7) {
        (void)store.block(b).MaterializeItemList(item);
      }
    }
  }
  EXPECT_TRUE(first.resident());
  TidList decoded;
  MaterializeInto(view, &decoded);
  EXPECT_EQ(decoded, expected);
}

TEST(ExtentPagerTest, StoreCopiesShareThePagerAndItsAccounting) {
  const auto blocks = MakeBlocks(4, 200, 55);
  TidListStoreOptions options;
  options.memory_budget_bytes = 2048;
  TidListStore store(options);
  FillStore(blocks, &store);

  // GEMM-style cheap copy: blocks and the pager are shared, so the copy's
  // accesses account against the same budget.
  const TidListStore copy = store;
  EXPECT_EQ(copy.pager(), store.pager());
  EXPECT_EQ(&copy.block(0), &store.block(0));
  for (size_t b = 0; b < copy.NumBlocks(); ++b) {
    EXPECT_EQ(copy.block(b).MaterializeItemList(5),
              store.block(b).MaterializeItemList(5));
  }

  audit::AuditResult audit;
  copy.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ExtentPagerTest, ResidencyOrderIsAPermutationWithResidentFirst) {
  const auto blocks = MakeBlocks(6, 250, 77);
  TidListStoreOptions options;
  options.memory_budget_bytes = 1024;
  TidListStore store(options);
  FillStore(blocks, &store);

  std::vector<uint32_t> order;
  store.ResidencyOrder(&order);
  ASSERT_EQ(order.size(), store.NumBlocks());
  std::vector<uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Once a non-resident block appears, no resident block may follow (the
  // order was resident-first at snapshot time and nothing else touches the
  // store here).
  bool seen_evicted = false;
  for (const uint32_t index : order) {
    const bool resident = store.block(index).resident();
    if (!resident) seen_evicted = true;
    if (seen_evicted) {
      EXPECT_FALSE(resident);
    }
  }
}

// ---------------------------------------------------------------------------
// Counting equivalence: budgets shape paging, never counts.

TEST(ExtentPagerTest, CountsAreBitIdenticalAcrossBudgetsAndStrategies) {
  const auto blocks = MakeBlocks(6, 350, 91);
  const auto itemsets = SampleItemsets(80, 17);

  PairMaterializationSpec pairs;
  for (Item a = 0; a < 12; ++a) {
    for (Item b = a + 1; b < 12; ++b) pairs.pairs.push_back({a, b});
  }

  TidListStore unbounded{TidListStoreOptions{}};
  FillStore(blocks, &unbounded, &pairs);
  TidListStoreOptions options;
  options.memory_budget_bytes = 1500;
  TidListStore budgeted(options);
  FillStore(blocks, &budgeted, &pairs);
  ASSERT_GE(budgeted.TotalPayloadBytes(), 4 * options.memory_budget_bytes);

  CountingContext sequential;
  const std::vector<uint64_t> reference =
      sequential.PtScan(itemsets, blocks);
  EXPECT_EQ(sequential.Ecut(itemsets, unbounded, false), reference);
  EXPECT_EQ(sequential.Ecut(itemsets, budgeted, false), reference);
  EXPECT_EQ(sequential.Ecut(itemsets, unbounded, true), reference);
  EXPECT_EQ(sequential.Ecut(itemsets, budgeted, true), reference);

  ThreadPool pool(4);
  CountingContext parallel(&pool);
  EXPECT_EQ(parallel.Ecut(itemsets, budgeted, false), reference);
  EXPECT_EQ(parallel.Ecut(itemsets, budgeted, true), reference);
  EXPECT_GT(budgeted.pager()->page_ins(), 0u);
}

// Two independent stores (think: two monitors in one fleet) configured
// with the SAME explicit spill directory must not collide: spill names
// carry a per-pager id, so one pager's eviction/cleanup can never clobber
// or delete the other's spill files.
TEST(ExtentPagerTest, PagersSharingASpillDirectoryDoNotCollide) {
  const auto blocks = MakeBlocks(5, 300, 77);
  const std::string spill_dir = ::testing::TempDir() + "/demon-shared-spill";

  TidListStore unbounded{TidListStoreOptions{}};
  FillStore(blocks, &unbounded);

  {
    TidListStoreOptions options;
    options.memory_budget_bytes = 512;
    options.spill_dir = spill_dir;
    TidListStore store_a(options);
    TidListStore store_b(options);
    FillStore(blocks, &store_a);
    FillStore(blocks, &store_b);
    ASSERT_NE(store_a.pager(), store_b.pager());
    EXPECT_GT(store_a.pager()->spills(), 0u);
    EXPECT_GT(store_b.pager()->spills(), 0u);

    // Interleave fault-ins across the two stores; every list must still
    // decode to the unbounded truth (a collision would surface as a
    // missing spill file abort or as another block's bytes).
    for (size_t b = 0; b < blocks.size(); ++b) {
      for (Item item = 0; item < kNumItems; item += 7) {
        const TidList expected =
            unbounded.block(b).MaterializeItemList(item);
        EXPECT_EQ(store_a.block(b).MaterializeItemList(item), expected);
        EXPECT_EQ(store_b.block(b).MaterializeItemList(item), expected);
      }
    }

    // Dropping every block of one store (removing its spill files) must
    // not disturb the other's.
    store_a.DropOldest(blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(store_b.block(b).MaterializeItemList(3),
                unbounded.block(b).MaterializeItemList(3));
    }
  }
  // Both stores gone: every spill file was cleaned up, so the shared
  // (explicit, hence not auto-removed) directory is empty and removable.
  EXPECT_EQ(::rmdir(spill_dir.c_str()), 0);
}

// ---------------------------------------------------------------------------
// Spill files: the payload bytes alone, faulted back in unchanged.

/// Contents of every file in `dir`, as a multiset (spill file names carry
/// per-pager sequence numbers, so only the contents are comparable).
std::multiset<std::string> SpillFileContents(const std::string& dir) {
  std::multiset<std::string> contents;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    contents.insert(std::string(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()));
  }
  return contents;
}

TEST(BlockTidListsTest, FilePersistenceRoundTrip) {
  const auto blocks = MakeBlocks(3, 300, 13);
  PairMaterializationSpec pairs;
  pairs.pairs = {{0, 1}, {2, 3}};
  const std::string spill_dir =
      ::testing::TempDir() + "/demon-spill-roundtrip";

  TidListStore unbounded{TidListStoreOptions{}};
  FillStore(blocks, &unbounded, &pairs);
  {
    TidListStoreOptions options;
    options.memory_budget_bytes = 256;  // evicts everything not in use
    options.spill_dir = spill_dir;
    TidListStore budgeted(options);
    FillStore(blocks, &budgeted, &pairs);
    // Touching the first block evicts (and spills) the last one, so every
    // block has been through its spill file.
    (void)budgeted.block(0).MaterializeItemList(0);
    EXPECT_EQ(budgeted.pager()->spills(), blocks.size());

    // Two evict/fault-in cycles: every list, its encoding, the slot counts
    // and the census match the never-evicted store.
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (size_t b = 0; b < blocks.size(); ++b) {
        const BlockTidLists& got = budgeted.block(b);
        const BlockTidLists& want = unbounded.block(b);
        EXPECT_EQ(got.num_transactions(), want.num_transactions());
        EXPECT_EQ(got.item_list_slots(), want.item_list_slots());
        EXPECT_EQ(got.pair_list_slots(), want.pair_list_slots());
        EXPECT_EQ(got.payload_bytes(), want.payload_bytes());
        for (uint8_t e = 0; e < kNumTidEncodings; ++e) {
          const auto encoding = static_cast<TidEncoding>(e);
          EXPECT_EQ(got.EncodingCensus(encoding),
                    want.EncodingCensus(encoding));
        }
        for (Item item = 0; item < kNumItems; ++item) {
          EXPECT_EQ(got.ItemListEncoding(item), want.ItemListEncoding(item));
          EXPECT_EQ(got.MaterializeItemList(item),
                    want.MaterializeItemList(item))
              << "cycle " << cycle << " block " << b << " item " << item;
        }
        ASSERT_TRUE(got.HasPairList(0, 1));
        EXPECT_EQ(got.MaterializePairList(0, 1), want.MaterializePairList(0, 1));
        EXPECT_EQ(got.MaterializePairList(2, 3), want.MaterializePairList(2, 3));
      }
    }
    EXPECT_GT(budgeted.pager()->page_ins(), 0u);
  }
  EXPECT_EQ(::rmdir(spill_dir.c_str()), 0);
}

TEST(TidListBlockFileTest, V2WritesAreByteDeterministicEvenWhenEvicted) {
  const auto blocks = MakeBlocks(3, 300, 17);
  PairMaterializationSpec pairs;
  pairs.pairs = {{0, 1}, {2, 3}};
  const std::string dir_a = ::testing::TempDir() + "/demon-spill-bytes-a";
  const std::string dir_b = ::testing::TempDir() + "/demon-spill-bytes-b";

  TidListStore unbounded{TidListStoreOptions{}};
  FillStore(blocks, &unbounded, &pairs);
  {
    // Two stores with different budgets and touch orders: which block is
    // evicted when differs, the bytes each block spills must not.
    TidListStoreOptions options_a;
    options_a.memory_budget_bytes = 256;
    options_a.spill_dir = dir_a;
    TidListStore store_a(options_a);
    FillStore(blocks, &store_a, &pairs);
    (void)store_a.block(0).MaterializeItemList(0);

    TidListStoreOptions options_b;
    options_b.memory_budget_bytes =
        unbounded.block(0).payload_bytes() + unbounded.block(1).payload_bytes();
    options_b.spill_dir = dir_b;
    TidListStore store_b(options_b);
    FillStore(blocks, &store_b, &pairs);
    for (int round = 0; round < 4 && store_b.pager()->spills() < blocks.size();
         ++round) {
      for (size_t b = blocks.size(); b-- > 0;) {
        (void)store_b.block(b).MaterializeItemList(1);
      }
    }
    ASSERT_EQ(store_a.pager()->spills(), blocks.size());
    ASSERT_EQ(store_b.pager()->spills(), blocks.size());

    // A spill file is exactly the block's payload: no header, no directory
    // (that stays resident).
    const std::multiset<std::string> bytes_a = SpillFileContents(dir_a);
    std::multiset<size_t> spill_sizes;
    for (const std::string& bytes : bytes_a) spill_sizes.insert(bytes.size());
    std::multiset<size_t> payload_sizes;
    for (const auto& block : unbounded.blocks()) {
      payload_sizes.insert(block->payload_bytes());
    }
    EXPECT_EQ(spill_sizes, payload_sizes);
    EXPECT_EQ(bytes_a, SpillFileContents(dir_b));

    // A block faulted back in is never re-spilled (its file stays valid),
    // so further eviction cycles leave the bytes as they were.
    for (size_t b = 0; b < blocks.size(); ++b) {
      (void)store_a.block(b).MaterializeItemList(2);
    }
    EXPECT_EQ(store_a.pager()->spills(), blocks.size());
    EXPECT_EQ(SpillFileContents(dir_a), bytes_a);
  }
  EXPECT_EQ(::rmdir(dir_a.c_str()), 0);
  EXPECT_EQ(::rmdir(dir_b.c_str()), 0);
}

}  // namespace
}  // namespace demon
