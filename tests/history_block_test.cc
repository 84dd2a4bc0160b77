// Tests for HistoryBlock, the one shared per-block record of a monitor's
// transaction history: item lists built once however many consumers ask,
// the flat block held only while someone reads records, and transposition
// of the item lists back into exactly the records a dropped block held.

#include "tidlist/history_block.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/audit.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "persistence/block_codec.h"
#include "persistence/serializer.h"
#include "tidlist/tidlist_store.h"

namespace demon {
namespace {

using TxBlockPtr = std::shared_ptr<const TransactionBlock>;

/// A random block over `num_items` items. Records may be empty; when the
/// block has records, one of them holds the largest item id.
TxBlockPtr RandomBlock(Rng* rng, size_t num_items, size_t num_records) {
  std::vector<Transaction> records;
  for (size_t k = 0; k < num_records; ++k) {
    const size_t length = rng->NextUint64(std::min<size_t>(num_items, 9) + 1);
    std::vector<Item> items;
    for (size_t i = 0; i < length; ++i) {
      items.push_back(static_cast<Item>(rng->NextUint64(num_items)));
    }
    records.emplace_back(std::move(items));
  }
  if (num_records > 0) {
    std::vector<Item> items = records[rng->NextUint64(num_records)].items();
    items.push_back(static_cast<Item>(num_items - 1));
    records[0] = Transaction(std::move(items));
  }
  auto block = std::make_shared<TransactionBlock>(
      records, /*first_tid=*/rng->NextUint64(uint64_t{1} << 40) + 1);
  BlockInfo* info = block->mutable_info();
  info->id = static_cast<BlockId>(rng->NextUint64(1000) + 1);
  info->start_time = static_cast<int64_t>(rng->NextUint64(1u << 30)) - 7;
  info->end_time = info->start_time + 3600;
  info->label = "block " + std::to_string(info->id);
  return block;
}

std::string BytesOf(const TransactionBlock& block) {
  persistence::Writer w;
  persistence::WriteBlock(w, block);
  return w.buffer();
}

std::string BytesOf(const HistoryBlock& block) {
  persistence::Writer w;
  persistence::WriteBlock(w, block);
  return w.buffer();
}

void ExpectSameInfo(const BlockInfo& got, const BlockInfo& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.start_time, want.start_time);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.label, want.label);
}

// Property: a block whose flat form was dropped transposes back to the
// very records — and checkpoint bytes — it held, for empty blocks, empty
// records, the largest item id, and non-zero first TIDs, labels and times.
TEST(HistoryBlockTest, TranspositionRoundTripsRandomBlocks) {
  Rng rng(20261018);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t num_items = 1 + rng.NextUint64(70);
    const size_t num_records =
        trial % 10 == 0 ? 0 : rng.NextUint64(trial % 3 == 0 ? 5 : 200);
    TxBlockPtr block = RandomBlock(&rng, num_items, num_records);
    const TransactionBlock want = *block;
    const BlockInfo want_info = block->info();
    const std::string want_bytes = BytesOf(want);

    const HistoryBlock history(block);
    ASSERT_EQ(history.ItemLists(num_items, nullptr, nullptr)->num_items(),
              num_items);
    block.reset();
    ASSERT_EQ(history.LiveTransactions(), nullptr) << "trial " << trial;

    const TxBlockPtr got = history.Transactions();
    EXPECT_EQ(*got, want) << "trial " << trial;
    ExpectSameInfo(got->info(), want_info);
    EXPECT_EQ(BytesOf(history), want_bytes) << "trial " << trial;
    // Not retained: a transposed block is the reader's alone.
    EXPECT_EQ(history.LiveTransactions(), nullptr);
  }
}

// Records made only of empty transactions have no slots at all.
TEST(HistoryBlockTest, BlocksOfEmptyRecordsTranspose) {
  auto block = std::make_shared<TransactionBlock>(
      std::vector<Transaction>(5), /*first_tid=*/42);
  const TransactionBlock want = *block;
  const HistoryBlock history(std::move(block));
  (void)history.ItemLists(3, nullptr, nullptr);
  EXPECT_EQ(*history.Transactions(), want);
  EXPECT_EQ(history.size(), 5u);
  EXPECT_EQ(history.first_tid(), 42u);
}

// The flat block lives exactly as long as someone other than the history
// block holds it once the item lists exist.
TEST(HistoryBlockTest, FlatBlockLivesOnlyWhileAConsumerHoldsIt) {
  Rng rng(7);
  TxBlockPtr block = RandomBlock(&rng, 20, 50);
  const std::weak_ptr<const TransactionBlock> weak = block;
  const HistoryBlock history(block);
  block.reset();
  // Before the build the history block itself holds the records.
  EXPECT_FALSE(weak.expired());
  EXPECT_EQ(history.item_lists(), nullptr);

  TxBlockPtr reader = history.Transactions();
  (void)history.ItemLists(20, nullptr, nullptr);
  EXPECT_EQ(history.LiveTransactions(), reader);
  audit::AuditResult audit;
  history.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  reader.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(history.LiveTransactions(), nullptr);
  history.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// However many consumers ask at once, the lists are built once and every
// one of them gets the same extent.
TEST(HistoryBlockTest, ItemListsAreBuiltOnceAcrossThreads) {
  Rng rng(11);
  telemetry::TelemetryRegistry registry;
  telemetry::Counter* builds = registry.counter("tidlist/builds");
  for (int round = 0; round < 20; ++round) {
    const HistoryBlock history(RandomBlock(&rng, 30, 400));
    constexpr size_t kThreads = 4;
    std::vector<std::shared_ptr<const BlockTidLists>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = history.ItemLists(30, nullptr, builds);
        // Readers of the shared extent, racing the other builders.
        (void)got[t]->MaterializeItemList(static_cast<Item>(t));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
    EXPECT_EQ(history.item_lists(), got[0]);
  }
  if (telemetry::kEnabled) {
    EXPECT_EQ(builds->value(), 20u);
  }
}

// A spilled item extent is faulted back in under a lease to transpose it.
TEST(HistoryBlockTest, TransposingASpilledBlockFaultsItIn) {
  Rng rng(23);
  TidListStoreOptions options;
  options.memory_budget_bytes = 256;
  TidListStore store(options);
  std::vector<std::unique_ptr<HistoryBlock>> history;
  std::vector<TransactionBlock> want;
  for (int b = 0; b < 6; ++b) {
    TxBlockPtr block = RandomBlock(&rng, 40, 300);
    want.push_back(*block);
    history.push_back(std::make_unique<HistoryBlock>(std::move(block)));
    store.Append(history.back()->ItemLists(40, store.pager(), nullptr));
  }
  ASSERT_NE(store.pager(), nullptr);
  EXPECT_GT(store.pager()->spills(), 0u);
  const uint64_t page_ins = store.pager()->page_ins();
  for (size_t b = 0; b < history.size(); ++b) {
    EXPECT_EQ(*history[b]->Transactions(), want[b]) << "block " << b;
  }
  EXPECT_GT(store.pager()->page_ins(), page_ins);
  audit::AuditResult audit;
  store.AuditInto(&audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// ECUT+ pair lists over a shared item extent answer every query — and
// report payload bytes and the encoding census — exactly as a block that
// holds items and pairs in one extent.
TEST(HistoryBlockTest, PairsOverASharedItemExtentMatchOneExtent) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t num_items = 2 + rng.NextUint64(30);
    const TxBlockPtr block =
        RandomBlock(&rng, num_items, rng.NextUint64(300));
    PairMaterializationSpec spec;
    for (int p = 0; p < 12; ++p) {
      const Item a = static_cast<Item>(rng.NextUint64(num_items));
      const Item b = static_cast<Item>(rng.NextUint64(num_items));
      if (a != b) spec.pairs.emplace_back(a, b);
    }
    spec.budget_slots = trial % 4 == 0 ? 0 : SIZE_MAX / 2;

    const auto one = BlockTidLists::Build(*block, num_items, &spec);
    const auto items = BlockTidLists::Build(*block, num_items);
    const auto shared = BlockTidLists::WithPairs(items, spec);
    EXPECT_EQ(&shared->item_extent(), items.get());
    if (one->num_pair_lists() == 0) {
      EXPECT_EQ(shared, items);
    }
    EXPECT_EQ(shared->payload_bytes(), one->payload_bytes());
    EXPECT_EQ(shared->item_list_slots(), one->item_list_slots());
    EXPECT_EQ(shared->pair_list_slots(), one->pair_list_slots());
    EXPECT_EQ(shared->num_pair_lists(), one->num_pair_lists());
    for (uint8_t e = 0; e < kNumTidEncodings; ++e) {
      const auto encoding = static_cast<TidEncoding>(e);
      EXPECT_EQ(shared->EncodingCensus(encoding),
                one->EncodingCensus(encoding));
    }
    for (Item item = 0; item < num_items; ++item) {
      EXPECT_EQ(shared->MaterializeItemList(item),
                one->MaterializeItemList(item));
    }
    for (const auto& [a, b] : one->MaterializedPairs()) {
      ASSERT_TRUE(shared->HasPairList(a, b));
      EXPECT_EQ(shared->MaterializePairList(a, b),
                one->MaterializePairList(a, b));
    }
    audit::AuditResult audit;
    shared->AuditInto(&audit);
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

}  // namespace
}  // namespace demon
