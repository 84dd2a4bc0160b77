#include "itemsets/disk_counting.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

struct DiskFixture {
  std::shared_ptr<const TransactionBlock> block;
  std::string tx_path;
  std::string tl_path;
  size_t num_items;

  ~DiskFixture() {
    std::remove(tx_path.c_str());
    std::remove(tl_path.c_str());
  }
};

DiskFixture MakeFixture(uint64_t seed, bool with_pairs) {
  QuestParams params;
  params.num_transactions = 1500;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = seed;
  QuestGenerator gen(params);

  DiskFixture fixture;
  fixture.num_items = params.num_items;
  fixture.block = std::make_shared<TransactionBlock>(gen.GenerateAll());
  fixture.tx_path = ::testing::TempDir() + "/txns_" +
                    std::to_string(seed) + ".bin";
  fixture.tl_path = ::testing::TempDir() + "/lists_" +
                    std::to_string(seed) + ".bin";

  EXPECT_TRUE(TransactionFile::Write(*fixture.block, fixture.tx_path).ok());

  PairMaterializationSpec spec;
  if (with_pairs) {
    const ItemsetModel model =
        Apriori({fixture.block}, 0.03, params.num_items);
    spec.pairs = model.Frequent2ItemsetsBySupport();
  }
  auto lists = BlockTidLists::Build(*fixture.block, params.num_items,
                                    with_pairs ? &spec : nullptr);
  EXPECT_TRUE(TidListFile::Write(*lists, fixture.tl_path).ok());
  return fixture;
}

std::vector<Itemset> SampleItemsets(size_t count, size_t num_items,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Itemset> itemsets;
  while (itemsets.size() < count) {
    Itemset itemset;
    const size_t size = 1 + rng.NextUint64(4);
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(rng.NextUint64(num_items));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(std::lower_bound(itemset.begin(), itemset.end(), item),
                       item);
      }
    }
    itemsets.push_back(std::move(itemset));
  }
  return itemsets;
}

TEST(TransactionFileTest, RoundTrip) {
  const DiskFixture fixture = MakeFixture(71, false);
  auto reread = TransactionFile::Read(fixture.tx_path);
  ASSERT_TRUE(reread.ok()) << reread.status();
  const TransactionBlock& loaded = reread.value();
  ASSERT_EQ(loaded.size(), fixture.block->size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.transactions()[i], fixture.block->transactions()[i]);
  }
}

TEST(TransactionFileTest, ScannerVisitsAllAndTracksBytes) {
  const DiskFixture fixture = MakeFixture(72, false);
  auto scanner_result = TransactionFileScanner::Open(fixture.tx_path);
  ASSERT_TRUE(scanner_result.ok());
  auto& scanner = *scanner_result.value();
  size_t visits = 0;
  ASSERT_TRUE(scanner.Scan([&visits](const Transaction&) { ++visits; }).ok());
  EXPECT_EQ(visits, fixture.block->size());
  EXPECT_GT(scanner.bytes_read(), 0u);
  // Scanning twice rewinds correctly.
  visits = 0;
  ASSERT_TRUE(scanner.Scan([&visits](const Transaction&) { ++visits; }).ok());
  EXPECT_EQ(visits, fixture.block->size());
}

TEST(TidListFileTest, IndexedReadsMatchInMemoryLists) {
  const DiskFixture fixture = MakeFixture(73, true);
  auto lists = BlockTidLists::Build(*fixture.block, fixture.num_items);
  auto reader_result = TidListFileReader::Open(fixture.tl_path);
  ASSERT_TRUE(reader_result.ok()) << reader_result.status();
  auto& reader = *reader_result.value();
  EXPECT_EQ(reader.num_transactions(), fixture.block->size());
  TidList list;
  for (Item item = 0; item < fixture.num_items; ++item) {
    ASSERT_TRUE(reader.ReadItemList(item, &list).ok());
    EXPECT_EQ(list, lists->MaterializeItemList(item)) << "item " << item;
    EXPECT_EQ(reader.ItemListLength(item), lists->ItemListSize(item));
  }
}

TEST(TidListFileTest, PairListsRoundTrip) {
  const DiskFixture fixture = MakeFixture(74, true);
  PairMaterializationSpec spec;
  const ItemsetModel model = Apriori({fixture.block}, 0.03, fixture.num_items);
  spec.pairs = model.Frequent2ItemsetsBySupport();
  auto lists =
      BlockTidLists::Build(*fixture.block, fixture.num_items, &spec);
  auto reader_result = TidListFileReader::Open(fixture.tl_path);
  ASSERT_TRUE(reader_result.ok());
  auto& reader = *reader_result.value();
  for (const auto& [a, b] : lists->MaterializedPairs()) {
    ASSERT_TRUE(reader.HasPairList(a, b));
    TidList list;
    ASSERT_TRUE(reader.ReadPairList(a, b, &list).ok());
    EXPECT_EQ(list, lists->MaterializePairList(a, b));
  }
  TidList dummy;
  EXPECT_EQ(reader.ReadPairList(78, 79, &dummy).code(),
            StatusCode::kNotFound);
}

TEST(TidListFileTest, FullDiskIsIoError) {
  // Every write to /dev/full fails with ENOSPC. A block this small sits in
  // the stdio buffer until fclose, so only the close can report it.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const TransactionBlock block(
      {Transaction({0, 2}), Transaction({1, 2}), Transaction({0, 1, 2})}, 0);
  const auto lists = BlockTidLists::Build(block, 3);
  const Status status = TidListFile::Write(*lists, "/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
}

TEST(DiskCountingTest, MatchesInMemoryCounting) {
  const DiskFixture fixture = MakeFixture(75, true);
  const auto itemsets = SampleItemsets(120, fixture.num_items, 76);

  const auto memory = PtScanCount(itemsets, {fixture.block});

  auto scanner = TransactionFileScanner::Open(fixture.tx_path);
  ASSERT_TRUE(scanner.ok());
  auto disk_pt = PtScanCountDisk(itemsets, {scanner.value().get()});
  ASSERT_TRUE(disk_pt.ok());
  EXPECT_EQ(disk_pt.value(), memory);

  auto reader = TidListFileReader::Open(fixture.tl_path);
  ASSERT_TRUE(reader.ok());
  auto disk_ecut =
      EcutCountDisk(itemsets, {reader.value().get()}, /*use_pair_lists=*/false);
  ASSERT_TRUE(disk_ecut.ok());
  EXPECT_EQ(disk_ecut.value(), memory);

  auto disk_ecut_plus =
      EcutCountDisk(itemsets, {reader.value().get()}, /*use_pair_lists=*/true);
  ASSERT_TRUE(disk_ecut_plus.ok());
  EXPECT_EQ(disk_ecut_plus.value(), memory);
}

TEST(DiskCountingTest, EcutReadsFarFewerBytesForFewItemsets) {
  const DiskFixture fixture = MakeFixture(77, true);
  const auto itemsets = SampleItemsets(5, fixture.num_items, 78);

  auto scanner = TransactionFileScanner::Open(fixture.tx_path);
  auto reader = TidListFileReader::Open(fixture.tl_path);
  ASSERT_TRUE(scanner.ok() && reader.ok());

  CountingStats pt_stats;
  CountingStats ecut_stats;
  ASSERT_TRUE(
      PtScanCountDisk(itemsets, {scanner.value().get()}, &pt_stats).ok());
  ASSERT_TRUE(EcutCountDisk(itemsets, {reader.value().get()}, false,
                            &ecut_stats)
                  .ok());
  EXPECT_LT(ecut_stats.slots_fetched, pt_stats.slots_fetched / 2);
}

TEST(DiskCountingTest, MultiBlockAdditivity) {
  // Two disk blocks; counts must equal the sum of per-block counts and
  // the in-memory count over both blocks.
  const DiskFixture f1 = MakeFixture(79, false);
  const DiskFixture f2 = MakeFixture(80, false);
  const auto itemsets = SampleItemsets(30, f1.num_items, 81);

  auto r1 = TidListFileReader::Open(f1.tl_path);
  auto r2 = TidListFileReader::Open(f2.tl_path);
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto both = EcutCountDisk(itemsets, {r1.value().get(), r2.value().get()},
                            false);
  ASSERT_TRUE(both.ok());
  const auto memory = PtScanCount(itemsets, {f1.block, f2.block});
  EXPECT_EQ(both.value(), memory);
}

}  // namespace
}  // namespace demon
