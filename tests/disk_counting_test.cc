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
  ASSERT_TRUE(scanner.Scan([&visits](TransactionView) { ++visits; }).ok());
  EXPECT_EQ(visits, fixture.block->size());
  EXPECT_GT(scanner.bytes_read(), 0u);
  // Scanning twice rewinds correctly.
  visits = 0;
  ASSERT_TRUE(scanner.Scan([&visits](TransactionView) { ++visits; }).ok());
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
  // Every write to /dev/full fails with ENOSPC, which the write itself
  // reports.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const TransactionBlock block(
      {Transaction({0, 2}), Transaction({1, 2}), Transaction({0, 1, 2})}, 0);
  const auto lists = BlockTidLists::Build(block, 3);
  const Status status = TidListFile::Write(*lists, "/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string FileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

// Recorded before file I/O moved into persistence/file: the transaction
// file and the indexed TID-list file (item and pair lists) of a fixed
// Quest block must keep exactly these bytes, and the readers must keep
// reporting the same byte counts (fig2_disk's columns).
constexpr size_t kPinnedTxBytes = 51672;
constexpr uint64_t kPinnedTxHash = 0x9912fe6d30f536c3ULL;
constexpr uint64_t kPinnedScanBytesRead = 51640;
constexpr size_t kPinnedTlBytes = 153740;
constexpr uint64_t kPinnedTlHash = 0xc1017a1e0a82ffd1ULL;
constexpr uint64_t kPinnedListBytesRead = 146196;

TEST(TransactionFileTest, BytesAndScanCountersArePinned) {
  const DiskFixture fixture = MakeFixture(82, true);
  const std::string bytes = FileBytes(fixture.tx_path);
  EXPECT_EQ(bytes.size(), kPinnedTxBytes);
  EXPECT_EQ(Fnv1a64(bytes), kPinnedTxHash);

  auto scanner = TransactionFileScanner::Open(fixture.tx_path);
  ASSERT_TRUE(scanner.ok()) << scanner.status();
  ASSERT_TRUE(scanner.value()->Scan([](TransactionView) {}).ok());
  EXPECT_EQ(scanner.value()->bytes_read(), kPinnedScanBytesRead);
  // A second scan rewinds and counts the same bytes again.
  ASSERT_TRUE(scanner.value()->Scan([](TransactionView) {}).ok());
  EXPECT_EQ(scanner.value()->bytes_read(), 2 * kPinnedScanBytesRead);
}

TEST(TidListFileTest, BytesAndReadCountersArePinned) {
  const DiskFixture fixture = MakeFixture(83, true);
  const std::string bytes = FileBytes(fixture.tl_path);
  EXPECT_EQ(bytes.size(), kPinnedTlBytes);
  EXPECT_EQ(Fnv1a64(bytes), kPinnedTlHash);

  PairMaterializationSpec spec;
  spec.pairs = Apriori({fixture.block}, 0.03, fixture.num_items)
                   .Frequent2ItemsetsBySupport();
  const auto lists =
      BlockTidLists::Build(*fixture.block, fixture.num_items, &spec);
  auto reader = TidListFileReader::Open(fixture.tl_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  TidList list;
  for (Item item = 0; item < fixture.num_items; ++item) {
    ASSERT_TRUE(reader.value()->ReadItemList(item, &list).ok());
  }
  auto pairs = lists->MaterializedPairs();
  ASSERT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    ASSERT_TRUE(reader.value()->ReadPairList(a, b, &list).ok());
  }
  EXPECT_EQ(reader.value()->bytes_read(), kPinnedListBytesRead);
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
