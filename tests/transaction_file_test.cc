#include "data/transaction_file.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "persistence/file.h"
#include "persistence/file_header.h"

namespace demon {
namespace {

TransactionBlock SampleBlock() {
  std::vector<Transaction> transactions;
  transactions.emplace_back(std::vector<Item>{1, 5, 9});
  transactions.emplace_back(std::vector<Item>{});
  transactions.emplace_back(std::vector<Item>{2});
  transactions.emplace_back(std::vector<Item>{0, 3, 4, 7});
  return TransactionBlock(std::move(transactions), /*first_tid=*/100);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes a file holding a DEMON header and nothing else.
Status WriteHeaderOnly(const std::string& path, persistence::FormatId format,
                       uint32_t version) {
  persistence::Writer w;
  persistence::FileHeader::Append(w, format, version);
  return persistence::WriteFile(path, {w.buffer()});
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(TransactionFileTest, RoundTripPreservesTransactions) {
  const TransactionBlock block = SampleBlock();
  const std::string path = TempPath("tx_roundtrip.bin");
  ASSERT_TRUE(TransactionFile::Write(block, path).ok());

  auto reread = TransactionFile::Read(path, /*first_tid=*/100);
  ASSERT_TRUE(reread.ok()) << reread.status();
  const TransactionBlock& loaded = reread.value();
  ASSERT_EQ(loaded.size(), block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(loaded.transactions()[i].items(),
              block.transactions()[i].items());
  }
  std::remove(path.c_str());
}

TEST(TransactionFileTest, MissingFileIsIoError) {
  auto result = TransactionFile::Read("/nonexistent/dir/tx.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(TransactionFileTest, BadMagicIsRejected) {
  const std::string path = TempPath("tx_bad_magic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "definitely not a block";
  ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
  std::fclose(f);

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, TruncatedHeaderIsRejected) {
  const std::string path = TempPath("tx_short_header.bin");
  const TransactionBlock block = SampleBlock();
  ASSERT_TRUE(TransactionFile::Write(block, path).ok());
  // Keep only the magic: the rest of the file header is gone.
  ASSERT_EQ(truncate(path.c_str(), sizeof(uint64_t)), 0);

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, WrongFormatIdIsRejected) {
  // A valid DEMON file of a different format must be refused up front, not
  // misparsed: a serialized itemset-model header is not a transaction file.
  const std::string path = TempPath("tx_wrong_format.bin");
  ASSERT_TRUE(WriteHeaderOnly(path, persistence::FormatId::kItemsetModel, 1)
                  .ok());

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, FutureVersionIsRejected) {
  const std::string path = TempPath("tx_future_version.bin");
  ASSERT_TRUE(
      WriteHeaderOnly(path, persistence::FormatId::kTransactionFile, 999)
          .ok());

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, TruncatedPayloadIsDataLoss) {
  const std::string path = TempPath("tx_truncated.bin");
  const TransactionBlock block = SampleBlock();
  ASSERT_TRUE(TransactionFile::Write(block, path).ok());
  const long full = FileSize(path);
  // Chop the tail off the last transaction: the declared count still says
  // four transactions, so the scan must fail with a short read.
  ASSERT_EQ(truncate(path.c_str(), full - static_cast<long>(sizeof(Item))),
            0);

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, HostileCountIsDataLoss) {
  // A valid header, then a count of 2^40 transactions in a 32-byte file:
  // the reader must refuse it before reserving room for that many.
  const std::string path = TempPath("tx_hostile_count.bin");
  persistence::Writer w;
  persistence::FileHeader::Append(w, persistence::FormatId::kTransactionFile,
                                  1);
  w.WriteU64(uint64_t{1} << 40);
  ASSERT_EQ(w.size(), 32u);
  ASSERT_TRUE(persistence::WriteFile(path, {w.buffer()}).ok());

  auto result = TransactionFile::Read(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(TransactionFileScanner::Open(path).status().code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, UnsortedRecordsReadNormalizedAndLengthLieIsDataLoss) {
  // Hand-framed file: a record out of order with a duplicate, then an
  // empty one. Read and Scan both yield the normalized records.
  const std::string path = TempPath("tx_unsorted.bin");
  persistence::Writer w;
  persistence::FileHeader::Append(w, persistence::FormatId::kTransactionFile,
                                  1);
  w.WriteU64(2);
  w.WriteU32(3);
  for (const Item item : {7u, 1u, 7u}) w.WriteU32(item);
  w.WriteU32(0);
  ASSERT_TRUE(persistence::WriteFile(path, {w.buffer()}).ok());
  auto read = TransactionFile::Read(path, 3);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(),
            TransactionBlock({Transaction({1, 7}), Transaction()}, 3));
  auto scanner = TransactionFileScanner::Open(path);
  ASSERT_TRUE(scanner.ok()) << scanner.status();
  std::vector<Transaction> scanned;
  ASSERT_TRUE(scanner.value()
                  ->Scan([&scanned](TransactionView t) {
                    scanned.emplace_back(t);
                  })
                  .ok());
  EXPECT_EQ(scanned, read.value().transactions());

  // A record claiming 2^32 - 1 items in a file holding one more u32:
  // DataLoss from both readers, with nothing sized by the claim.
  persistence::Writer lie;
  persistence::FileHeader::Append(
      lie, persistence::FormatId::kTransactionFile, 1);
  lie.WriteU64(1);
  lie.WriteU32(UINT32_MAX);
  lie.WriteU32(4);
  ASSERT_TRUE(persistence::WriteFile(path, {lie.buffer()}).ok());
  EXPECT_EQ(TransactionFile::Read(path).status().code(),
            StatusCode::kDataLoss);
  auto lying = TransactionFileScanner::Open(path);
  ASSERT_TRUE(lying.ok()) << lying.status();
  EXPECT_EQ(lying.value()->Scan([](TransactionView) {}).code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TransactionFileTest, FullDiskIsIoError) {
  // Every write to /dev/full fails with ENOSPC, which the write itself
  // reports.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Status status = TransactionFile::Write(SampleBlock(), "/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
}

TEST(TransactionFileTest, ScannerReportsCountAndBytes) {
  const TransactionBlock block = SampleBlock();
  const std::string path = TempPath("tx_scan.bin");
  ASSERT_TRUE(TransactionFile::Write(block, path).ok());

  auto scanner = TransactionFileScanner::Open(path);
  ASSERT_TRUE(scanner.ok()) << scanner.status();
  size_t visited = 0;
  ASSERT_TRUE(
      scanner.value()->Scan([&visited](TransactionView) { ++visited; })
          .ok());
  EXPECT_EQ(visited, block.size());
  EXPECT_EQ(scanner.value()->num_transactions(), block.size());
  EXPECT_GT(scanner.value()->bytes_read(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace demon
