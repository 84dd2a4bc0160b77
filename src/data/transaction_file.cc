#include "data/transaction_file.h"

#include <cstring>

#include "persistence/file.h"
#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kTransactionFileVersion = 1;
constexpr size_t kPayloadStart =
    persistence::FileHeader::kBytes + sizeof(uint64_t);

}  // namespace

Status TransactionFile::Write(const TransactionBlock& block,
                              const std::string& path) {
  persistence::Writer w;
  persistence::FileHeader::Append(w, persistence::FormatId::kTransactionFile,
                                  kTransactionFileVersion);
  w.WriteU64(block.size());
  for (const Transaction& t : block.transactions()) {
    w.WriteU32(static_cast<uint32_t>(t.size()));
    w.AppendRaw(t.items().data(), t.size() * sizeof(Item));
  }
  return persistence::WriteFile(path, {w.buffer()});
}

Result<TransactionBlock> TransactionFile::Read(const std::string& path,
                                               Tid first_tid) {
  DEMON_ASSIGN_OR_RETURN(auto scanner, TransactionFileScanner::Open(path));
  std::vector<Transaction> transactions;
  transactions.reserve(scanner->num_transactions());
  DEMON_RETURN_NOT_OK(scanner->Scan(
      [&transactions](const Transaction& t) { transactions.push_back(t); }));
  return TransactionBlock(std::move(transactions), first_tid);
}

Result<std::unique_ptr<TransactionFileScanner>> TransactionFileScanner::Open(
    const std::string& path) {
  auto scanner = std::unique_ptr<TransactionFileScanner>(
      new TransactionFileScanner());
  DEMON_ASSIGN_OR_RETURN(scanner->bytes_, persistence::ReadFile(path));
  persistence::Reader r(scanner->bytes_);
  DEMON_RETURN_NOT_OK(
      persistence::FileHeader::Consume(
          r, persistence::FormatId::kTransactionFile, kTransactionFileVersion,
          path)
          .status());
  // Every transaction takes at least its u32 length, so a count the
  // remaining bytes cannot hold is corrupt — rejected before anyone
  // reserves room for it.
  scanner->num_transactions_ = r.ReadLength(sizeof(uint32_t));
  DEMON_RETURN_NOT_OK(r.status());
  return scanner;
}

void TransactionFileScanner::Rewind() {
  reader_ = persistence::Reader(bytes_.data() + kPayloadStart,
                                bytes_.size() - kPayloadStart);
  position_ = 0;
}

Result<bool> TransactionFileScanner::Next(Transaction* out) {
  if (position_ >= num_transactions_) return false;
  const uint32_t length = reader_.ReadU32();
  const std::string_view items_bytes =
      reader_.ReadBytes(static_cast<size_t>(length) * sizeof(Item));
  DEMON_RETURN_NOT_OK(reader_.status());
  std::vector<Item> items(length);
  if (length > 0) {
    std::memcpy(items.data(), items_bytes.data(), items_bytes.size());
  }
  bytes_read_ += sizeof(length) + items_bytes.size();
  *out = Transaction(std::move(items));
  ++position_;
  return true;
}

}  // namespace demon
