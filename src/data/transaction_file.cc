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
  for (const TransactionView t : block) {
    w.WriteU32(static_cast<uint32_t>(t.size()));
    w.AppendRaw(t.data(), t.size() * sizeof(Item));
  }
  return persistence::WriteFile(path, {w.buffer()});
}

Result<TransactionBlock> TransactionFile::Read(const std::string& path,
                                               Tid first_tid) {
  DEMON_ASSIGN_OR_RETURN(auto scanner, TransactionFileScanner::Open(path));
  // Open bounded the record count by the file's size.
  std::vector<uint32_t> ends;
  ends.reserve(scanner->num_transactions());
  std::vector<Item> items;
  bool too_large = false;
  DEMON_RETURN_NOT_OK(scanner->Scan([&](TransactionView t) {
    if (too_large ||
        items.size() + t.size() > TransactionBlock::kMaxItemSlots) {
      too_large = true;
      return;
    }
    items.insert(items.end(), t.begin(), t.end());
    ends.push_back(static_cast<uint32_t>(items.size()));
  }));
  if (too_large) {
    return Status::DataLoss(path + ": transaction block exceeds 32-bit " +
                            "record offsets");
  }
  return TransactionBlock(std::move(items), std::move(ends), first_tid);
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

Result<bool> TransactionFileScanner::Next(TransactionView* out) {
  if (position_ >= num_transactions_) return false;
  const uint32_t length = reader_.ReadU32();
  // ReadBytes checks the length against the bytes left before anything
  // is sized by it.
  const std::string_view items_bytes =
      reader_.ReadBytes(static_cast<size_t>(length) * sizeof(Item));
  DEMON_RETURN_NOT_OK(reader_.status());
  record_.resize(length);
  if (length > 0) {
    std::memcpy(record_.data(), items_bytes.data(), items_bytes.size());
  }
  bytes_read_ += sizeof(length) + items_bytes.size();
  Item* const first = record_.data();
  *out = TransactionView(first, NormalizeItems(first, first + length));
  ++position_;
  return true;
}

}  // namespace demon
