#include "data/transaction_file.h"

#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kTransactionFileVersion = 1;
constexpr long kPayloadStart =
    static_cast<long>(persistence::FileHeader::kBytes) +
    static_cast<long>(sizeof(uint64_t));

}  // namespace

Status TransactionFile::Write(const TransactionBlock& block,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  persistence::FileHeader header;
  header.format_id =
      static_cast<uint32_t>(persistence::FormatId::kTransactionFile);
  header.version = kTransactionFileVersion;
  Status status = header.WriteTo(f);
  const uint64_t count = block.size();
  bool ok = status.ok() && std::fwrite(&count, sizeof(count), 1, f) == 1;
  for (const Transaction& t : block.transactions()) {
    if (!ok) break;
    const uint32_t length = static_cast<uint32_t>(t.size());
    ok = std::fwrite(&length, sizeof(length), 1, f) == 1 &&
         (length == 0 ||
          std::fwrite(t.items().data(), sizeof(Item), length, f) == length);
  }
  // The final buffered flush happens in fclose, so a full disk may only
  // surface here.
  const bool closed = std::fclose(f) == 0;
  if (!status.ok()) return status;
  if (!ok) return Status::IoError("short write: " + path);
  if (!closed) return Status::IoError("close failed: " + path);
  return Status::OK();
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

TransactionFileScanner::~TransactionFileScanner() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<TransactionFileScanner>> TransactionFileScanner::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  auto scanner = std::unique_ptr<TransactionFileScanner>(
      new TransactionFileScanner());
  scanner->file_ = f;
  auto header = persistence::FileHeader::ReadFrom(
      f, persistence::FormatId::kTransactionFile, kTransactionFileVersion,
      path);
  if (!header.ok()) return header.status();
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1) {
    return Status::DataLoss("transaction file truncated in header: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  scanner->file_bytes_ = std::ftell(f);
  std::fseek(f, kPayloadStart, SEEK_SET);
  scanner->num_transactions_ = count;
  scanner->position_ = 0;
  return scanner;
}

Status TransactionFileScanner::Rewind() {
  if (std::fseek(file_, kPayloadStart, SEEK_SET) != 0) {
    return Status::IoError("seek failed");
  }
  position_ = 0;
  return Status::OK();
}

Result<bool> TransactionFileScanner::Next(Transaction* out) {
  if (position_ >= num_transactions_) return false;
  uint32_t length = 0;
  if (std::fread(&length, sizeof(length), 1, file_) != 1) {
    return Status::DataLoss("transaction file truncated (length)");
  }
  // Reject lengths that cannot fit in the file before allocating: a corrupt
  // length field must not force a multi-gigabyte resize.
  if (static_cast<uint64_t>(length) * sizeof(Item) >
      static_cast<uint64_t>(file_bytes_)) {
    return Status::DataLoss("transaction length exceeds file size");
  }
  std::vector<Item> items(length);
  if (length > 0 &&
      std::fread(items.data(), sizeof(Item), length, file_) != length) {
    return Status::DataLoss("transaction file truncated (items)");
  }
  bytes_read_ += sizeof(length) + length * sizeof(Item);
  *out = Transaction(std::move(items));
  ++position_;
  return true;
}

}  // namespace demon
