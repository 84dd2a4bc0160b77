#ifndef DEMON_DATA_TRANSACTION_FILE_H_
#define DEMON_DATA_TRANSACTION_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/block.h"
#include "persistence/serializer.h"

namespace demon {

/// \brief Sequential on-disk format for a transaction block: the layout a
/// full scan (PT-Scan) streams through. Together with TidListFile this
/// models the paper's storage choices — transactional format for scans,
/// TID-lists as the alternative representation (§3.1.1 argues the lists
/// can replace it outright).
class TransactionFile {
 public:
  /// Writes the block's transactions (items only; TIDs are implicit).
  [[nodiscard]] static Status Write(const TransactionBlock& block, const std::string& path);

  /// Reads the whole file back into a block with the given first TID.
  [[nodiscard]] static Result<TransactionBlock> Read(const std::string& path,
                                       Tid first_tid = 0);
};

/// \brief Streaming reader over a TransactionFile: visits each
/// transaction without materializing the block, tracking the bytes each
/// scan decodes. The file is read once, at Open.
class TransactionFileScanner {
 public:
  TransactionFileScanner(const TransactionFileScanner&) = delete;
  TransactionFileScanner& operator=(const TransactionFileScanner&) = delete;

  [[nodiscard]] static Result<std::unique_ptr<TransactionFileScanner>> Open(
      const std::string& path);

  /// Calls `fn(view)` with a TransactionView of every transaction, in
  /// file order; the view is valid until `fn` returns. May be called
  /// repeatedly (rewinds first).
  template <typename Fn>
  [[nodiscard]] Status Scan(Fn&& fn) {
    Rewind();
    TransactionView transaction;
    for (;;) {
      DEMON_ASSIGN_OR_RETURN(const bool more, Next(&transaction));
      if (!more) break;
      fn(transaction);
    }
    return Status::OK();
  }

  size_t num_transactions() const { return num_transactions_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  TransactionFileScanner() = default;

  void Rewind();
  /// Decodes the next transaction into `record_` (normalized) and views
  /// it; false when the file is exhausted.
  [[nodiscard]] Result<bool> Next(TransactionView* out);

  std::string bytes_;
  /// The record being visited, reused across records.
  std::vector<Item> record_;
  /// Positioned at the next transaction of the current scan.
  persistence::Reader reader_{nullptr, 0};
  size_t num_transactions_ = 0;
  size_t position_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace demon

#endif  // DEMON_DATA_TRANSACTION_FILE_H_
