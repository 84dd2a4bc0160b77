#ifndef DEMON_DATA_BLOCK_H_
#define DEMON_DATA_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/point.h"
#include "data/transaction.h"
#include "data/types.h"

namespace demon {

/// \brief Descriptive metadata attached to a block: its position in the
/// evolving database plus the (application-level) time interval it spans.
/// The trace experiments (paper §5.3) label blocks with wall-clock windows
/// like "[8AM-12PM] Mon 9-9-1996"; other workloads leave times at zero.
struct BlockInfo {
  BlockId id = kInvalidBlockId;
  /// Inclusive start / exclusive end of the time interval covered, in
  /// seconds since an application-defined epoch.
  int64_t start_time = 0;
  int64_t end_time = 0;
  /// Free-form label used in experiment output (e.g. "Mon 12:00-18:00").
  std::string label;
};

/// \brief A block of market-basket transactions — the unit of systematic
/// evolution (paper §2.1). Immutable once constructed.
///
/// Stored flat, the way §3.1.1 counts a block in item slots: every item
/// of every record in one array, plus one end offset per record. Record k
/// occupies `items()[ends()[k-1] .. ends()[k])` (from 0 for k = 0) and is
/// read through a TransactionView. A block thus costs two allocations,
/// both sized exactly, whatever its record count. Every constructor
/// normalizes each record (sorted, duplicate-free), so readers may rely on
/// it even for blocks decoded from untrusted bytes.
///
/// TIDs are implicit and globally increasing: the k-th transaction has TID
/// `first_tid() + k`. This keeps per-block TID-lists sorted and lets the
/// additivity property of §3.1.1 hold by construction.
class TransactionBlock {
 public:
  /// Visits the records in order, yielding one TransactionView each.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TransactionView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TransactionView;

    TransactionView operator*() const {
      return TransactionView(items_ + begin_, items_ + *end_);
    }
    const_iterator& operator++() {
      begin_ = *end_;
      ++end_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return end_ == other.end_;
    }
    bool operator!=(const const_iterator& other) const {
      return end_ != other.end_;
    }

   private:
    friend class TransactionBlock;
    const_iterator(const Item* items, const uint32_t* end, uint32_t begin)
        : items_(items), end_(end), begin_(begin) {}

    const Item* items_;
    /// End offset of the record this iterator points at.
    const uint32_t* end_;
    /// Start offset of that record (the previous record's end).
    uint32_t begin_;
  };

  TransactionBlock() = default;

  /// Flattens already-normalized records.
  TransactionBlock(const std::vector<Transaction>& transactions,
                   Tid first_tid)
      : first_tid_(first_tid) {
    size_t total = 0;
    for (const Transaction& t : transactions) total += t.size();
    CheckFits(total);
    items_.reserve(total);
    ends_.reserve(transactions.size());
    for (const Transaction& t : transactions) {
      items_.insert(items_.end(), t.items().begin(), t.items().end());
      ends_.push_back(static_cast<uint32_t>(items_.size()));
    }
  }

  /// Takes the flat form directly: `ends` holds each record's end offset
  /// into `items`, non-decreasing, the last equal to `items.size()`. Each
  /// record is normalized in place and both arrays are trimmed to size.
  TransactionBlock(std::vector<Item> items, std::vector<uint32_t> ends,
                   Tid first_tid)
      : items_(std::move(items)), ends_(std::move(ends)),
        first_tid_(first_tid) {
    CheckFits(items_.size());
    DEMON_CHECK(ends_.empty() ? items_.empty()
                              : ends_.back() == items_.size());
    Item* const base = items_.data();
    uint32_t begin = 0;
    uint32_t write = 0;
    for (uint32_t& end : ends_) {
      DEMON_CHECK(begin <= end);
      const Item* last = NormalizeItems(base + begin, base + end);
      const uint32_t kept = static_cast<uint32_t>(last - (base + begin));
      if (write != begin) std::copy(base + begin, base + begin + kept,
                                    base + write);
      begin = end;
      write += kept;
      end = write;
    }
    items_.resize(write);
    items_.shrink_to_fit();
    ends_.shrink_to_fit();
  }

  /// Materializes every record as an owning Transaction — a copy of the
  /// whole block, one allocation per record. For tests and for callers
  /// outside the library that want the records as values; code in the
  /// library reads records through views (begin()/end(), operator[]).
  std::vector<Transaction> transactions() const {
    return std::vector<Transaction>(begin(), end());
  }

  const_iterator begin() const {
    return const_iterator(items_.data(), ends_.data(), 0);
  }
  const_iterator end() const {
    return const_iterator(items_.data(), ends_.data() + ends_.size(), 0);
  }

  /// The k-th record.
  TransactionView operator[](size_t k) const {
    const Item* const base = items_.data();
    return TransactionView(base + (k == 0 ? 0 : ends_[k - 1]),
                           base + ends_[k]);
  }

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Every item slot of the block, record after record.
  const std::vector<Item>& items() const { return items_; }
  /// Each record's end offset into items().
  const std::vector<uint32_t>& ends() const { return ends_; }

  Tid first_tid() const { return first_tid_; }
  /// TID of the k-th transaction in this block.
  Tid TidAt(size_t k) const {
    DEMON_CHECK(k < ends_.size());
    return first_tid_ + k;
  }

  const BlockInfo& info() const { return info_; }
  BlockInfo* mutable_info() { return &info_; }

  /// Total number of item occurrences, i.e. the size of the block stored in
  /// transactional format (unit: item slots). The TID-list representation
  /// of the block occupies exactly the same number of slots (paper §3.1.1).
  size_t TotalItemOccurrences() const { return items_.size(); }

  /// Same first TID and the same records in the same order; the
  /// descriptive BlockInfo is not compared.
  bool operator==(const TransactionBlock& other) const {
    return first_tid_ == other.first_tid_ && ends_ == other.ends_ &&
           items_ == other.items_;
  }

  /// Largest item-slot count a block can hold (offsets are 32-bit).
  static constexpr size_t kMaxItemSlots = UINT32_MAX;

 private:
  static void CheckFits(size_t slots) {
    DEMON_CHECK_MSG(slots <= kMaxItemSlots,
                    "block too large for 32-bit record offsets");
  }

  std::vector<Item> items_;
  std::vector<uint32_t> ends_;
  Tid first_tid_ = 0;
  BlockInfo info_;
};

/// \brief A block of d-dimensional points for the clustering experiments.
/// Points are stored row-major in a flat array. Immutable once constructed.
class PointBlock {
 public:
  PointBlock() = default;

  PointBlock(std::vector<double> coords, size_t dim)
      : coords_(std::move(coords)), dim_(dim) {
    DEMON_CHECK(dim_ > 0);
    DEMON_CHECK(coords_.size() % dim_ == 0);
  }

  /// Builds a block from individual points (all must share `dim`).
  static PointBlock FromPoints(const std::vector<Point>& points, size_t dim) {
    std::vector<double> coords;
    coords.reserve(points.size() * dim);
    for (const Point& p : points) {
      DEMON_CHECK(p.size() == dim);
      coords.insert(coords.end(), p.begin(), p.end());
    }
    return PointBlock(std::move(coords), dim);
  }

  size_t size() const { return dim_ == 0 ? 0 : coords_.size() / dim_; }
  bool empty() const { return coords_.empty(); }
  size_t dim() const { return dim_; }

  /// Pointer to the coordinates of the k-th point (dim() doubles).
  const double* PointAt(size_t k) const {
    DEMON_CHECK(k < size());
    return coords_.data() + k * dim_;
  }

  const std::vector<double>& coords() const { return coords_; }

  const BlockInfo& info() const { return info_; }
  BlockInfo* mutable_info() { return &info_; }

 private:
  std::vector<double> coords_;
  size_t dim_ = 0;
  BlockInfo info_;
};

}  // namespace demon

#endif  // DEMON_DATA_BLOCK_H_
