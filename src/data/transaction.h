#ifndef DEMON_DATA_TRANSACTION_H_
#define DEMON_DATA_TRANSACTION_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "data/types.h"

namespace demon {

class Transaction;

/// \brief Read-only view of one record's items: a sorted, duplicate-free
/// run of item slots owned by someone else (a TransactionBlock's flat item
/// array, or a Transaction). Two pointers; copy it by value. The view is
/// valid while its owner is alive and unchanged.
class TransactionView {
 public:
  using value_type = Item;
  using const_iterator = const Item*;
  using iterator = const Item*;

  TransactionView() = default;
  TransactionView(const Item* begin, const Item* end)
      : begin_(begin), end_(end) {}
  // NOLINTNEXTLINE(google-explicit-constructor): a record views freely.
  TransactionView(const Transaction& transaction);

  const Item* begin() const { return begin_; }
  const Item* end() const { return end_; }
  const Item* data() const { return begin_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  Item back() const { return end_[-1]; }

  /// True if this record contains item `x` (binary search).
  bool Contains(Item x) const { return std::binary_search(begin_, end_, x); }

  /// True if this record contains every item of the sorted range
  /// [first, last) — i.e. the record supports that itemset.
  template <typename It>
  bool ContainsAll(It first, It last) const {
    const Item* pos = begin_;
    for (; first != last; ++first) {
      pos = std::lower_bound(pos, end_, *first);
      if (pos == end_ || *pos != *first) return false;
      ++pos;
    }
    return true;
  }

  friend bool operator==(TransactionView a, TransactionView b) {
    return std::equal(a.begin_, a.end_, b.begin_, b.end_);
  }

 private:
  const Item* begin_ = nullptr;
  const Item* end_ = nullptr;
};

/// Sorts [first, last) and drops duplicates; returns the new end. Every
/// record entering the system passes through this, whatever its source.
inline Item* NormalizeItems(Item* first, Item* last) {
  // Records usually arrive normalized; a strictly increasing run needs
  // neither the sort nor the unique pass.
  if (std::adjacent_find(first, last, [](Item a, Item b) {
        return a >= b;
      }) == last) {
    return last;
  }
  std::sort(first, last);
  return std::unique(first, last);
}

/// \brief A market-basket transaction that owns its items: a sorted,
/// duplicate-free set. Blocks store records flat (see TransactionBlock);
/// this owning form is for building records one at a time — generators,
/// the wire decoder, tests. The transaction's TID is implicit: a record
/// stored at offset `k` of a block with first TID `f` has TID `f + k`.
class Transaction {
 public:
  Transaction() = default;

  /// Takes ownership of `items`, sorting and deduplicating them.
  explicit Transaction(std::vector<Item> items) : items_(std::move(items)) {
    items_.resize(static_cast<size_t>(
        NormalizeItems(items_.data(), items_.data() + items_.size()) -
        items_.data()));
  }

  Transaction(std::initializer_list<Item> items)
      : Transaction(std::vector<Item>(items)) {}

  /// Copies a record out of a view (normalizing it like any other input).
  explicit Transaction(TransactionView view)
      : Transaction(std::vector<Item>(view.begin(), view.end())) {}

  const std::vector<Item>& items() const { return items_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// True if this transaction contains item `x` (binary search).
  bool Contains(Item x) const { return TransactionView(*this).Contains(x); }

  /// True if this transaction contains every item of the sorted range
  /// [first, last) — i.e. the transaction supports that itemset.
  template <typename It>
  bool ContainsAll(It first, It last) const {
    return TransactionView(*this).ContainsAll(first, last);
  }

  bool operator==(const Transaction& other) const {
    return items_ == other.items_;
  }

 private:
  std::vector<Item> items_;
};

inline TransactionView::TransactionView(const Transaction& transaction)
    : begin_(transaction.items().data()),
      end_(transaction.items().data() + transaction.items().size()) {}

}  // namespace demon

#endif  // DEMON_DATA_TRANSACTION_H_
