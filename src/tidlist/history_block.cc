#include "tidlist/history_block.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "persistence/block_codec.h"
#include "tidlist/tidlist_codec.h"

namespace demon {

HistoryBlock::HistoryBlock(std::shared_ptr<const TransactionBlock> block) {
  DEMON_CHECK(block != nullptr);
  info_ = block->info();
  first_tid_ = block->first_tid();
  size_ = block->size();
  block_ = std::move(block);
}

std::shared_ptr<const BlockTidLists> HistoryBlock::ItemLists(
    size_t num_items, const std::shared_ptr<ExtentPager>& pager,
    [[maybe_unused]] telemetry::Counter* builds) const {
  std::shared_ptr<const TransactionBlock> block;
  {
    MutexLock lock(mutex_);
    while (building_) built_.Wait(mutex_);
    if (items_ != nullptr) {
      DEMON_CHECK_MSG(items_->num_items() == num_items,
                      "a block's item lists were asked for two universes");
      return items_;
    }
    // This caller builds. Its own reference keeps the records alive
    // through the build, whoever else lets go meanwhile.
    building_ = true;
    block = block_;
  }
  DEMON_CHECK(block != nullptr);
  std::shared_ptr<const BlockTidLists> lists =
      BlockTidLists::Build(*block, num_items);
  // The pager is decided before the lists are published: a pager bound
  // later would race the readers that already use them unmanaged.
  lists->AttachPager(pager);
  DEMON_COUNTER_ADD(builds, 1);
  MutexLock lock(mutex_);
  items_ = lists;
  building_ = false;
  weak_block_ = block_;
  block_.reset();
  built_.NotifyAll();
  return lists;
}

std::shared_ptr<const BlockTidLists> HistoryBlock::item_lists() const {
  MutexLock lock(mutex_);
  return items_;
}

std::shared_ptr<const TransactionBlock> HistoryBlock::LiveTransactions()
    const {
  MutexLock lock(mutex_);
  return block_ != nullptr ? block_ : weak_block_.lock();
}

std::shared_ptr<const TransactionBlock> HistoryBlock::Transactions() const {
  std::shared_ptr<const TransactionBlock> live = LiveTransactions();
  if (live != nullptr) return live;
  std::vector<Item> items;
  std::vector<uint32_t> ends;
  TransposeInto(&items, &ends);
  auto block = std::make_shared<TransactionBlock>(std::move(items),
                                                  std::move(ends), first_tid_);
  *block->mutable_info() = info_;
  return block;
}

void HistoryBlock::TransposeInto(std::vector<Item>* items,
                                 std::vector<uint32_t>* ends) const {
  // The strong reference is only dropped after the lists are published.
  const std::shared_ptr<const BlockTidLists> lists = item_lists();
  DEMON_CHECK_MSG(lists != nullptr,
                  "a history block lost both of its forms");
  const size_t num_items = lists->num_items();
  // Every list decoded once, back to back — item i's TIDs are
  // tids[bounds[i] .. bounds[i + 1]) — while counting each record's
  // length into ends[k + 1]. The prefix sum then leaves each record's
  // start at ends[k], and placing every item advances ends[k] to the
  // record's end. Items are placed in increasing order, so each record
  // comes out sorted and duplicate-free.
  std::vector<uint32_t> tids;
  std::vector<size_t> bounds(num_items + 1, 0);
  ends->assign(size_ + 1, 0);
  uint32_t* const lengths = ends->data() + 1;
  {
    const TidListLease lease = lists->Lease();
    tids.reserve(lists->item_list_slots());
    TidList list;
    for (Item item = 0; item < num_items; ++item) {
      MaterializeInto(lists->ItemView(item), &list);
      for (const uint32_t tid : list) ++lengths[tid];
      tids.insert(tids.end(), list.begin(), list.end());
      bounds[item + 1] = tids.size();
    }
  }
  uint32_t* const cursor = ends->data();
  for (size_t k = 1; k <= size_; ++k) cursor[k] += cursor[k - 1];
  items->resize(tids.size());
  Item* const out = items->data();
  for (Item item = 0; item < num_items; ++item) {
    for (size_t j = bounds[item]; j < bounds[item + 1]; ++j) {
      out[cursor[tids[j]]++] = item;
    }
  }
  ends->pop_back();
}

void HistoryBlock::AuditInto(audit::AuditResult* audit) const {
  const std::shared_ptr<const TransactionBlock> live = LiveTransactions();
  const std::shared_ptr<const BlockTidLists> lists = item_lists();
  AUDIT_CHECK(audit, "history", "history/one-form",
              live != nullptr || lists != nullptr,
              audit::Msg() << "block " << info_.id
                           << " holds neither its flat records nor its "
                              "item lists",
              "");
  if (live != nullptr) {
    AUDIT_CHECK(audit, "history", "history/one-form", live->size() == size_,
                audit::Msg() << "block " << info_.id << " has " << size_
                             << " records but its flat block holds "
                             << live->size(),
                "");
  }
  if (lists != nullptr) {
    AUDIT_CHECK(audit, "history", "history/one-form",
                lists->num_transactions() == size_,
                audit::Msg() << "block " << info_.id << " has " << size_
                             << " records but its item lists cover "
                             << lists->num_transactions(),
                "");
  }
}

namespace persistence {

void WriteBlock(Writer& w, const HistoryBlock& block) {
  if (const auto live = block.LiveTransactions()) {
    WriteBlock(w, *live);
    return;
  }
  std::vector<Item> items;
  std::vector<uint32_t> ends;
  block.TransposeInto(&items, &ends);
  WriteTransactionBlock(w, block.info(), block.first_tid(), items, ends);
}

}  // namespace persistence

}  // namespace demon
