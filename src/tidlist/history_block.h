#ifndef DEMON_TIDLIST_HISTORY_BLOCK_H_
#define DEMON_TIDLIST_HISTORY_BLOCK_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/audit.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "data/block.h"
#include "data/snapshot.h"
#include "data/types.h"
#include "persistence/serializer.h"
#include "tidlist/extent_pager.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// \brief One block of the transaction history, shared by everything that
/// reads it: the monitor's snapshot, every BORDERS maintainer and GEMM
/// window model, the pattern miner and checkpoints. It holds the block's
/// descriptive fields, its first TID and record count, and up to two
/// forms of its records (paper §3.1.1, where a block's TID-lists replace
/// its transactional format):
///
///  * the item TID-list extent, built by the first ECUT/ECUT+ consumer
///    that asks for it (ItemLists) — once, however many ask concurrently —
///    and shared by all of them;
///  * the flat TransactionBlock. The history block holds it strongly
///    until the item lists exist, and only weakly after that: the flat
///    block then lives exactly as long as some consumer that reads
///    records keeps its own reference — a PT-Scan maintainer, the pattern
///    miner, AuM's window, or the engine while the block is in flight.
///
/// Transactions() returns the flat block while it lives and otherwise
/// rebuilds it by transposing the item lists, O(slots), without keeping
/// the result; the records come out normalized and identical, so readers
/// of a dropped block (checkpoints, deletions, audits) cannot tell.
class HistoryBlock {
 public:
  /// Wraps `block`, whose BlockInfo (id included) the history block keeps.
  explicit HistoryBlock(std::shared_ptr<const TransactionBlock> block);

  HistoryBlock(const HistoryBlock&) = delete;
  HistoryBlock& operator=(const HistoryBlock&) = delete;

  const BlockInfo& info() const { return info_; }
  Tid first_tid() const { return first_tid_; }
  /// Number of records.
  size_t size() const { return size_; }

  /// The block's item TID-lists over the universe [0, num_items). The
  /// first call builds them from the flat block, attaches `pager` (null:
  /// unbounded) before any other caller can see them, adds one to
  /// `builds` (nullable) and drops the history block's strong reference
  /// to the flat block; concurrent callers wait for that build, later
  /// ones share it. Every call must name the same universe.
  std::shared_ptr<const BlockTidLists> ItemLists(
      size_t num_items, const std::shared_ptr<ExtentPager>& pager,
      telemetry::Counter* builds) const DEMON_EXCLUDES(mutex_);

  /// The item lists once built; null before.
  std::shared_ptr<const BlockTidLists> item_lists() const
      DEMON_EXCLUDES(mutex_);

  /// The records: the flat block while any consumer holds it, else a
  /// fresh transposition of the item lists (not retained).
  std::shared_ptr<const TransactionBlock> Transactions() const
      DEMON_EXCLUDES(mutex_);

  /// The flat block while any consumer holds it; null once it has been
  /// dropped. Never transposes.
  std::shared_ptr<const TransactionBlock> LiveTransactions() const
      DEMON_EXCLUDES(mutex_);

  /// Rebuilds the records from the item lists, as a TransactionBlock
  /// holds them: every item in `*items`, each record's end offset in
  /// `*ends` — O(slots), faulting a spilled extent in under a lease.
  /// Requires the item lists.
  void TransposeInto(std::vector<Item>* items,
                     std::vector<uint32_t>* ends) const;

  /// `history/one-form`: the entry holds a live flat block or item lists
  /// (or both), and each covers exactly size() records.
  void AuditInto(audit::AuditResult* audit) const;

 private:
  BlockInfo info_;
  Tid first_tid_ = 0;
  size_t size_ = 0;

  mutable Mutex mutex_;
  /// Signalled when the item lists are published.
  mutable CondVar built_;
  /// True while one caller builds the item lists (outside the lock).
  mutable bool building_ DEMON_GUARDED_BY(mutex_) = false;
  /// Set once, when the build publishes them; never changed after.
  mutable std::shared_ptr<const BlockTidLists> items_
      DEMON_GUARDED_BY(mutex_);
  /// The flat block, held strongly until the item lists are built, then
  /// only through weak_block_.
  mutable std::shared_ptr<const TransactionBlock> block_
      DEMON_GUARDED_BY(mutex_);
  mutable std::weak_ptr<const TransactionBlock> weak_block_
      DEMON_GUARDED_BY(mutex_);
};

/// A monitor's transaction history: the database snapshot D[1, t] as
/// shared history blocks.
using TransactionHistory = Snapshot<HistoryBlock>;

namespace persistence {

/// Writes a history block exactly as WriteBlock writes its transactional
/// form, transposing the item lists straight into `w` when the flat block
/// has been dropped — one block at a time, so a checkpoint never holds a
/// whole history.
void WriteBlock(Writer& w, const HistoryBlock& block);

}  // namespace persistence

}  // namespace demon

#endif  // DEMON_TIDLIST_HISTORY_BLOCK_H_
