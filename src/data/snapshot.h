#ifndef DEMON_DATA_SNAPSHOT_H_
#define DEMON_DATA_SNAPSHOT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/block.h"
#include "data/types.h"

namespace demon {

/// \brief The current database snapshot D[1, t]: an ordered sequence of
/// immutable blocks (paper §2.1). Blocks are appended with increasing ids
/// starting at 1; `Drop` removes the oldest blocks (used when modelling a
/// bounded store for the most-recent-window option).
///
/// Blocks are held by shared_ptr so that windows, TID-list stores, and
/// maintained models can retain the blocks they were built from without
/// copying the data. A monitor's transaction snapshot holds HistoryBlocks
/// (tidlist/history_block.h), which decide by reference count whether a
/// block's flat records outlive its TID-lists; `BlockT` needs `info()`
/// and `size()`, and `mutable_info()` only for Append(BlockT).
template <typename BlockT>
class Snapshot {
 public:
  using BlockPtr = std::shared_ptr<const BlockT>;

  Snapshot() = default;

  /// Appends a block; assigns and returns its id (1-based, increasing).
  BlockId Append(BlockT block) {
    auto ptr = std::make_shared<BlockT>(std::move(block));
    const BlockId id = next_id_++;
    ptr->mutable_info()->id = id;
    blocks_.push_back(std::move(ptr));
    return id;
  }

  /// Appends an already-shared block (its BlockInfo id is left untouched if
  /// already set to the next id, otherwise checked).
  BlockId Append(BlockPtr block) {
    DEMON_CHECK(block != nullptr);
    const BlockId id = next_id_++;
    DEMON_CHECK_MSG(block->info().id == id || block->info().id == kInvalidBlockId,
                    "appended block carries a conflicting id");
    blocks_.push_back(std::move(block));
    return id;
  }

  /// Number of blocks currently held (after drops this can be less than
  /// latest_id()).
  size_t NumBlocks() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Identifier of the most recently appended block (0 if none).
  BlockId latest_id() const { return next_id_ - 1; }

  /// Identifier of the oldest retained block (0 if none retained).
  BlockId oldest_id() const {
    return blocks_.empty() ? kInvalidBlockId
                           : static_cast<BlockId>(next_id_ - blocks_.size());
  }

  /// The block with identifier `id`. Requires oldest_id() <= id <= latest_id().
  const BlockPtr& block(BlockId id) const {
    DEMON_CHECK(id >= oldest_id() && id <= latest_id());
    return blocks_[id - oldest_id()];
  }

  /// All retained blocks in id order.
  const std::vector<BlockPtr>& blocks() const { return blocks_; }

  /// Drops the `count` oldest retained blocks.
  void Drop(size_t count) {
    DEMON_CHECK(count <= blocks_.size());
    blocks_.erase(blocks_.begin(), blocks_.begin() + count);
  }

  /// Blocks of the most recent window of size w: D[t-w+1, t] (or all blocks
  /// if fewer than w exist; paper §2.2 assumes t >= w but defines this case).
  std::vector<BlockPtr> MostRecentWindow(size_t w) const {
    const size_t n = blocks_.size();
    const size_t take = w < n ? w : n;
    return std::vector<BlockPtr>(blocks_.end() - take, blocks_.end());
  }

  /// Total number of records across retained blocks.
  size_t TotalRecords() const {
    size_t total = 0;
    for (const auto& b : blocks_) total += b->size();
    return total;
  }

 private:
  std::vector<BlockPtr> blocks_;
  BlockId next_id_ = 1;
};

using TransactionSnapshot = Snapshot<TransactionBlock>;
using PointSnapshot = Snapshot<PointBlock>;

}  // namespace demon

#endif  // DEMON_DATA_SNAPSHOT_H_
