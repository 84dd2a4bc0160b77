#include "core/block_ops.h"

#include <algorithm>

#include "common/check.h"

namespace demon {

TransactionBlock MergeBlocks(
    const std::vector<const TransactionBlock*>& blocks) {
  DEMON_CHECK(!blocks.empty());
  // Concatenate the flat arrays, shifting each block's record ends by the
  // item slots before it.
  size_t records = 0;
  size_t slots = 0;
  for (const TransactionBlock* block : blocks) {
    records += block->size();
    slots += block->TotalItemOccurrences();
  }
  DEMON_CHECK_MSG(slots <= TransactionBlock::kMaxItemSlots,
                  "merged block too large for 32-bit record offsets");
  std::vector<Item> items;
  items.reserve(slots);
  std::vector<uint32_t> ends;
  ends.reserve(records);
  int64_t start_time = blocks.front()->info().start_time;
  int64_t end_time = blocks.front()->info().end_time;
  for (const TransactionBlock* block : blocks) {
    const uint32_t shift = static_cast<uint32_t>(items.size());
    items.insert(items.end(), block->items().begin(), block->items().end());
    for (const uint32_t end : block->ends()) ends.push_back(shift + end);
    start_time = std::min(start_time, block->info().start_time);
    end_time = std::max(end_time, block->info().end_time);
  }
  TransactionBlock merged(std::move(items), std::move(ends),
                          blocks.front()->first_tid());
  merged.mutable_info()->start_time = start_time;
  merged.mutable_info()->end_time = end_time;
  merged.mutable_info()->label = blocks.front()->info().label +
                                 (blocks.size() > 1 ? " .. " : "") +
                                 (blocks.size() > 1
                                      ? blocks.back()->info().label
                                      : "");
  return merged;
}

std::vector<TransactionBlock> CoarsenBlocks(
    const std::vector<TransactionBlock>& blocks, size_t factor) {
  DEMON_CHECK(factor >= 1);
  std::vector<TransactionBlock> merged;
  for (size_t begin = 0; begin < blocks.size(); begin += factor) {
    const size_t end = std::min(begin + factor, blocks.size());
    std::vector<const TransactionBlock*> group;
    for (size_t i = begin; i < end; ++i) group.push_back(&blocks[i]);
    merged.push_back(MergeBlocks(group));
  }
  return merged;
}

}  // namespace demon
