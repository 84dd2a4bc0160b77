#ifndef DEMON_PERSISTENCE_BLOCK_CODEC_H_
#define DEMON_PERSISTENCE_BLOCK_CODEC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/block.h"
#include "data/snapshot.h"
#include "data/types.h"
#include "dtree/labeled_block.h"
#include "persistence/serializer.h"

namespace demon {
class HistoryBlock;
}  // namespace demon

namespace demon::persistence {

/// \brief Resolver handed to `ModelMaintainer::LoadState` (via the Reader)
/// so maintainers can re-acquire shared pointers to the immutable blocks
/// they referenced at save time instead of duplicating block data inside
/// their own state. The checkpoint loader points these at the restored
/// snapshots; transaction blocks resolve to the monitor's shared history
/// blocks, so restored maintainers share item lists as live ones do.
struct BlockSource {
  std::function<Result<std::shared_ptr<const HistoryBlock>>(BlockId)>
      transactions;
  std::function<Result<std::shared_ptr<const PointBlock>>(BlockId)> points;
  std::function<Result<std::shared_ptr<const LabeledBlock>>(BlockId)> labeled;
};

void WriteBlockInfo(Writer& w, const BlockInfo& info);
BlockInfo ReadBlockInfo(Reader& r);

void WriteLabeledSchema(Writer& w, const LabeledSchema& schema);
LabeledSchema ReadLabeledSchema(Reader& r);

// One overload set per payload kind so the Snapshot templates below work
// uniformly. Readers validate structure before constructing (the block
// constructors DEMON_CHECK their invariants; corrupt input must latch a
// DataLoss on the Reader instead of aborting the process).
void WriteBlock(Writer& w, const TransactionBlock& block);
/// The bytes WriteBlock writes for the block whose flat parts (see
/// TransactionBlock) these are — for writers holding records as arrays.
void WriteTransactionBlock(Writer& w, const BlockInfo& info, Tid first_tid,
                           const std::vector<Item>& items,
                           const std::vector<uint32_t>& ends);
void WriteBlock(Writer& w, const PointBlock& block);
void WriteBlock(Writer& w, const LabeledBlock& block);
void ReadBlockInto(Reader& r, TransactionBlock* block);
void ReadBlockInto(Reader& r, PointBlock* block);
void ReadBlockInto(Reader& r, LabeledBlock* block);

/// Serializes a snapshot: latest id, then the retained blocks in id order.
/// A monitor's TransactionHistory is written through the WriteBlock of
/// tidlist/history_block.h, in the same bytes as its flat blocks.
template <typename BlockT>
void WriteSnapshot(Writer& w, const Snapshot<BlockT>& snapshot) {
  w.WriteU64(snapshot.latest_id());
  w.WriteU64(snapshot.NumBlocks());
  for (const auto& block : snapshot.blocks()) WriteBlock(w, *block);
}

/// Rebuilds a snapshot in place; `snapshot` must be freshly constructed.
/// Checkpoints never contain dropped blocks (DemonMonitor retains the full
/// snapshot), so block count must equal the latest id and ids must be the
/// consecutive sequence 1..n.
template <typename BlockT>
void ReadSnapshotInto(Reader& r, Snapshot<BlockT>* snapshot) {
  const uint64_t latest = r.ReadU64();
  const uint64_t count = r.ReadU64();
  if (!r.ok()) return;
  if (count != latest) {
    r.Fail("snapshot holds " + std::to_string(count) +
           " blocks but its latest id is " + std::to_string(latest));
    return;
  }
  for (uint64_t i = 1; i <= count; ++i) {
    BlockT block;
    ReadBlockInto(r, &block);
    if (!r.ok()) return;
    if (block.info().id != static_cast<BlockId>(i)) {
      r.Fail("snapshot block at position " + std::to_string(i) +
             " carries id " + std::to_string(block.info().id));
      return;
    }
    snapshot->Append(std::make_shared<const BlockT>(std::move(block)));
  }
}

}  // namespace demon::persistence

#endif  // DEMON_PERSISTENCE_BLOCK_CODEC_H_
