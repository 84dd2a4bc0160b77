#ifndef DEMON_ITEMSETS_BLOCK_MINER_H_
#define DEMON_ITEMSETS_BLOCK_MINER_H_

#include <cstddef>
#include <cstdint>

#include "data/block.h"
#include "itemsets/itemset_model.h"

namespace demon {

/// \brief Mines L ∪ NB- of one block into `*model`, exactly as
/// AprioriInto({block}) would, vertically: the BORDERS base case.
///
/// `*model` is emptied (ItemsetModel::Clear keeps its trie's capacity)
/// and mined at its own minsup over its own item universe. Level 1
/// counts every item of the universe; each frequent item then gets a
/// bitmap of the records holding it. A level-k candidate is the join of
/// two frequent siblings under one trie node, kept when all its
/// (k-1)-subsets are frequent (Apriori's prune), and its count is the
/// popcount of its frequent prefix's bitset ANDed with its last item's
/// bitmap. Only frequent itemsets keep a bitset for the next level. Each
/// itemset goes straight under its parent node (ItemsetTrie::InsertChild)
/// in Apriori's insertion order, so the trie comes out node for node as
/// Apriori builds it. Sequential; no scratch trie and no Itemset per
/// candidate.
void MineBlockInto(const TransactionBlock& block, ItemsetModel* model);

/// The AND + popcount kernel of MineBlockInto, exposed for its tests:
/// `out[w] = a[w] & b[w]` for every w below `words`, returning the number
/// of set bits in `out`. MineBlockInto picks the hardware path once per
/// process when the CPU has POPCNT, else the portable one.
namespace block_miner_internal {

uint64_t AndCountPortable(const uint64_t* a, const uint64_t* b,
                          uint64_t* out, size_t words);
/// Compiled for POPCNT; call only when HasHardwarePopcount().
uint64_t AndCountHardware(const uint64_t* a, const uint64_t* b,
                          uint64_t* out, size_t words);
/// True when this CPU executes AndCountHardware (x86 with POPCNT).
bool HasHardwarePopcount();

}  // namespace block_miner_internal

}  // namespace demon

#endif  // DEMON_ITEMSETS_BLOCK_MINER_H_
