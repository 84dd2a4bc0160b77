#ifndef DEMON_ITEMSETS_HASH_TREE_H_
#define DEMON_ITEMSETS_HASH_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/transaction.h"
#include "itemsets/itemset.h"

namespace demon {

/// \brief Hash tree for candidate support counting [AMS+96] — the
/// alternative to the prefix tree that the paper's footnote 7 mentions.
///
/// Interior nodes hash the next item of a candidate into one of `fanout`
/// buckets; leaves store up to `leaf_capacity` candidates and split when
/// they overflow (unless the depth already equals the candidate length).
/// Counting a transaction recursively hashes each remaining item at
/// interior nodes and subset-checks the candidates at reached leaves.
///
/// Mirrors ItemsetTrie's Insert/CountTransaction so the two counting
/// structures can be benchmarked against each other.
class HashTree {
 public:
  explicit HashTree(size_t fanout = 8, size_t leaf_capacity = 16);

  /// Inserts a (sorted, non-empty) itemset; returns its dense id.
  /// Re-inserting returns the previously assigned id.
  size_t Insert(const Itemset& itemset);

  size_t NumItemsets() const { return counts_.size(); }

  /// Adds `weight` to every inserted itemset contained in `transaction`.
  void CountTransaction(TransactionView transaction, uint64_t weight = 1);

  uint64_t CountOf(size_t id) const { return counts_[id]; }

  void ResetCounts();

 private:
  struct Node {
    bool is_leaf = true;
    /// Leaf payload: ids into itemsets_/counts_.
    std::vector<uint32_t> entries;
    /// Interior: children, one per hash bucket (may contain nulls).
    std::vector<std::unique_ptr<Node>> children;
  };

  size_t Bucket(Item item) const { return item % fanout_; }

  void InsertAt(Node* node, uint32_t id, size_t depth);
  void SplitLeaf(Node* node, size_t depth);
  void CountRecursive(const Node* node, const Item* pos, const Item* end,
                      size_t depth, TransactionView transaction,
                      uint64_t weight);

  size_t fanout_;
  size_t leaf_capacity_;
  std::unique_ptr<Node> root_;
  std::vector<Itemset> itemsets_;
  std::vector<uint64_t> counts_;
  ItemsetMap<size_t> ids_;
  /// Guard against double counting: last transaction stamp per itemset.
  std::vector<uint64_t> last_stamp_;
  uint64_t stamp_ = 0;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_HASH_TREE_H_
