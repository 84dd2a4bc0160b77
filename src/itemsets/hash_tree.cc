#include "itemsets/hash_tree.h"

#include "common/check.h"

namespace demon {

HashTree::HashTree(size_t fanout, size_t leaf_capacity)
    : fanout_(fanout),
      leaf_capacity_(leaf_capacity),
      root_(std::make_unique<Node>()) {
  DEMON_CHECK(fanout_ >= 2);
  DEMON_CHECK(leaf_capacity_ >= 1);
}

size_t HashTree::Insert(const Itemset& itemset) {
  DEMON_CHECK(!itemset.empty());
  const auto it = ids_.find(itemset);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(itemsets_.size());
  itemsets_.push_back(itemset);
  counts_.push_back(0);
  last_stamp_.push_back(0);
  ids_.emplace(itemset, id);
  InsertAt(root_.get(), id, 0);
  return id;
}

void HashTree::InsertAt(Node* node, uint32_t id, size_t depth) {
  const Itemset& itemset = itemsets_[id];
  while (!node->is_leaf) {
    if (itemset.size() <= depth) {
      // Too short to hash further: it lives at this interior node.
      node->entries.push_back(id);
      return;
    }
    const size_t bucket = Bucket(itemset[depth]);
    if (node->children[bucket] == nullptr) {
      node->children[bucket] = std::make_unique<Node>();
    }
    node = node->children[bucket].get();
    ++depth;
  }
  node->entries.push_back(id);
  if (node->entries.size() > leaf_capacity_) SplitLeaf(node, depth);
}

void HashTree::SplitLeaf(Node* node, size_t depth) {
  // Entries of length exactly `depth` cannot hash deeper and stay here.
  bool can_split = false;
  for (uint32_t id : node->entries) {
    if (itemsets_[id].size() > depth) {
      can_split = true;
      break;
    }
  }
  if (!can_split) return;  // all residents; nothing to push down

  std::vector<uint32_t> entries = std::move(node->entries);
  node->entries.clear();
  node->is_leaf = false;
  node->children.resize(fanout_);
  for (uint32_t id : entries) InsertAt(node, id, depth);
}

void HashTree::CountTransaction(TransactionView transaction,
                                uint64_t weight) {
  if (transaction.empty()) return;
  ++stamp_;
  CountRecursive(root_.get(), transaction.begin(), transaction.end(), 0,
                 transaction, weight);
}

void HashTree::CountRecursive(const Node* node, const Item* pos,
                              const Item* end, size_t depth,
                              TransactionView transaction,
                              uint64_t weight) {
  // A transaction can reach the same node through several hash paths;
  // the per-transaction stamp prevents double counting.
  for (uint32_t id : node->entries) {
    if (last_stamp_[id] == stamp_) continue;
    last_stamp_[id] = stamp_;
    const Itemset& itemset = itemsets_[id];
    if (transaction.ContainsAll(itemset.begin(), itemset.end())) {
      counts_[id] += weight;
    }
  }
  if (node->is_leaf) return;
  for (const Item* p = pos; p != end; ++p) {
    const Node* child = node->children[Bucket(*p)].get();
    if (child != nullptr) {
      CountRecursive(child, p + 1, end, depth + 1, transaction, weight);
    }
  }
}

void HashTree::ResetCounts() {
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(last_stamp_.begin(), last_stamp_.end(), 0);
  stamp_ = 0;
}

}  // namespace demon
