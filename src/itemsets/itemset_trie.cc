#include "itemsets/itemset_trie.h"

#include <algorithm>

namespace demon {

namespace {

// Edge-pool holes are compacted away once they exceed the live blocks by
// this many slots — small pools never pay for a compaction.
constexpr size_t kCompactionSlack = 1024;

}  // namespace

void ItemsetTrie::Clear() {
  nodes_.clear();
  nodes_.push_back(Node{});
  entries_.clear();
  entries_.push_back(Entry{});
  child_items_.clear();
  child_nodes_.clear();
  level1_.clear();
  free_nodes_.clear();
  edges_in_blocks_ = 0;
  num_tracked_ = 0;
  num_frequent_ = 0;
  frequent_stale_ = false;
}

ItemsetTrie::NodeId ItemsetTrie::Child(NodeId node, Item item) const {
  if (node == kRoot) return Level1(item);
  const Node& n = nodes_[node];
  const Item* const begin = child_items_.data() + n.child_begin;
  const Item* const end = begin + n.child_count;
  const Item* const it = std::lower_bound(begin, end, item);
  if (it == end || *it != item) return kNoNode;
  return child_nodes_[it - child_items_.data()];
}

ItemsetTrie::NodeId ItemsetTrie::Find(const Item* items, size_t n) const {
  if (n == 0) return kNoNode;
  NodeId node = Level1(items[0]);
  for (size_t i = 1; i < n && node != kNoNode; ++i) {
    node = Child(node, items[i]);
  }
  return node != kNoNode && nodes_[node].tracked ? node : kNoNode;
}

ItemsetTrie::NodeId ItemsetTrie::FindWithout(const Item* items, size_t n,
                                             size_t skip) const {
  NodeId node = kRoot;
  for (size_t i = 0; i < n && node != kNoNode; ++i) {
    if (i != skip) node = Child(node, items[i]);
  }
  return node != kNoNode && node != kRoot && nodes_[node].tracked ? node
                                                                 : kNoNode;
}

ItemsetTrie::NodeId ItemsetTrie::AllocateNode(NodeId parent, Item item) {
  NodeId node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    node = static_cast<NodeId>(nodes_.size());
    DEMON_CHECK_MSG(node != kNoNode, "itemset trie node ids exhausted");
    nodes_.push_back(Node{});
    entries_.push_back(Entry{});
  }
  // A reused slot keeps its (empty) edge block for its new children.
  Node& n = nodes_[node];
  n.parent = parent;
  n.item = item;
  n.child_count = 0;
  n.tracked = false;
  entries_[node] = Entry{};
  return node;
}

ItemsetTrie::NodeId ItemsetTrie::ChildOrInsert(NodeId node, Item item) {
  if (node == kRoot) {
    if (item >= level1_.size()) level1_.resize(size_t{item} + 1, kNoNode);
    if (level1_[item] == kNoNode) level1_[item] = AllocateNode(kRoot, item);
    return level1_[item];
  }
  const uint32_t begin = nodes_[node].child_begin;
  const uint32_t count = nodes_[node].child_count;
  const Item* const first = child_items_.data() + begin;
  const uint32_t pos = static_cast<uint32_t>(
      std::lower_bound(first, first + count, item) - first);
  if (pos < count && first[pos] == item) return child_nodes_[begin + pos];

  const NodeId child = AllocateNode(node, item);  // may grow nodes_
  Node& n = nodes_[node];
  if (n.child_count == n.child_capacity) {
    // Relocate the block to the end of the pool with doubled capacity;
    // the old block becomes a hole.
    const uint32_t capacity = std::max<uint32_t>(2, 2 * n.child_capacity);
    if (child_items_.size() - edges_in_blocks_ >
        edges_in_blocks_ + kCompactionSlack) {
      CompactEdges();
    }
    const auto fresh = static_cast<uint32_t>(child_items_.size());
    child_items_.resize(fresh + capacity);
    child_nodes_.resize(fresh + capacity);
    std::copy_n(child_items_.begin() + n.child_begin, n.child_count,
                child_items_.begin() + fresh);
    std::copy_n(child_nodes_.begin() + n.child_begin, n.child_count,
                child_nodes_.begin() + fresh);
    edges_in_blocks_ += capacity - n.child_capacity;
    n.child_begin = fresh;
    n.child_capacity = capacity;
  }
  const uint32_t at = n.child_begin + pos;
  const uint32_t tail = n.child_begin + n.child_count;
  std::copy_backward(child_items_.begin() + at, child_items_.begin() + tail,
                     child_items_.begin() + tail + 1);
  std::copy_backward(child_nodes_.begin() + at, child_nodes_.begin() + tail,
                     child_nodes_.begin() + tail + 1);
  child_items_[at] = item;
  child_nodes_[at] = child;
  ++n.child_count;
  return child;
}

void ItemsetTrie::CompactEdges() {
  std::vector<Item> items(edges_in_blocks_);
  std::vector<NodeId> nodes(edges_in_blocks_);
  uint32_t next = 0;
  for (Node& n : nodes_) {
    if (n.child_capacity == 0) continue;
    std::copy_n(child_items_.begin() + n.child_begin, n.child_count,
                items.begin() + next);
    std::copy_n(child_nodes_.begin() + n.child_begin, n.child_count,
                nodes.begin() + next);
    n.child_begin = next;
    next += n.child_capacity;
  }
  child_items_ = std::move(items);
  child_nodes_ = std::move(nodes);
}

ItemsetTrie::NodeId ItemsetTrie::Insert(const Item* items, size_t n,
                                        const Entry& entry) {
  DEMON_CHECK_MSG(n > 0, "the empty itemset is not insertable");
  NodeId node = kRoot;
  for (size_t i = 0; i < n; ++i) {
    DEMON_CHECK_MSG(i == 0 || items[i - 1] < items[i],
                    "itemset must be strictly increasing");
    node = ChildOrInsert(node, items[i]);
  }
  if (!nodes_[node].tracked) {
    nodes_[node].tracked = true;
    entries_[node] = entry;
    ++num_tracked_;
    if (entry.frequent && !frequent_stale_) ++num_frequent_;
  }
  return node;
}

void ItemsetTrie::RemoveChild(NodeId parent, NodeId child) {
  const Item item = nodes_[child].item;
  if (parent == kRoot) {
    level1_[item] = kNoNode;
    return;
  }
  Node& n = nodes_[parent];
  const auto first = child_items_.begin() + n.child_begin;
  const auto last = first + n.child_count;
  const auto it = std::lower_bound(first, last, item);
  DEMON_CHECK(it != last && *it == item);
  const auto at = static_cast<size_t>(it - child_items_.begin());
  std::copy(it + 1, last, it);
  std::copy(child_nodes_.begin() + at + 1,
            child_nodes_.begin() + n.child_begin + n.child_count,
            child_nodes_.begin() + at);
  --n.child_count;
}

void ItemsetTrie::Erase(NodeId node) {
  DEMON_CHECK(node != kRoot && node < nodes_.size() && nodes_[node].tracked);
  if (entries_[node].frequent && !frequent_stale_) --num_frequent_;
  nodes_[node].tracked = false;
  entries_[node] = Entry{};
  --num_tracked_;
  // Release the node and every ancestor it leaves untracked and childless.
  while (node != kRoot && !nodes_[node].tracked &&
         nodes_[node].child_count == 0) {
    const NodeId parent = nodes_[node].parent;
    RemoveChild(parent, node);
    nodes_[node].parent = kNoNode;
    free_nodes_.push_back(node);
    node = parent;
  }
}

void ItemsetTrie::SetFrequent(NodeId node, bool frequent) {
  Entry& e = entries_[node];
  if (e.frequent == frequent) return;
  e.frequent = frequent;
  if (frequent_stale_) return;
  if (frequent) {
    ++num_frequent_;
  } else {
    --num_frequent_;
  }
}

void ItemsetTrie::ItemsetOf(NodeId node, Itemset* out) const {
  out->clear();
  for (; node != kRoot; node = nodes_[node].parent) {
    out->push_back(nodes_[node].item);
  }
  std::reverse(out->begin(), out->end());
}

size_t ItemsetTrie::CountFrequent() const {
  size_t n = 0;
  ForEachTrackedNode([&](NodeId node) { n += entries_[node].frequent; });
  return n;
}

size_t ItemsetTrie::NumFrequent() const {
  return frequent_stale_ ? CountFrequent() : num_frequent_;
}

size_t ItemsetTrie::ArenaBytes() const {
  return nodes_.capacity() * sizeof(Node) +
         entries_.capacity() * sizeof(Entry) +
         child_items_.capacity() * sizeof(Item) +
         child_nodes_.capacity() * sizeof(NodeId) +
         level1_.capacity() * sizeof(NodeId) +
         free_nodes_.capacity() * sizeof(NodeId);
}

void ItemsetTrie::ResetCounts() {
  for (Entry& e : entries_) e.count = 0;
}

ItemsetTrie::NodeId ItemsetTrie::Next(NodeId node) const {
  // First child, else the next sibling of the nearest ancestor-or-self
  // that has one.
  if (node == kRoot) {
    for (const NodeId child : level1_) {
      if (child != kNoNode) return child;
    }
    return kNoNode;
  }
  if (nodes_[node].child_count > 0) {
    return child_nodes_[nodes_[node].child_begin];
  }
  while (node != kRoot) {
    const NodeId parent = nodes_[node].parent;
    const Item item = nodes_[node].item;
    if (parent == kRoot) {
      for (size_t i = size_t{item} + 1; i < level1_.size(); ++i) {
        if (level1_[i] != kNoNode) return level1_[i];
      }
    } else {
      const Node& p = nodes_[parent];
      const Item* const first = child_items_.data() + p.child_begin;
      const Item* const last = first + p.child_count;
      const Item* const it = std::upper_bound(first, last, item);
      if (it != last) return child_nodes_[it - child_items_.data()];
    }
    node = parent;
  }
  return kNoNode;
}

ItemsetTrie::NodeId ItemsetTrie::NextTracked(NodeId node) const {
  do {
    node = Next(node);
  } while (node != kNoNode && !nodes_[node].tracked);
  return node;
}

const ItemsetTrie::Entry& ItemsetTrie::at(const Itemset& itemset) const {
  const NodeId node = Find(itemset);
  DEMON_CHECK_MSG(node != kNoNode, "itemset not tracked");
  return entries_[node];
}

ItemsetTrie::Entry& ItemsetTrie::at(const Itemset& itemset) {
  const NodeId node = Find(itemset);
  DEMON_CHECK_MSG(node != kNoNode, "itemset not tracked");
  frequent_stale_ = true;
  return entries_[node];
}

ItemsetTrie::Entry& ItemsetTrie::operator[](const Itemset& itemset) {
  const NodeId node = Insert(itemset);
  frequent_stale_ = true;
  return entries_[node];
}

std::pair<ItemsetTrie::iterator, bool> ItemsetTrie::emplace(
    const Itemset& itemset, const Entry& entry) {
  const size_t before = num_tracked_;
  const NodeId node = Insert(itemset, entry);
  return {iterator(this, node), num_tracked_ != before};
}

size_t ItemsetTrie::erase(const Itemset& itemset) {
  const NodeId node = Find(itemset);
  if (node == kNoNode) return 0;
  Erase(node);
  return 1;
}

void ItemsetTrie::AuditInto(audit::AuditResult* audit) const {
  constexpr char kModule[] = "itemset-trie";
  std::vector<uint8_t> reached(nodes_.size(), 0);
  size_t tracked = 0;
  size_t frequent = 0;
  std::vector<NodeId> stack = {kRoot};
  reached[kRoot] = 1;
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    if (nodes_[node].tracked) {
      ++tracked;
      frequent += entries_[node].frequent;
    }
    bool have_previous = false;
    Item previous = 0;
    ForEachChild(node, [&](NodeId child) {
      if (child >= nodes_.size() || reached[child]) {
        AUDIT_FAIL(audit, kModule, "itemset-trie/shared-node",
                   audit::Msg() << "node " << child
                                << " is out of range or reachable twice",
                   "");
        return;
      }
      reached[child] = 1;
      const Node& c = nodes_[child];
      AUDIT_CHECK(audit, kModule, "itemset-trie/parent-link",
                  c.parent == node,
                  audit::Msg() << "node " << child << " names parent "
                               << c.parent << ", reached from " << node,
                  "");
      AUDIT_CHECK(audit, kModule, "itemset-trie/children-sorted",
                  !have_previous || previous < c.item,
                  audit::Msg() << "children of node " << node
                               << " not strictly increasing at item "
                               << c.item,
                  "");
      AUDIT_CHECK(audit, kModule, "itemset-trie/no-dead-leaf",
                  c.tracked || c.child_count > 0,
                  audit::Msg() << "node " << child
                               << " is an untracked leaf (should be freed)",
                  "");
      have_previous = true;
      previous = c.item;
      stack.push_back(child);
    });
  }
  size_t live = 0;
  for (size_t i = 0; i < reached.size(); ++i) live += reached[i];
  AUDIT_CHECK(audit, kModule, "itemset-trie/orphan-node",
              live + free_nodes_.size() == nodes_.size(),
              audit::Msg() << live << " reachable + " << free_nodes_.size()
                           << " free slots != " << nodes_.size() << " nodes",
              "");
  AUDIT_CHECK(audit, kModule, "itemset-trie/tracked-count",
              tracked == num_tracked_,
              audit::Msg() << "running tracked count " << num_tracked_
                           << " != recount " << tracked,
              "");
  AUDIT_CHECK(audit, kModule, "itemset-trie/frequent-count",
              frequent == NumFrequent(),
              audit::Msg() << "running frequent count " << NumFrequent()
                           << " != recount " << frequent,
              "");
}

}  // namespace demon
