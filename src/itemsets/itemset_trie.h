#ifndef DEMON_ITEMSETS_ITEMSET_TRIE_H_
#define DEMON_ITEMSETS_ITEMSET_TRIE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/check.h"
#include "data/transaction.h"
#include "itemsets/itemset.h"

namespace demon {

/// The per-itemset payload of the frequent-itemset model: an absolute
/// support count and the frequent flag (L versus NB-).
struct ItemsetEntry {
  uint64_t count = 0;
  bool frequent = false;
};

/// \brief Arena-backed, count-carrying itemset trie — the prefix tree of
/// [Mue95] that PT-Scan counts with (paper §3.1.1), and the one itemset
/// container of this module: it holds the BORDERS model L ∪ NB- and every
/// scratch candidate set.
///
/// Layout. Nodes live in contiguous arrays indexed by a stable NodeId;
/// node 0 is the (untracked) root. Each node owns a block of the shared
/// edge pool holding its children's items and ids, sorted by item, so the
/// counting walk merges one contiguous uint32 array against the
/// transaction. The root's children (the 1-itemsets) are found through a
/// direct item -> node index instead. A node is *tracked* when its path is
/// a member itemset; interior nodes may be untracked (arbitrary member
/// sets are allowed), and every tracked node carries an ItemsetEntry.
///
/// Churn. Erased nodes go on a free list and keep their edge block, so the
/// slot and its capacity are reused by the next insert; a child block that
/// outgrows its capacity moves to the end of the pool, and the pool is
/// compacted once such holes outweigh the live blocks. Repeatedly
/// inserting and erasing the same itemsets therefore never grows the arena.
///
/// Order. Depth-first pre-order with ascending children is exactly the
/// ItemsetLess order; every traversal here (and the map facade's
/// iteration) yields itemsets in that order.
///
/// Map facade. begin()/end()/find()/size()/at()/operator[]/emplace()/
/// erase() keep unordered_map-style source compatibility for cold paths
/// and tests: dereferencing yields a materialized
/// `std::pair<Itemset, Entry>` (mutable iterators: `pair<Itemset,
/// Entry&>`). Mutable facade access hands out Entry references that can
/// flip frequent flags behind the trie's back, so it retires the running
/// frequent count: from then on NumFrequent() recounts (until Clear()).
class ItemsetTrie {
 public:
  using NodeId = uint32_t;
  using Entry = ItemsetEntry;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

  ItemsetTrie() { Clear(); }

  /// Removes every itemset, keeping the arrays' capacity (the counting
  /// layer reuses one scratch trie across calls this way).
  void Clear();

  // --- Node API -----------------------------------------------------------

  /// Tracks the (sorted, non-empty) itemset and returns its node. A newly
  /// tracked itemset gets `entry`; an already tracked one keeps its own.
  NodeId Insert(const Item* items, size_t n, const Entry& entry = {});
  NodeId Insert(const Itemset& itemset, const Entry& entry = {}) {
    return Insert(itemset.data(), itemset.size(), entry);
  }

  /// The node of a tracked itemset, or kNoNode. Allocation-free.
  NodeId Find(const Item* items, size_t n) const;
  NodeId Find(const Itemset& itemset) const {
    return Find(itemset.data(), itemset.size());
  }
  /// Find() of `items` with position `skip` left out — the (k-1)-subset
  /// lookup of Apriori pruning, without materializing the subset.
  NodeId FindWithout(const Item* items, size_t n, size_t skip) const;

  /// True when `node` is tracked and frequent.
  bool IsFrequentNode(NodeId node) const {
    return node != kNoNode && entries_[node].frequent;
  }

  /// Untracks a tracked node and releases it, plus any ancestors left
  /// untracked and childless.
  void Erase(NodeId node);

  const Entry& entry(NodeId node) const { return entries_[node]; }
  uint64_t& mutable_count(NodeId node) { return entries_[node].count; }
  /// Sets a tracked node's frequent flag, maintaining NumFrequent().
  void SetFrequent(NodeId node, bool frequent);
  Item item(NodeId node) const { return nodes_[node].item; }
  NodeId parent(NodeId node) const { return nodes_[node].parent; }
  bool has_children(NodeId node) const {
    return nodes_[node].child_count > 0;
  }
  /// Writes the itemset of `node` (root-to-node path) into `*out`.
  void ItemsetOf(NodeId node, Itemset* out) const;

  /// Number of tracked itemsets.
  size_t size() const { return num_tracked_; }
  bool empty() const { return num_tracked_ == 0; }
  /// Number of tracked itemsets flagged frequent: O(1) unless mutable
  /// facade access left the running count stale.
  size_t NumFrequent() const;

  /// One past the largest NodeId in use: per-node side arrays (the
  /// counting layer's per-shard deltas) are sized by this.
  size_t node_capacity() const { return nodes_.size(); }
  /// Bytes held by the node arrays and the edge pool — the arena size.
  size_t ArenaBytes() const;

  /// Calls fn(node) for every tracked node in NodeId order — the cheapest
  /// full pass, for order-independent work (count folds, flag refresh).
  template <typename Fn>
  void ForEachTrackedNode(Fn&& fn) const {
    for (NodeId n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].tracked) fn(n);
    }
  }

  /// Calls fn(path, node) for every tracked node in ItemsetLess order,
  /// `path` holding the node's itemset.
  template <typename Fn>
  void ForEachTracked(Fn&& fn) const {
    Itemset path;
    Visit(kRoot, &path, /*frequent_only=*/false, fn);
  }

  /// Calls fn(path, node) for every frequent node in ItemsetLess order.
  /// The walk descends only into frequent or interior nodes and skips
  /// infrequent leaves — in a BORDERS model, where every proper prefix of
  /// a tracked itemset is frequent and NB- members are leaves, it visits
  /// just the frequent nodes and reads only flags of the border.
  template <typename Fn>
  void ForEachFrequent(Fn&& fn) const {
    Itemset path;
    Visit(kRoot, &path, /*frequent_only=*/true, fn);
  }

  /// Calls fn(child) for each child of `node` in ascending item order.
  template <typename Fn>
  void ForEachChild(NodeId node, Fn&& fn) const {
    if (node == kRoot) {
      for (const NodeId child : level1_) {
        if (child != kNoNode) fn(child);
      }
      return;
    }
    const Node& n = nodes_[node];
    for (uint32_t e = n.child_begin; e < n.child_begin + n.child_count; ++e) {
      fn(child_nodes_[e]);
    }
  }

  // --- Counting (PT-Scan) -------------------------------------------------

  /// Adds `weight` to the entry count of every tracked itemset contained
  /// in the (sorted) transaction.
  void CountTransaction(const Transaction& transaction, uint64_t weight = 1) {
    const auto& items = transaction.items();
    Entry* const entries = entries_.data();
    Walk(items.data(), items.data() + items.size(),
         [entries, weight](NodeId n) { entries[n].count += weight; });
  }

  /// The same walk adding 1 to `counts[node]` instead — the per-shard
  /// delta arrays of parallel counting (`counts` spans node_capacity()).
  /// Interior untracked nodes are counted too; their slots are ignored.
  void CountTransactionInto(const Item* begin, const Item* end,
                            uint64_t* counts) const {
    Walk(begin, end, [counts](NodeId n) { ++counts[n]; });
  }

  /// Zeroes every entry count (flags and structure are kept).
  void ResetCounts();

  /// Structural audit: parent/child links consistent, children strictly
  /// increasing, every live node reachable exactly once, free slots
  /// unreachable, and the tracked/frequent running counts equal to a
  /// recount. Appends violations to `audit`.
  void AuditInto(audit::AuditResult* audit) const;

  // --- Map facade (cold paths) --------------------------------------------

 private:
  template <bool kConst>
  class BasicIterator {
    using TriePtr =
        std::conditional_t<kConst, const ItemsetTrie*, ItemsetTrie*>;
    using EntryRef = std::conditional_t<kConst, Entry, Entry&>;

   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<Itemset, Entry>;
    using difference_type = std::ptrdiff_t;
    using reference = std::pair<Itemset, EntryRef>;
    struct pointer {
      reference ref;
      reference* operator->() { return &ref; }
    };

    BasicIterator() = default;
    BasicIterator(TriePtr trie, NodeId node) : trie_(trie), node_(node) {}

    reference operator*() const {
      Itemset itemset;
      trie_->ItemsetOf(node_, &itemset);
      return reference(std::move(itemset), trie_->entries_[node_]);
    }
    pointer operator->() const { return pointer{**this}; }
    BasicIterator& operator++() {
      node_ = trie_->NextTracked(node_);
      return *this;
    }
    BasicIterator operator++(int) {
      BasicIterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const BasicIterator& other) const {
      return node_ == other.node_;
    }
    bool operator!=(const BasicIterator& other) const {
      return node_ != other.node_;
    }

   private:
    TriePtr trie_ = nullptr;
    NodeId node_ = kNoNode;
  };

 public:
  using iterator = BasicIterator<false>;
  using const_iterator = BasicIterator<true>;

  const_iterator begin() const { return {this, NextTracked(kRoot)}; }
  const_iterator end() const { return {this, kNoNode}; }
  iterator begin() {
    frequent_stale_ = true;
    return {this, NextTracked(kRoot)};
  }
  iterator end() { return {this, kNoNode}; }
  const_iterator find(const Itemset& itemset) const {
    return {this, Find(itemset)};
  }
  iterator find(const Itemset& itemset) {
    frequent_stale_ = true;
    return {this, Find(itemset)};
  }
  const Entry& at(const Itemset& itemset) const;
  Entry& at(const Itemset& itemset);
  /// Tracks `itemset` (default entry) if absent; returns its entry.
  Entry& operator[](const Itemset& itemset);
  std::pair<iterator, bool> emplace(const Itemset& itemset,
                                    const Entry& entry);
  /// Untracks `itemset`; returns the number of itemsets removed (0 or 1).
  size_t erase(const Itemset& itemset);

 private:
  struct Node {
    NodeId parent = kNoNode;
    Item item = 0;
    /// Children: edge-pool slots [child_begin, child_begin + child_count)
    /// of a block of child_capacity slots. Unused for the root.
    uint32_t child_begin = 0;
    uint32_t child_count = 0;
    uint32_t child_capacity = 0;
    bool tracked = false;
  };

  /// The 1-itemset node of `item` (tracked or interior), or kNoNode.
  NodeId Level1(Item item) const {
    return item < level1_.size() ? level1_[item] : kNoNode;
  }
  /// Pre-order successor of `node` among all live nodes (kNoNode at the
  /// end), and the same restricted to tracked nodes.
  NodeId Next(NodeId node) const;
  NodeId NextTracked(NodeId node) const;
  /// The child of `node` holding `item`, or kNoNode.
  NodeId Child(NodeId node, Item item) const;
  /// Child() that creates the child (untracked) when missing.
  NodeId ChildOrInsert(NodeId node, Item item);
  /// A free or fresh node slot under `parent`.
  NodeId AllocateNode(NodeId parent, Item item);
  void RemoveChild(NodeId parent, NodeId child);
  /// Moves every edge block to the front of a fresh pool, dropping holes.
  void CompactEdges();
  size_t CountFrequent() const;

  template <typename Add>
  void Walk(const Item* begin, const Item* end, Add add) const {
    const size_t level1 = level1_.size();
    for (const Item* p = begin; p != end; ++p) {
      if (*p >= level1) break;  // sorted: every later item is larger too
      const NodeId node = level1_[*p];
      if (node != kNoNode) Descend(node, p + 1, end, add);
    }
  }

  /// The walk binary-searches each remaining item instead of merging once
  /// a child list is this many times longer than the items left — the
  /// frequent nodes of a BORDERS model carry hundreds of border children
  /// against a handful of remaining items.
  static constexpr ptrdiff_t kProbeRatio = 2;

  template <typename Add>
  void Descend(NodeId node, const Item* pos, const Item* end,
               Add& add) const {
    add(node);
    const Node& n = nodes_[node];
    const Item* child = child_items_.data() + n.child_begin;
    const Item* const child_end = child + n.child_count;
    if (child_end - child > kProbeRatio * (end - pos)) {
      // Long child list, few items left: binary-search each item.
      for (; pos != end; ++pos) {
        child = std::lower_bound(child, child_end, *pos);
        if (child == child_end) return;
        if (*child == *pos) {
          Descend(child_nodes_[child - child_items_.data()], pos + 1, end,
                  add);
          ++child;
        }
      }
      return;
    }
    // Merge-walk the contiguous sorted child items against the sorted
    // remaining transaction items.
    while (child != child_end && pos != end) {
      if (*child < *pos) {
        ++child;
      } else if (*pos < *child) {
        ++pos;
      } else {
        Descend(child_nodes_[child - child_items_.data()], pos + 1, end, add);
        ++child;
        ++pos;
      }
    }
  }

  template <typename Fn>
  void Visit(NodeId node, Itemset* path, bool frequent_only, Fn& fn) const {
    ForEachChild(node, [&](NodeId child) {
      const Node& c = nodes_[child];
      const bool frequent = c.tracked && entries_[child].frequent;
      if (frequent_only && !frequent && c.child_count == 0) return;
      path->push_back(c.item);
      if (frequent_only ? frequent : c.tracked) fn(*path, child);
      if (c.child_count > 0) Visit(child, path, frequent_only, fn);
      path->pop_back();
    });
  }

  std::vector<Node> nodes_;
  /// Parallel to nodes_. Counts are meaningful for tracked nodes only;
  /// untracked nodes always keep frequent == false (IsFrequentNode).
  std::vector<Entry> entries_;
  /// The edge pool: child items (the counting walk's merge array) and the
  /// matching child node ids.
  std::vector<Item> child_items_;
  std::vector<NodeId> child_nodes_;
  /// Root children: item -> node.
  std::vector<NodeId> level1_;
  std::vector<NodeId> free_nodes_;
  /// Edge-pool slots inside some live block (sum of capacities); the rest
  /// of the pool is holes left by relocated blocks.
  size_t edges_in_blocks_ = 0;
  size_t num_tracked_ = 0;
  size_t num_frequent_ = 0;
  bool frequent_stale_ = false;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_ITEMSET_TRIE_H_
