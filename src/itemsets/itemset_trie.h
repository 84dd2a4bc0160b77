#ifndef DEMON_ITEMSETS_ITEMSET_TRIE_H_
#define DEMON_ITEMSETS_ITEMSET_TRIE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <unordered_map>
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
/// Leaf edges. Each edge slot also carries a flag set when its child has
/// no children and no retired row; the counting walk counts such a child
/// in place, without recursing into it or loading its Node. Every
/// mutator keeps the flags exact, and AuditInto checks them.
///
/// Churn. Erased nodes go on a free list, and their edge blocks become
/// holes. A child block that outgrows its capacity moves to a block of
/// twice the capacity — a hole of that size, else a fresh one at the end
/// of the pool — and its old block becomes a hole. Capacities are powers
/// of two, so holes are reused exactly by size. Repeatedly inserting and
/// erasing the same itemsets therefore never grows the arena.
///
/// Retired rows. A tracked node may carry a row of *retired extensions*:
/// exact supports of itemsets node ∪ {x} that BORDERS pruned from the
/// border (flat sorted x and count arrays sized to the row, 8 bytes an
/// entry, no trie node; a dense row also keeps a rank bitmap). A counting
/// walk never writes to the trie: it adds 1 to a caller-owned delta slot
/// per entry held by a transaction (NumberRetired numbers the slots), and
/// the owner applies the summed deltas once with ApplyRetired. A row is
/// dropped when its node is untracked. Counts are 32-bit: an entry whose
/// support reaches kRetiredCountUnknown is kept as unknown and never
/// revived.
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
  /// The count of a retired entry whose support no longer fits 32 bits.
  static constexpr uint32_t kRetiredCountUnknown =
      std::numeric_limits<uint32_t>::max();

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
  /// Bytes held by the node arrays and the edge pool — the arena size
  /// (child bitmaps and retired rows not included).
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
  void CountTransaction(TransactionView transaction, uint64_t weight = 1) {
    Entry* const entries = entries_.data();
    Walk(transaction.begin(), transaction.end(),
         [entries, weight](NodeId n, bool) { entries[n].count += weight; });
  }

  /// The same walk adding 1 to `counts[node]` instead — the per-shard
  /// count arrays of parallel counting (`counts` spans node_capacity()).
  /// Interior untracked nodes are counted too; their slots are ignored.
  /// With non-null `retired`, also adds 1 to `retired[i]` for every
  /// retired-row entry node ∪ {x} the transaction contains, i being the
  /// entry's number from the last NumberRetired(). The walk only reads
  /// the trie, so concurrent walks with their own arrays may share it.
  void CountTransactionInto(const Item* begin, const Item* end,
                            uint64_t* counts,
                            uint32_t* retired = nullptr) const {
    DEMON_CHECK(retired == nullptr || rows_numbered_);
    Walk(begin, end, [this, begin, end, counts, retired](NodeId n,
                                                         bool has_row) {
      ++counts[n];
      if (has_row && retired != nullptr) FoldRetired(n, begin, end, retired);
    });
  }

  /// Zeroes every entry count (flags and structure are kept).
  void ResetCounts();

  // --- Retired-extension rows ---------------------------------------------

  /// Adds entries node ∪ {items[i]} with support counts[i] to the row of
  /// the tracked `node`. `items` must ascend, and no item may be in the
  /// node's itemset or already in its row.
  void Retire(NodeId node, const Item* items, const uint64_t* counts,
              size_t n);

  /// When the row of `node` (kNoNode allowed) holds `item`, removes that
  /// entry; returns true and writes its count to `*count` unless the
  /// count was unknown.
  bool TakeRetired(NodeId node, Item item, uint64_t* count);

  /// Drops the row of `node`, if any.
  void DropRetired(NodeId node);

  /// Number of row entries over all nodes.
  size_t num_retired() const { return retired_live_; }

  /// Numbers the row entries 0 .. num_retired() - 1 for the delta arrays
  /// of CountTransactionInto and ApplyRetired (O(rows), and free when no
  /// row changed since the last call); returns num_retired().
  size_t NumberRetired();

  /// Applies summed walk deltas (indexed as numbered by NumberRetired)
  /// with `sign` (+1 when the walked transactions joined the history, -1
  /// when they left it). An unknown count stays unknown, a count that
  /// reaches kRetiredCountUnknown becomes unknown, and a deletion may not
  /// take a count below zero.
  void ApplyRetired(const uint32_t* deltas, int sign);

  /// Calls fn(node, item, count) for every row entry (count may be
  /// kRetiredCountUnknown).
  template <typename Fn>
  void ForEachRetired(Fn&& fn) const {
    for (const auto& [node, row] : rows_) {
      for (size_t i = 0; i < row.items.size(); ++i) {
        fn(node, row.items[i], row.counts[i]);
      }
    }
  }

  /// Structural audit: parent/child links consistent, children strictly
  /// increasing, every live node reachable exactly once, free slots
  /// unreachable, the tracked/frequent running counts equal to a recount,
  /// leaf-edge flags equal to their children's shape, child and row
  /// bitmaps equal to their items, and retired rows sorted, owned by
  /// tracked nodes and disjoint from their itemsets. Appends violations
  /// to `audit`.
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
    /// The node owns an entry of rows_.
    bool has_row = false;
    /// 1 + index in probes_ of the node's child bitmap; 0 for none.
    uint16_t probe = 0;
  };
  // The row flag and bitmap slot sit in what would otherwise be padding.
  static_assert(sizeof(Node) == 24);

  /// Rank bitmap over a sorted item array: bit i of `bits` is set iff
  /// item i is in the array, and `ranks[w]` counts the items below 64 * w,
  /// so item i sits at index ranks[i / 64] + the popcount of the bits
  /// below i in its word. It indexes the children of wide nodes.
  struct RankBitmap {
    std::vector<uint64_t> bits;
    std::vector<uint32_t> ranks;

    bool empty() const { return bits.empty(); }
    /// Items at or past this are absent.
    size_t limit() const { return 64 * bits.size(); }
    /// Index of `item` (below limit()) in the array, or -1 when absent.
    /// __builtin_popcountll, not std::popcount: this header is also
    /// compiled as C++17 by the bench/ledger package.
    int64_t IndexOf(Item item) const {
      const uint64_t word = bits[item / 64];
      const uint64_t bit = uint64_t{1} << (item % 64);
      if ((word & bit) == 0) return -1;
      return ranks[item / 64] + __builtin_popcountll(word & (bit - 1));
    }
    /// Indexes the `n` ascending `items`.
    void Build(const Item* items, size_t n);
    /// Records that `item` joined (or left) the array; false when it lies
    /// past limit(), where only a Build can add it.
    bool Update(Item item, bool inserted);
    /// Brings the bitmap of the `n` ascending `items` up to date after
    /// `item` joined or left them, by the density rule (see WideEnough in
    /// the .cc); false when the items are no longer wide enough for one.
    bool Follow(const Item* items, size_t n, Item item, bool inserted);
  };

  /// A node's retired-extension row: ascending extension items, their
  /// counts, and — for a row as dense as a wide node's children — a rank
  /// bitmap over the items, so a walk folds a transaction into it with
  /// one bit test per item instead of a binary search.
  struct RetiredRow {
    std::vector<Item> items;
    std::vector<uint32_t> counts;
    RankBitmap index;
    /// Delta-array number of items[0], set by NumberRetired().
    uint32_t first_delta = 0;
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
  /// An edge-pool block of `capacity` (a power of two) slots: a hole of
  /// that size, else fresh slots at the end of the pool.
  uint32_t AllocateBlock(uint32_t capacity);
  /// Turns the block at `begin` into a hole.
  void FreeBlock(uint32_t begin, uint32_t capacity);
  void RemoveChild(NodeId parent, NodeId child);
  /// True when the walk may count `node` in place: no children, no row.
  bool IsLeaf(NodeId node) const {
    return nodes_[node].child_count == 0 && !nodes_[node].has_row;
  }
  /// Refreshes the leaf flag of the edge to `node` after its children or
  /// its row changed.
  void UpdateLeafFlag(NodeId node);
  size_t CountFrequent() const;
  /// Builds, grows, updates or releases the child bitmap of `node` after
  /// its child `item` was inserted or removed.
  void UpdateProbe(NodeId node, Item item, bool inserted);
  void BuildProbe(NodeId node);
  void ReleaseProbe(NodeId node);
  static bool BitmapFits(const RankBitmap& bitmap, const Item* items,
                         size_t n);

  /// Adds 1 to `retired[i]` for every entry i of `node`'s row whose item
  /// is in the sorted transaction [begin, end).
  void FoldRetired(NodeId node, const Item* begin, const Item* end,
                   uint32_t* retired) const;

  /// Calls add(node, has_row) for every node whose itemset the sorted
  /// transaction [begin, end) contains. Leaf children are counted from
  /// their edge slot with has_row == false, without loading their Node.
  template <typename Add>
  void Walk(const Item* begin, const Item* end, Add add) const {
    const size_t level1 = level1_.size();
    for (const Item* p = begin; p != end; ++p) {
      if (*p >= level1) break;  // sorted: every later item is larger too
      const NodeId node = level1_[*p];
      if (node != kNoNode) Descend(node, p + 1, end, add);
    }
  }

  /// Below the wide-node threshold, the walk binary-searches each
  /// remaining item instead of merging once a child list is this many
  /// times longer than the items left.
  static constexpr ptrdiff_t kProbeRatio = 2;

  template <typename Add>
  void Descend(NodeId node, const Item* pos, const Item* end,
               Add& add) const {
    const Node& n = nodes_[node];
    add(node, n.has_row);
    if (n.child_count == 0) return;
    // The child at edge slot `e` matched an item; `rest` follows it.
    const auto edge = [&](size_t e, const Item* rest) {
      if (child_leaf_[e]) {
        add(child_nodes_[e], false);
      } else {
        Descend(child_nodes_[e], rest, end, add);
      }
    };
    if (n.probe != 0) {
      // Wide node: one bit test per remaining item, and a popcount to
      // find the matching child's edge slot.
      const RankBitmap& probe = probes_[n.probe - 1];
      for (; pos != end && *pos < probe.limit(); ++pos) {
        const int64_t at = probe.IndexOf(*pos);
        if (at >= 0) edge(n.child_begin + static_cast<size_t>(at), pos + 1);
      }
      return;
    }
    const Item* const items = child_items_.data();
    const Item* child = items + n.child_begin;
    const Item* const child_end = child + n.child_count;
    if (child_end - child > kProbeRatio * (end - pos)) {
      // Long child list, few items left: binary-search each item.
      for (; pos != end; ++pos) {
        child = std::lower_bound(child, child_end, *pos);
        if (child == child_end) return;
        if (*child == *pos) edge(child++ - items, pos + 1);
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
        edge(child++ - items, ++pos);
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
  /// The edge pool: child items (the counting walk's merge array), the
  /// matching child node ids, and each child's leaf flag (IsLeaf).
  std::vector<Item> child_items_;
  std::vector<NodeId> child_nodes_;
  std::vector<uint8_t> child_leaf_;
  /// Root children: item -> node.
  std::vector<NodeId> level1_;
  std::vector<NodeId> free_nodes_;
  /// Child bitmaps of the wide nodes (Node::probe), with free slots.
  std::vector<RankBitmap> probes_;
  std::vector<uint16_t> free_probes_;
  /// Edge-pool holes (the old blocks of relocated or erased nodes) by
  /// capacity: holes_[b] holds the first slots of free blocks of 2^b
  /// slots (every block capacity is a power of two).
  std::vector<std::vector<uint32_t>> holes_;
  /// Retired rows by owning node, and their total entry count.
  std::unordered_map<NodeId, RetiredRow> rows_;
  size_t retired_live_ = 0;
  /// Every row's first_delta is current (see NumberRetired).
  bool rows_numbered_ = true;
  size_t num_tracked_ = 0;
  size_t num_frequent_ = 0;
  bool frequent_stale_ = false;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_ITEMSET_TRIE_H_
