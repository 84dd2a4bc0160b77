#include "itemsets/itemset_trie.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

namespace demon {

namespace {

// A node gets a child bitmap once it has this many children, and at least
// one per kItemsPerWideChild items of its universe (one past its largest
// child item). At that density the bitmap and its uint32 rank per word,
// 12 bytes per 64 items, cost no more than the node's 8-byte edges. A
// bitmap is kept while the children stay above half that density of its
// own items, so it never costs more than twice the edges; past that (a
// child far beyond the bitmap, or children erased) it is rebuilt to the
// node's universe if the node is still wide, else released. Retired rows
// get bitmaps by the same rule, their entries standing for children.
constexpr uint32_t kMinWideChildren = 16;
constexpr uint64_t kItemsPerWideChild = 43;

bool WideEnough(uint64_t children, uint64_t universe) {
  return children >= kMinWideChildren &&
         children * kItemsPerWideChild >= universe;
}

// One past the largest of the `n` ascending `items` (0 when empty).
uint64_t UniverseOf(const Item* items, size_t n) {
  return n == 0 ? 0 : uint64_t{items[n - 1]} + 1;
}

}  // namespace

// True when `bitmap` indexes exactly the `n` ascending `items` and is
// within the release bound of the density rule.
bool ItemsetTrie::BitmapFits(const RankBitmap& bitmap, const Item* items,
                             size_t n) {
  if (!WideEnough(2 * uint64_t{n}, bitmap.limit())) return false;
  size_t bits = 0;
  for (const uint64_t word : bitmap.bits) bits += std::popcount(word);
  if (bits != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (items[i] >= bitmap.limit() ||
        bitmap.IndexOf(items[i]) != static_cast<int64_t>(i)) {
      return false;
    }
  }
  return true;
}

void ItemsetTrie::Clear() {
  nodes_.clear();
  nodes_.push_back(Node{});
  entries_.clear();
  entries_.push_back(Entry{});
  child_items_.clear();
  child_nodes_.clear();
  child_leaf_.clear();
  level1_.clear();
  free_nodes_.clear();
  probes_.clear();
  free_probes_.clear();
  holes_.clear();
  rows_.clear();
  retired_live_ = 0;
  rows_numbered_ = true;
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
  Node& n = nodes_[node];
  DEMON_CHECK(!n.has_row && n.probe == 0 && n.child_capacity == 0);
  n.parent = parent;
  n.item = item;
  n.child_count = 0;
  n.tracked = false;
  entries_[node] = Entry{};
  return node;
}

uint32_t ItemsetTrie::AllocateBlock(uint32_t capacity) {
  const auto size_class = static_cast<size_t>(std::countr_zero(capacity));
  if (size_class < holes_.size() && !holes_[size_class].empty()) {
    const uint32_t begin = holes_[size_class].back();
    holes_[size_class].pop_back();
    return begin;
  }
  const auto begin = static_cast<uint32_t>(child_items_.size());
  child_items_.resize(begin + capacity);
  child_nodes_.resize(begin + capacity);
  child_leaf_.resize(begin + capacity);
  return begin;
}

void ItemsetTrie::FreeBlock(uint32_t begin, uint32_t capacity) {
  const auto size_class = static_cast<size_t>(std::countr_zero(capacity));
  if (holes_.size() <= size_class) holes_.resize(size_class + 1);
  holes_[size_class].push_back(begin);
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
    // Relocate the block to one of doubled capacity; the old block
    // becomes a hole.
    const uint32_t capacity = std::max<uint32_t>(2, 2 * n.child_capacity);
    const uint32_t fresh = AllocateBlock(capacity);
    std::copy_n(child_items_.begin() + n.child_begin, n.child_count,
                child_items_.begin() + fresh);
    std::copy_n(child_nodes_.begin() + n.child_begin, n.child_count,
                child_nodes_.begin() + fresh);
    std::copy_n(child_leaf_.begin() + n.child_begin, n.child_count,
                child_leaf_.begin() + fresh);
    if (n.child_capacity > 0) FreeBlock(n.child_begin, n.child_capacity);
    n.child_begin = fresh;
    n.child_capacity = capacity;
  }
  const uint32_t at = n.child_begin + pos;
  const uint32_t tail = n.child_begin + n.child_count;
  std::copy_backward(child_items_.begin() + at, child_items_.begin() + tail,
                     child_items_.begin() + tail + 1);
  std::copy_backward(child_nodes_.begin() + at, child_nodes_.begin() + tail,
                     child_nodes_.begin() + tail + 1);
  std::copy_backward(child_leaf_.begin() + at, child_leaf_.begin() + tail,
                     child_leaf_.begin() + tail + 1);
  child_items_[at] = item;
  child_nodes_[at] = child;
  child_leaf_[at] = 1;  // a fresh node has no children and no row
  if (++n.child_count == 1) UpdateLeafFlag(node);
  UpdateProbe(node, item, /*inserted=*/true);
  return child;
}

void ItemsetTrie::UpdateLeafFlag(NodeId node) {
  const NodeId parent = nodes_[node].parent;
  if (parent == kRoot) return;  // level-1 nodes have no edge slot
  const Node& p = nodes_[parent];
  const Item* const first = child_items_.data() + p.child_begin;
  const Item* const it =
      std::lower_bound(first, first + p.child_count, nodes_[node].item);
  DEMON_CHECK(it != first + p.child_count && *it == nodes_[node].item);
  child_leaf_[it - child_items_.data()] = IsLeaf(node);
}

void ItemsetTrie::RankBitmap::Build(const Item* items, size_t n) {
  const size_t words = n == 0 ? 0 : items[n - 1] / 64 + 1;
  bits.assign(words, 0);
  ranks.assign(words, 0);
  for (size_t i = 0; i < n; ++i) {
    bits[items[i] / 64] |= uint64_t{1} << (items[i] % 64);
  }
  uint32_t rank = 0;
  for (size_t w = 0; w < words; ++w) {
    ranks[w] = rank;
    rank += static_cast<uint32_t>(std::popcount(bits[w]));
  }
}

bool ItemsetTrie::RankBitmap::Update(Item item, bool inserted) {
  const size_t word = item / 64;
  if (word >= bits.size()) return false;
  const uint64_t bit = uint64_t{1} << (item % 64);
  bits[word] = inserted ? bits[word] | bit : bits[word] & ~bit;
  for (size_t w = word + 1; w < ranks.size(); ++w) {
    ranks[w] = inserted ? ranks[w] + 1 : ranks[w] - 1;
  }
  return true;
}

bool ItemsetTrie::RankBitmap::Follow(const Item* items, size_t n, Item item,
                                     bool inserted) {
  if (Update(item, inserted) && WideEnough(2 * uint64_t{n}, limit())) {
    return true;
  }
  // The item lies past the bitmap, or the items thinned out: resize the
  // bitmap to their universe while they are still wide.
  if (!WideEnough(n, UniverseOf(items, n))) return false;
  const size_t word = item / 64;
  if (!inserted || word < bits.size()) {
    Build(items, n);
    return true;
  }
  // `item` is the largest of the items, and the other n - 1 lie below
  // limit(): every new word ranks all of them.
  bits.resize(word + 1, 0);
  ranks.resize(word + 1, static_cast<uint32_t>(n - 1));
  bits[word] |= uint64_t{1} << (item % 64);
  return true;
}

void ItemsetTrie::UpdateProbe(NodeId node, Item item, bool inserted) {
  const Node& n = nodes_[node];
  const Item* const items = child_items_.data() + n.child_begin;
  if (n.probe == 0) {
    if (inserted &&
        WideEnough(n.child_count, UniverseOf(items, n.child_count))) {
      BuildProbe(node);
    }
    return;
  }
  if (!probes_[n.probe - 1].Follow(items, n.child_count, item, inserted)) {
    ReleaseProbe(node);
  }
}

void ItemsetTrie::BuildProbe(NodeId node) {
  Node& n = nodes_[node];
  if (n.probe == 0) {
    if (!free_probes_.empty()) {
      n.probe = free_probes_.back();
      free_probes_.pop_back();
    } else if (probes_.size() < std::numeric_limits<uint16_t>::max()) {
      probes_.emplace_back();
      n.probe = static_cast<uint16_t>(probes_.size());
    } else {
      return;  // out of bitmap slots: the node keeps the binary search
    }
  }
  probes_[n.probe - 1].Build(child_items_.data() + n.child_begin,
                             n.child_count);
}

void ItemsetTrie::ReleaseProbe(NodeId node) {
  Node& n = nodes_[node];
  probes_[n.probe - 1] = RankBitmap{};
  free_probes_.push_back(n.probe);
  n.probe = 0;
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
  Track(node, entry);
  return node;
}

ItemsetTrie::NodeId ItemsetTrie::InsertChild(NodeId parent, Item item,
                                             const Entry& entry) {
  DEMON_CHECK_MSG(parent == kRoot || nodes_[parent].item < item,
                  "itemset must be strictly increasing");
  const NodeId node = ChildOrInsert(parent, item);
  Track(node, entry);
  return node;
}

void ItemsetTrie::Track(NodeId node, const Entry& entry) {
  if (nodes_[node].tracked) return;
  nodes_[node].tracked = true;
  entries_[node] = entry;
  ++num_tracked_;
  if (entry.frequent && !frequent_stale_) ++num_frequent_;
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
  const size_t tail = n.child_begin + n.child_count;
  std::copy(it + 1, last, it);
  std::copy(child_nodes_.begin() + at + 1, child_nodes_.begin() + tail,
            child_nodes_.begin() + at);
  std::copy(child_leaf_.begin() + at + 1, child_leaf_.begin() + tail,
            child_leaf_.begin() + at);
  if (--n.child_count == 0) UpdateLeafFlag(parent);
  UpdateProbe(parent, item, /*inserted=*/false);
}

void ItemsetTrie::Erase(NodeId node) {
  DEMON_CHECK(node != kRoot && node < nodes_.size() && nodes_[node].tracked);
  if (entries_[node].frequent && !frequent_stale_) --num_frequent_;
  DropRetired(node);
  nodes_[node].tracked = false;
  entries_[node] = Entry{};
  --num_tracked_;
  // Release the node and every ancestor it leaves untracked and childless.
  while (node != kRoot && !nodes_[node].tracked &&
         nodes_[node].child_count == 0) {
    const NodeId parent = nodes_[node].parent;
    RemoveChild(parent, node);
    Node& freed = nodes_[node];
    if (freed.child_capacity > 0) {
      FreeBlock(freed.child_begin, freed.child_capacity);
      freed.child_capacity = 0;
    }
    freed.parent = kNoNode;
    free_nodes_.push_back(node);
    node = parent;
  }
}

void ItemsetTrie::Retire(NodeId node, const Item* items,
                         const uint64_t* counts, size_t n) {
  DEMON_CHECK(node != kRoot && node < nodes_.size() && nodes_[node].tracked);
  if (n == 0) return;
  // Merge into fresh arrays sized to the row, so a row holds no slack.
  RetiredRow& row = rows_[node];
  const size_t size = row.items.size() + n;
  std::vector<Item> merged_items;
  std::vector<uint32_t> merged_counts;
  merged_items.reserve(size);
  merged_counts.reserve(size);
  size_t old = 0;
  size_t fresh = 0;
  while (merged_items.size() < size) {
    const bool take_old =
        fresh == n || (old < row.items.size() && row.items[old] < items[fresh]);
    DEMON_CHECK_MSG(take_old || fresh == 0 || items[fresh - 1] < items[fresh],
                    "retired items must ascend");
    DEMON_CHECK_MSG(take_old || old == row.items.size() ||
                        items[fresh] != row.items[old],
                    "extension is already retired");
    if (take_old) {
      merged_items.push_back(row.items[old]);
      merged_counts.push_back(row.counts[old++]);
    } else {
      merged_items.push_back(items[fresh]);
      merged_counts.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(counts[fresh++], kRetiredCountUnknown)));
    }
  }
  row.items = std::move(merged_items);
  row.counts = std::move(merged_counts);
  row.index = RankBitmap{};
  if (WideEnough(size, UniverseOf(row.items.data(), size))) {
    row.index.Build(row.items.data(), size);
  }
  retired_live_ += n;
  rows_numbered_ = false;
  if (!nodes_[node].has_row) {
    nodes_[node].has_row = true;
    UpdateLeafFlag(node);
  }
}

bool ItemsetTrie::TakeRetired(NodeId node, Item item, uint64_t* count) {
  if (node == kNoNode || !nodes_[node].has_row) return false;
  const auto it = rows_.find(node);
  RetiredRow& row = it->second;
  const auto entry = std::lower_bound(row.items.begin(), row.items.end(), item);
  if (entry == row.items.end() || *entry != item) return false;
  const auto at = entry - row.items.begin();
  const uint32_t retired = row.counts[at];
  row.items.erase(entry);
  row.counts.erase(row.counts.begin() + at);
  --retired_live_;
  rows_numbered_ = false;
  if (row.items.empty()) {
    rows_.erase(it);
    nodes_[node].has_row = false;
    UpdateLeafFlag(node);
  } else {
    if (2 * row.items.size() < row.items.capacity()) {
      row.items.shrink_to_fit();
      row.counts.shrink_to_fit();
    }
    if (!row.index.empty() &&
        !row.index.Follow(row.items.data(), row.items.size(), item,
                          /*inserted=*/false)) {
      row.index = RankBitmap{};
    }
  }
  if (retired == kRetiredCountUnknown) return false;
  *count = retired;
  return true;
}

void ItemsetTrie::FoldRetired(NodeId node, const Item* begin,
                              const Item* end, uint32_t* retired) const {
  const RetiredRow& row = rows_.find(node)->second;
  uint32_t* const deltas = retired + row.first_delta;
  if (!row.index.empty()) {
    const RankBitmap& index = row.index;
    for (const Item* p = begin; p != end && *p < index.limit(); ++p) {
      const int64_t at = index.IndexOf(*p);
      if (at >= 0) ++deltas[at];
    }
    return;
  }
  const Item* const first = row.items.data();
  const Item* entry = first;
  const Item* const last = first + row.items.size();
  for (const Item* p = begin; p != end && entry != last; ++p) {
    entry = std::lower_bound(entry, last, *p);
    if (entry != last && *entry == *p) ++deltas[entry++ - first];
  }
}

void ItemsetTrie::DropRetired(NodeId node) {
  if (!nodes_[node].has_row) return;
  const auto it = rows_.find(node);
  retired_live_ -= it->second.items.size();
  rows_.erase(it);
  rows_numbered_ = false;
  nodes_[node].has_row = false;
  UpdateLeafFlag(node);
}

size_t ItemsetTrie::NumberRetired() {
  if (!rows_numbered_) {
    DEMON_CHECK_MSG(retired_live_ <= std::numeric_limits<uint32_t>::max(),
                    "too many retired entries to number");
    uint32_t next = 0;
    for (auto& [node, row] : rows_) {
      row.first_delta = next;
      next += static_cast<uint32_t>(row.items.size());
    }
    rows_numbered_ = true;
  }
  return retired_live_;
}

void ItemsetTrie::ApplyRetired(const uint32_t* deltas, int sign) {
  DEMON_CHECK(sign == 1 || sign == -1);
  DEMON_CHECK_MSG(rows_numbered_, "retired rows changed since the walk");
  for (auto& [node, row] : rows_) {
    const uint32_t* const delta = deltas + row.first_delta;
    for (size_t i = 0; i < row.counts.size(); ++i) {
      uint32_t& count = row.counts[i];
      if (delta[i] == 0 || count == kRetiredCountUnknown) continue;
      if (sign > 0) {
        count = static_cast<uint32_t>(std::min<uint64_t>(
            uint64_t{count} + delta[i], kRetiredCountUnknown));
      } else {
        DEMON_CHECK_MSG(count >= delta[i],
                        "deletion underflows a retired count");
        count -= delta[i];
      }
    }
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
         child_leaf_.capacity() * sizeof(uint8_t) +
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

  // Edge blocks: the blocks of live and free nodes and the holes tile the
  // pool, each slot in exactly one of them.
  std::vector<uint8_t> owners(child_items_.size(), 0);
  bool tiled = true;
  const auto claim = [&](size_t begin, size_t capacity) {
    if (begin + capacity > owners.size()) {
      tiled = false;
      return;
    }
    for (size_t e = begin; e < begin + capacity; ++e) tiled &= ++owners[e] == 1;
  };
  for (const Node& n : nodes_) claim(n.child_begin, n.child_capacity);
  for (size_t b = 0; b < holes_.size(); ++b) {
    for (const uint32_t hole : holes_[b]) claim(hole, size_t{1} << b);
  }
  tiled &= std::find(owners.begin(), owners.end(), 0) == owners.end();
  AUDIT_CHECK(audit, kModule, "itemset-trie/edge-blocks", tiled,
              audit::Msg() << "edge blocks and holes do not tile the "
                           << child_items_.size() << "-slot pool",
              "");

  // Leaf flags: each edge slot's flag says whether its child has neither
  // children nor a row. Child bitmaps: only on wide nodes (within the
  // release hysteresis), holding exactly the child items, ranked to their
  // edge slots.
  for (NodeId node = 1; node < nodes_.size(); ++node) {
    const Node& n = nodes_[node];
    if (!reached[node]) continue;
    for (uint32_t e = n.child_begin; e < n.child_begin + n.child_count; ++e) {
      const NodeId child = child_nodes_[e];
      AUDIT_CHECK(audit, kModule, "itemset-trie/leaf-flag",
                  child < nodes_.size() && child_leaf_[e] == IsLeaf(child),
                  audit::Msg() << "edge " << e << " of node " << node
                               << " flags child " << child << " as "
                               << (child_leaf_[e] ? "" : "not ") << "a leaf",
                  "");
    }
    if (n.probe == 0) continue;
    const RankBitmap& probe = probes_[n.probe - 1];
    AUDIT_CHECK(audit, kModule, "itemset-trie/child-bitmap",
                BitmapFits(probe, child_items_.data() + n.child_begin,
                           n.child_count),
                audit::Msg() << "child bitmap of node " << node << " ("
                             << probe.limit() << " items) is too wide for "
                             << "or disagrees with its " << n.child_count
                             << " children",
                "");
  }

  // Retired rows: owned by tracked nodes, ascending, disjoint from the
  // owner's itemset, and accounted for.
  size_t entries = 0;
  size_t flagged = 0;
  for (NodeId node = 1; node < nodes_.size(); ++node) {
    flagged += nodes_[node].has_row;
  }
  Itemset owner;
  for (const auto& [node, row] : rows_) {
    entries += row.items.size();
    const bool owned = node < nodes_.size() && reached[node] &&
                       nodes_[node].tracked && nodes_[node].has_row;
    AUDIT_CHECK(audit, kModule, "itemset-trie/row-owner", owned,
                audit::Msg() << "retired row of node " << node
                             << " has no tracked owner",
                "");
    if (!owned) continue;
    ItemsetOf(node, &owner);
    const Item* const first = row.items.data();
    const Item* const last = first + row.items.size();
    bool sorted = first != last && row.counts.size() == row.items.size() &&
                  std::adjacent_find(first, last, std::greater_equal<>()) ==
                      last;
    for (const Item* x = first; x != last && sorted; ++x) {
      sorted = !std::binary_search(owner.begin(), owner.end(), *x);
    }
    AUDIT_CHECK(audit, kModule, "itemset-trie/row-entries", sorted,
                audit::Msg() << "retired row of " << ToString(owner)
                             << " is empty, unsorted or names an owner item",
                "");
    AUDIT_CHECK(audit, kModule, "itemset-trie/row-bitmap",
                row.index.empty() ||
                    BitmapFits(row.index, first, row.items.size()),
                audit::Msg() << "bitmap of the retired row of "
                             << ToString(owner) << " (" << row.index.limit()
                             << " items) is too wide for or disagrees with "
                             << "its " << row.items.size() << " entries",
                "");
  }
  AUDIT_CHECK(audit, kModule, "itemset-trie/row-count",
              entries == retired_live_ && flagged == rows_.size(),
              audit::Msg() << rows_.size() << " rows of " << entries
                           << " entries, " << flagged << " flagged nodes, "
                           << retired_live_ << " entries accounted",
              "");
}

}  // namespace demon
