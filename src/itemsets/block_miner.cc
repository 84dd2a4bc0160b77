#include "itemsets/block_miner.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"

namespace demon {

namespace block_miner_internal {

namespace {

// The one loop body of both kernels: inlined into each, so the hardware
// twin's __builtin_popcountll compiles to POPCNT and the portable one's
// to the compiler's generic bit count.
[[gnu::always_inline]] inline uint64_t AndCountBody(const uint64_t* a,
                                                    const uint64_t* b,
                                                    uint64_t* out,
                                                    size_t words) {
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    out[w] = a[w] & b[w];
    count += static_cast<uint64_t>(__builtin_popcountll(out[w]));
  }
  return count;
}

}  // namespace

uint64_t AndCountPortable(const uint64_t* a, const uint64_t* b,
                          uint64_t* out, size_t words) {
  return AndCountBody(a, b, out, words);
}

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("popcnt")]] uint64_t AndCountHardware(const uint64_t* a,
                                                    const uint64_t* b,
                                                    uint64_t* out,
                                                    size_t words) {
  return AndCountBody(a, b, out, words);
}

bool HasHardwarePopcount() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt");
}

#else

uint64_t AndCountHardware(const uint64_t* a, const uint64_t* b,
                          uint64_t* out, size_t words) {
  return AndCountBody(a, b, out, words);
}

bool HasHardwarePopcount() { return false; }

#endif

}  // namespace block_miner_internal

namespace {

using AndCountFn = uint64_t (*)(const uint64_t*, const uint64_t*, uint64_t*,
                                size_t);

/// The frequent k-itemsets of one level in ItemsetLess order: each one's
/// node, its k items (flat), and — from level 2 on — its record bitset.
struct Level {
  size_t k = 0;
  std::vector<ItemsetTrie::NodeId> nodes;
  std::vector<Item> items;
  std::vector<uint64_t> bits;

  size_t size() const { return nodes.size(); }
};

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

}  // namespace

void MineBlockInto(const TransactionBlock& block, ItemsetModel* out) {
  static const AndCountFn and_count =
      block_miner_internal::HasHardwarePopcount()
          ? block_miner_internal::AndCountHardware
          : block_miner_internal::AndCountPortable;

  ItemsetModel& model = *out;
  model.Clear();
  model.set_num_transactions(block.size());
  const uint64_t min_count = model.MinCount();
  const size_t num_items = model.num_items();
  ItemsetTrie& trie = *model.mutable_entries();
  const std::vector<Item>& slots = block.items();
  const std::vector<uint32_t>& ends = block.ends();

  // Level 1: every item of the universe, counted over the item slots.
  std::vector<uint64_t> item_counts(num_items, 0);
  for (const Item item : slots) {
    DEMON_CHECK_MSG(item < num_items, "item outside universe");
    ++item_counts[item];
  }
  Level prev;
  prev.k = 1;
  std::vector<uint32_t> slot_of(num_items, kNoSlot);
  for (Item item = 0; item < num_items; ++item) {
    const bool frequent = item_counts[item] >= min_count;
    const ItemsetTrie::NodeId node = trie.InsertChild(
        ItemsetTrie::kRoot, item, ItemsetModel::Entry{item_counts[item],
                                                      frequent});
    if (!frequent) continue;
    slot_of[item] = static_cast<uint32_t>(prev.size());
    prev.nodes.push_back(node);
    prev.items.push_back(item);
  }
  if (prev.size() < 2) return;

  // Record bitmaps of the frequent items: bit r of row slot_of[x] is set
  // when record r holds x.
  const size_t words = (block.size() + 63) / 64;
  std::vector<uint64_t> item_bits(prev.size() * words, 0);
  uint32_t begin = 0;
  for (size_t record = 0; record < ends.size(); ++record) {
    const uint64_t bit = uint64_t{1} << (record % 64);
    uint64_t* const column = item_bits.data() + record / 64;
    for (uint32_t p = begin; p < ends[record]; ++p) {
      const uint32_t slot = slot_of[slots[p]];
      if (slot != kNoSlot) column[slot * words] |= bit;
    }
    begin = ends[record];
  }

  // Levels k >= 2: join frequent siblings, prune, count, insert.
  Level next;
  std::vector<Item> candidate;
  std::vector<uint64_t> scratch(words);
  while (prev.size() >= 2) {
    const size_t m = prev.k;
    const size_t k = m + 1;
    next.k = k;
    next.nodes.clear();
    next.items.clear();
    next.bits.clear();
    candidate.resize(k);
    const uint64_t* const prefix_bits =
        m == 1 ? item_bits.data() : prev.bits.data();
    size_t group = 0;
    while (group < prev.size()) {
      // Siblings: the run of itemsets under one parent node.
      const ItemsetTrie::NodeId parent = trie.parent(prev.nodes[group]);
      size_t group_end = group + 1;
      while (group_end < prev.size() &&
             trie.parent(prev.nodes[group_end]) == parent) {
        ++group_end;
      }
      for (size_t a = group; a < group_end; ++a) {
        const Item* const a_items = prev.items.data() + a * m;
        std::copy(a_items, a_items + m, candidate.begin());
        const uint64_t* const a_bits = prefix_bits + a * words;
        for (size_t b = a + 1; b < group_end; ++b) {
          const Item last = prev.items[b * m + m - 1];
          candidate[m] = last;
          // Subsets without position m - 1 or m are b and a themselves.
          bool keep = true;
          for (size_t drop = 0; drop + 2 < k && keep; ++drop) {
            keep = trie.IsFrequentNode(
                trie.FindWithout(candidate.data(), k, drop));
          }
          if (!keep) continue;
          const uint64_t count =
              and_count(a_bits, item_bits.data() + slot_of[last] * words,
                        scratch.data(), words);
          const bool frequent = count >= min_count;
          const ItemsetTrie::NodeId node = trie.InsertChild(
              prev.nodes[a], last, ItemsetModel::Entry{count, frequent});
          if (!frequent) continue;
          next.nodes.push_back(node);
          next.items.insert(next.items.end(), candidate.begin(),
                            candidate.end());
          next.bits.insert(next.bits.end(), scratch.begin(), scratch.end());
        }
      }
      group = group_end;
    }
    std::swap(prev, next);
  }
}

}  // namespace demon
