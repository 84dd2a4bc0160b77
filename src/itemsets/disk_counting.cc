#include "itemsets/disk_counting.h"

#include <algorithm>

#include "common/check.h"
#include "itemsets/itemset_trie.h"

namespace demon {

Result<std::vector<uint64_t>> PtScanCountDisk(
    const std::vector<Itemset>& itemsets,
    const std::vector<TransactionFileScanner*>& scanners,
    CountingStats* stats) {
  ItemsetTrie trie;
  std::vector<ItemsetTrie::NodeId> nodes;
  nodes.reserve(itemsets.size());
  for (const Itemset& itemset : itemsets) nodes.push_back(trie.Insert(itemset));

  for (TransactionFileScanner* scanner : scanners) {
    const uint64_t before = scanner->bytes_read();
    DEMON_RETURN_NOT_OK(scanner->Scan(
        [&trie](TransactionView t) { trie.CountTransaction(t); }));
    if (stats != nullptr) {
      stats->slots_fetched += (scanner->bytes_read() - before) / sizeof(Item);
    }
  }
  std::vector<uint64_t> counts;
  counts.reserve(itemsets.size());
  for (const ItemsetTrie::NodeId node : nodes) {
    counts.push_back(trie.entry(node).count);
  }
  return counts;
}

namespace {

// Plans the lists used to count `itemset` in one block: pairs (by index
// length, smallest first, both items uncovered) then single items.
struct ListPlan {
  std::vector<std::pair<Item, Item>> pairs;
  std::vector<Item> items;
};

ListPlan PlanLists(const TidListFileReader& reader, const Itemset& itemset,
                   bool use_pair_lists) {
  ListPlan plan;
  const size_t k = itemset.size();
  if (!use_pair_lists || k < 2) {
    plan.items.assign(itemset.begin(), itemset.end());
    return plan;
  }
  std::vector<bool> covered(k, false);
  for (;;) {
    size_t best_i = 0;
    size_t best_j = 0;
    size_t best_length = 0;
    bool found = false;
    for (size_t i = 0; i < k; ++i) {
      if (covered[i]) continue;
      for (size_t j = i + 1; j < k; ++j) {
        if (covered[j]) continue;
        if (!reader.HasPairList(itemset[i], itemset[j])) continue;
        const size_t length = reader.PairListLength(itemset[i], itemset[j]);
        if (!found || length < best_length) {
          found = true;
          best_length = length;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (!found) break;
    plan.pairs.push_back({itemset[best_i], itemset[best_j]});
    covered[best_i] = true;
    covered[best_j] = true;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!covered[i]) plan.items.push_back(itemset[i]);
  }
  return plan;
}

}  // namespace

Result<std::vector<uint64_t>> EcutCountDisk(
    const std::vector<Itemset>& itemsets,
    const std::vector<TidListFileReader*>& readers, bool use_pair_lists,
    CountingStats* stats) {
  std::vector<uint64_t> counts(itemsets.size(), 0);
  std::vector<TidList> fetched;
  for (size_t s = 0; s < itemsets.size(); ++s) {
    const Itemset& itemset = itemsets[s];
    DEMON_CHECK(!itemset.empty());
    uint64_t count = 0;
    for (TidListFileReader* reader : readers) {
      const ListPlan plan = PlanLists(*reader, itemset, use_pair_lists);
      fetched.clear();
      fetched.resize(plan.pairs.size() + plan.items.size());
      size_t slot = 0;
      const uint64_t before = reader->bytes_read();
      for (const auto& [a, b] : plan.pairs) {
        DEMON_RETURN_NOT_OK(reader->ReadPairList(a, b, &fetched[slot++]));
      }
      for (Item item : plan.items) {
        DEMON_RETURN_NOT_OK(reader->ReadItemList(item, &fetched[slot++]));
      }
      if (stats != nullptr) {
        stats->lists_opened += fetched.size();
        stats->slots_fetched +=
            (reader->bytes_read() - before) / sizeof(uint32_t);
      }
      std::vector<const TidList*> pointers;
      pointers.reserve(fetched.size());
      for (const TidList& list : fetched) pointers.push_back(&list);
      count += IntersectionSize(pointers);
    }
    counts[s] = count;
  }
  return counts;
}

}  // namespace demon
