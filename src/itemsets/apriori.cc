#include "itemsets/apriori.h"

#include <algorithm>

#include "common/check.h"
#include "itemsets/candidate_generation.h"
#include "itemsets/counting_context.h"

namespace demon {

ItemsetModel Apriori(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    double minsup, size_t num_items, CountingContext* context) {
  ItemsetModel model(minsup, num_items);
  AprioriInto(blocks, context, &model);
  return model;
}

void AprioriInto(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingContext* context, ItemsetModel* out) {
  CountingContext local_context;
  if (context == nullptr) context = &local_context;

  ItemsetModel& model = *out;
  model.Clear();
  const size_t num_items = model.num_items();
  uint64_t num_transactions = 0;
  for (const auto& block : blocks) num_transactions += block->size();
  model.set_num_transactions(num_transactions);
  const uint64_t min_count = model.MinCount();
  ItemsetTrie& trie = *model.mutable_entries();

  // Level 1: count every item with a dense array (cheaper than the tree).
  const std::vector<uint64_t> item_counts =
      context->CountItems(blocks, num_items);
  std::vector<Itemset> frequent_prev;
  for (Item item = 0; item < num_items; ++item) {
    const bool frequent = item_counts[item] >= min_count;
    trie.Insert(Itemset{item}, ItemsetModel::Entry{item_counts[item], frequent});
    if (frequent) frequent_prev.push_back(Itemset{item});
  }

  // Levels k >= 2: generate, count with one scan, split into L_k / border.
  auto is_frequent = [&model](const Itemset& itemset) {
    return model.IsFrequent(itemset);
  };
  while (!frequent_prev.empty()) {
    std::vector<Itemset> candidates =
        GenerateCandidates(std::move(frequent_prev), is_frequent);
    frequent_prev.clear();
    if (candidates.empty()) break;

    const std::vector<uint64_t> counts = context->PtScan(candidates, blocks);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const bool frequent = counts[i] >= min_count;
      trie.Insert(candidates[i], ItemsetModel::Entry{counts[i], frequent});
      if (frequent) frequent_prev.push_back(std::move(candidates[i]));
    }
  }
}

ItemsetModel AprioriOnBlock(const TransactionBlock& block, double minsup,
                            size_t num_items) {
  // Wrap the block in a non-owning shared_ptr: Apriori only reads it.
  auto alias = std::shared_ptr<const TransactionBlock>(
      std::shared_ptr<const TransactionBlock>(), &block);
  return Apriori({alias}, minsup, num_items);
}

}  // namespace demon
