#include "itemsets/itemset_model.h"

#include <algorithm>

namespace demon {

std::vector<std::pair<Item, Item>> ItemsetModel::Frequent2ItemsetsBySupport()
    const {
  // Frequent 2-itemsets sit under frequent (or interior) 1-itemset nodes.
  std::vector<std::pair<std::pair<Item, Item>, uint64_t>> pairs;
  entries_.ForEachChild(ItemsetTrie::kRoot, [&](ItemsetTrie::NodeId first) {
    if (!entries_.IsFrequentNode(first) && !entries_.has_children(first)) {
      return;
    }
    entries_.ForEachChild(first, [&](ItemsetTrie::NodeId second) {
      if (!entries_.IsFrequentNode(second)) return;
      pairs.push_back({{entries_.item(first), entries_.item(second)},
                       entries_.entry(second).count});
    });
  });
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::pair<Item, Item>> out;
  out.reserve(pairs.size());
  for (const auto& [pair, count] : pairs) out.push_back(pair);
  return out;
}

void ItemsetModel::AuditInto(audit::AuditResult* audit) const {
  constexpr char kModule[] = "borders";
  const uint64_t min_count = MinCount();

  entries_.AuditInto(audit);

  size_t tracked_singletons = 0;
  entries_.ForEachTracked([&](const Itemset& itemset,
                              ItemsetTrie::NodeId node) {
    const Entry& entry = entries_.entry(node);
    const std::string name = demon::ToString(itemset);

    AUDIT_CHECK(audit, kModule, "borders/key-well-formed",
                !itemset.empty() &&
                    std::is_sorted(itemset.begin(), itemset.end()) &&
                    std::adjacent_find(itemset.begin(), itemset.end()) ==
                        itemset.end() &&
                    itemset.back() < num_items_,
                audit::Msg() << "tracked itemset " << name
                             << " must be non-empty, strictly sorted, and "
                                "within the universe of "
                             << num_items_ << " items",
                "");
    if (itemset.size() == 1) ++tracked_singletons;

    AUDIT_CHECK(audit, kModule, "borders/count-bounded",
                entry.count <= num_transactions_,
                audit::Msg() << name << " has count " << entry.count
                             << " > total transactions " << num_transactions_,
                "");
    AUDIT_CHECK(audit, kModule, "borders/frequent-flag",
                entry.frequent == (entry.count >= min_count),
                audit::Msg() << name << " has count " << entry.count
                             << " against MinCount() " << min_count
                             << " but frequent=" << entry.frequent,
                "");

    if (itemset.size() < 2) return;
    // Closure (frequent case) and the negative-border property (infrequent
    // case): either way every (k-1)-subset must be tracked and frequent,
    // with a count no smaller than this entry's (support monotonicity).
    for (size_t drop = 0; drop < itemset.size(); ++drop) {
      const ItemsetTrie::NodeId subset =
          entries_.FindWithout(itemset.data(), itemset.size(), drop);
      if (!entries_.IsFrequentNode(subset)) {
        AUDIT_FAIL(audit, kModule,
                   entry.frequent ? "borders/closure"
                                  : "borders/negative-border",
                   audit::Msg()
                       << (entry.frequent ? "frequent itemset "
                                          : "border itemset ")
                       << name << " has subset "
                       << demon::ToString(WithoutIndex(itemset, drop))
                       << (subset == ItemsetTrie::kNoNode
                               ? " untracked"
                               : " tracked but infrequent"),
                   audit::Msg() << "count=" << entry.count
                                << " min_count=" << min_count);
        continue;
      }
      const uint64_t subset_count = entries_.entry(subset).count;
      AUDIT_CHECK(audit, kModule, "borders/support-monotone",
                  subset_count >= entry.count,
                  audit::Msg() << "subset "
                               << demon::ToString(WithoutIndex(itemset, drop))
                               << " has count " << subset_count
                               << " < superset " << name << " count "
                               << entry.count,
                  "");
    }
  });

  // A non-empty model must track the full 1-itemset layer — L1 ∪ NB1- is
  // the whole universe, which is what makes border-based detection work.
  AUDIT_CHECK(audit, kModule, "borders/one-layer-complete",
              entries_.empty() || tracked_singletons == num_items_,
              audit::Msg() << "model tracks " << tracked_singletons << " of "
                           << num_items_ << " 1-itemsets",
              "");
}

}  // namespace demon
