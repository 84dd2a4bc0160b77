#ifndef DEMON_ITEMSETS_ITEMSET_MODEL_H_
#define DEMON_ITEMSETS_ITEMSET_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/audit.h"
#include "common/check.h"
#include "itemsets/itemset.h"
#include "itemsets/itemset_trie.h"

namespace demon {

/// \brief The frequent-itemset model maintained by DEMON: the set of
/// frequent itemsets L(D, κ) *and* the negative border NB-(D, κ), each with
/// absolute support counts, plus the total transaction count (paper §3).
///
/// Storing the border with counts is what makes BORDERS-style detection
/// possible: when a block arrives, only the supports of L ∪ NB- need to be
/// refreshed to decide whether the model changed. The entries live in one
/// count-carrying ItemsetTrie, which BORDERS detection counts on directly.
class ItemsetModel {
 public:
  using Entry = ItemsetEntry;

  ItemsetModel() = default;

  /// `minsup` is the fractional minimum support κ in (0, 1); `num_items`
  /// the size of the item universe (needed so the 1-itemset layer of the
  /// border is complete).
  ItemsetModel(double minsup, size_t num_items)
      : minsup_(minsup), num_items_(num_items) {
    DEMON_CHECK(minsup_ > 0.0 && minsup_ < 1.0);
  }

  double minsup() const { return minsup_; }
  /// Changes the threshold (the κ-change scenario of §3.1.1); the caller
  /// (BordersMaintainer::ChangeMinSupport) re-establishes the invariants.
  void set_minsup(double minsup) {
    DEMON_CHECK(minsup > 0.0 && minsup < 1.0);
    minsup_ = minsup;
  }
  size_t num_items() const { return num_items_; }

  /// Empties the model — no itemsets, no transactions — keeping minsup,
  /// the item universe and the trie's capacity.
  void Clear() {
    entries_.Clear();
    num_transactions_ = 0;
  }

  uint64_t num_transactions() const { return num_transactions_; }
  void set_num_transactions(uint64_t n) { num_transactions_ = n; }
  void AddTransactions(uint64_t n) { num_transactions_ += n; }

  /// The absolute count an itemset needs to be frequent:
  /// ceil(minsup * num_transactions), at least 1.
  uint64_t MinCount() const {
    if (num_transactions_ == 0) return 1;
    const double exact = minsup_ * static_cast<double>(num_transactions_);
    uint64_t min_count = static_cast<uint64_t>(exact);
    if (static_cast<double>(min_count) < exact) ++min_count;
    return min_count == 0 ? 1 : min_count;
  }

  /// The tracked itemsets L ∪ NB- with their entries, in ItemsetLess
  /// order.
  const ItemsetTrie& entries() const { return entries_; }
  ItemsetTrie* mutable_entries() { return &entries_; }

  /// True if the itemset is tracked and currently frequent.
  bool IsFrequent(const Itemset& itemset) const {
    return entries_.IsFrequentNode(entries_.Find(itemset));
  }

  /// True if the itemset is tracked (frequent or border).
  bool Contains(const Itemset& itemset) const {
    return entries_.Find(itemset) != ItemsetTrie::kNoNode;
  }

  /// Absolute count of a tracked itemset; 0 for untracked ones (untracked
  /// itemsets are guaranteed infrequent but their count is unknown — this
  /// accessor is for tracked sets; see Entry lookup for distinction).
  uint64_t CountOf(const Itemset& itemset) const {
    const ItemsetTrie::NodeId node = entries_.Find(itemset);
    return node == ItemsetTrie::kNoNode ? 0 : entries_.entry(node).count;
  }

  /// Fractional support of a tracked itemset.
  double SupportOf(const Itemset& itemset) const {
    if (num_transactions_ == 0) return 0.0;
    return static_cast<double>(CountOf(itemset)) /
           static_cast<double>(num_transactions_);
  }

  /// All frequent itemsets, in ItemsetLess order.
  std::vector<Itemset> FrequentItemsets() const {
    std::vector<Itemset> out;
    entries_.ForEachFrequent(
        [&out](const Itemset& itemset, ItemsetTrie::NodeId) {
          out.push_back(itemset);
        });
    return out;
  }

  /// All negative-border itemsets, in ItemsetLess order.
  std::vector<Itemset> NegativeBorder() const {
    std::vector<Itemset> out;
    entries_.ForEachTracked(
        [&](const Itemset& itemset, ItemsetTrie::NodeId node) {
          if (!entries_.entry(node).frequent) out.push_back(itemset);
        });
    return out;
  }

  size_t NumFrequent() const { return entries_.NumFrequent(); }

  size_t NumBorder() const { return entries_.size() - NumFrequent(); }

  /// Frequent 2-itemsets as item pairs sorted by decreasing count — the
  /// materialization priority order of the ECUT+ heuristic (paper §3.1.1).
  std::vector<std::pair<Item, Item>> Frequent2ItemsetsBySupport() const;

  /// Deep audit of the BORDERS model invariants (§3.1.1): keys sorted and
  /// in-universe, counts bounded by the transaction total, frequent flags
  /// consistent with MinCount(), the 1-itemset layer complete (on non-empty
  /// models), downward closure (every (k-1)-subset of a frequent itemset
  /// tracked and frequent), the negative-border property (every tracked
  /// infrequent itemset has all (k-1)-subsets frequent), and support
  /// monotonicity along subset edges. Appends violations to `audit`.
  void AuditInto(audit::AuditResult* audit) const;

 private:
  double minsup_ = 0.01;
  size_t num_items_ = 0;
  uint64_t num_transactions_ = 0;
  ItemsetTrie entries_;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_ITEMSET_MODEL_H_
