#ifndef DEMON_ITEMSETS_APRIORI_H_
#define DEMON_ITEMSETS_APRIORI_H_

#include <memory>
#include <vector>

#include "data/block.h"
#include "itemsets/itemset_model.h"

namespace demon {

class CountingContext;

/// \brief Apriori [AS94]: mines the frequent itemsets L(D, κ) *and* the
/// negative border NB-(D, κ) with exact counts from the given blocks.
///
/// The negative border falls out of Apriori for free: the candidates of
/// level k are exactly the k-itemsets all of whose (k-1)-subsets are
/// frequent, and the infrequent ones among them are NB- members. Level 1
/// treats every item of the universe as a candidate so the border is
/// complete (infrequent single items are border members too).
///
/// This is the from-scratch model constructor; BordersMaintainer evolves
/// its result incrementally. It also serves as the ground truth the test
/// suite compares incremental maintenance against.
///
/// `context` parallelizes the level-wise counting scans when it carries a
/// thread pool (results are bit-identical either way); null counts
/// sequentially.
ItemsetModel Apriori(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    double minsup, size_t num_items, CountingContext* context = nullptr);

/// Apriori into an existing model: `*model` is emptied (see
/// ItemsetModel::Clear, which keeps its trie's capacity) and mined at its
/// own minsup over its own item universe, exactly as Apriori() would.
void AprioriInto(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingContext* context, ItemsetModel* model);

/// Convenience overload for a single block.
ItemsetModel AprioriOnBlock(const TransactionBlock& block, double minsup,
                            size_t num_items);

}  // namespace demon

#endif  // DEMON_ITEMSETS_APRIORI_H_
