#include "itemsets/fup.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "itemsets/apriori.h"
#include "itemsets/candidate_generation.h"
#include "itemsets/counting_context.h"

namespace demon {

namespace {

uint64_t CeilCount(double minsup, uint64_t n) {
  const double exact = minsup * static_cast<double>(n);
  uint64_t count = static_cast<uint64_t>(exact);
  if (static_cast<double>(count) < exact) ++count;
  return count == 0 ? 1 : count;
}

}  // namespace

FupMaintainer::FupMaintainer(double minsup, size_t num_items)
    : minsup_(minsup), num_items_(num_items), model_(minsup, num_items) {
  DEMON_CHECK(minsup_ > 0.0 && minsup_ < 1.0);
}

void FupMaintainer::AddBlock(std::shared_ptr<const TransactionBlock> block) {
  DEMON_CHECK(block != nullptr);
  last_stats_ = Stats{};
  telemetry::ScopedTimer timer;

  if (blocks_.empty()) {
    blocks_.push_back(std::move(block));
    model_ = Apriori(blocks_, minsup_, num_items_);
    // FUP keeps only the frequent itemsets: drop the border Apriori built.
    for (const Itemset& itemset : model_.NegativeBorder()) {
      model_.mutable_entries()->erase(itemset);
    }
    last_stats_.seconds = timer.Stop();
    return;
  }

  const TransactionBlock& db = *block;
  const uint64_t new_total = model_.num_transactions() + db.size();
  const uint64_t min_count = CeilCount(minsup_, new_total);
  const uint64_t min_count_db = CeilCount(minsup_, db.size());
  const std::vector<std::shared_ptr<const TransactionBlock>> db_only = {block};
  CountingContext counting;

  // Old frequent itemsets grouped by size, for the level-wise pass.
  std::vector<std::vector<Itemset>> old_by_size;
  model_.entries().ForEachTracked([&](const Itemset& itemset,
                                      ItemsetTrie::NodeId) {
    if (old_by_size.size() < itemset.size()) old_by_size.resize(itemset.size());
    old_by_size[itemset.size() - 1].push_back(itemset);
  });

  ItemsetModel updated(minsup_, num_items_);  // the new L under construction
  updated.set_num_transactions(new_total);
  ItemsetTrie& new_counts = *updated.mutable_entries();
  auto add_winner = [&new_counts](const Itemset& itemset, uint64_t count) {
    new_counts.Insert(itemset, ItemsetModel::Entry{count, true});
  };
  std::vector<Itemset> level_prev;  // L_{k-1} of the new model

  for (size_t k = 1;; ++k) {
    std::vector<Itemset> winners;

    // (a) Re-validate old frequent k-itemsets with one scan of db.
    if (k <= old_by_size.size() && !old_by_size[k - 1].empty()) {
      const auto& old_level = old_by_size[k - 1];
      const std::vector<uint64_t> db_counts = counting.PtScan(old_level, db_only);
      for (size_t i = 0; i < old_level.size(); ++i) {
        const uint64_t total = model_.CountOf(old_level[i]) + db_counts[i];
        if (total >= min_count) {
          add_winner(old_level[i], total);
          winners.push_back(old_level[i]);
        }
      }
    }

    // (b) New candidates from the updated L_{k-1}, minus already-known
    // winners; FUP's pruning lemma: they must be frequent within db.
    std::vector<Itemset> candidates;
    if (k == 1) {
      // New frequent 1-itemsets can only be items frequent in db that
      // were not frequent before.
      for (Item item = 0; item < num_items_; ++item) {
        const Itemset single{item};
        if (!updated.Contains(single) && !model_.Contains(single)) {
          candidates.push_back(single);
        }
      }
    } else {
      auto is_frequent_new = [&updated](const Itemset& s) {
        return updated.Contains(s);
      };
      for (Itemset& candidate :
           GenerateCandidates(level_prev, is_frequent_new)) {
        if (!updated.Contains(candidate) && !model_.Contains(candidate)) {
          candidates.push_back(std::move(candidate));
        }
      }
    }

    if (!candidates.empty()) {
      const std::vector<uint64_t> db_counts = counting.PtScan(candidates, db_only);
      std::vector<Itemset> survivors;
      std::vector<uint64_t> survivor_db_counts;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (db_counts[i] >= min_count_db) {
          survivors.push_back(std::move(candidates[i]));
          survivor_db_counts.push_back(db_counts[i]);
        }
      }
      if (!survivors.empty()) {
        // The expensive step FUP is known for: scan the old database.
        ++last_stats_.old_db_scans;
        last_stats_.candidates_counted += survivors.size();
        const std::vector<uint64_t> old_counts = counting.PtScan(survivors, blocks_);
        for (size_t i = 0; i < survivors.size(); ++i) {
          const uint64_t total = old_counts[i] + survivor_db_counts[i];
          if (total >= min_count) {
            add_winner(survivors[i], total);
            winners.push_back(survivors[i]);
          }
        }
      }
    }

    if (winners.empty()) break;
    level_prev = std::move(winners);
  }

  // Install the new model.
  blocks_.push_back(std::move(block));
  model_ = std::move(updated);
  last_stats_.seconds = timer.Stop();
}

}  // namespace demon
