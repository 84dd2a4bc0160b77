#include "itemsets/borders.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "itemsets/apriori.h"
#include "itemsets/model_io.h"
#include "itemsets/support_counting.h"
#include "persistence/block_codec.h"

namespace demon {

namespace {

/// Store options for a maintainer: the environment (the CI soak hook) is
/// the baseline, explicit BordersOptions fields override it.
TidListStoreOptions StoreOptionsFor(const BordersOptions& options) {
  TidListStoreOptions store = TidListStoreOptions::FromEnv();
  if (options.tidlist_budget_bytes != 0) {
    store.memory_budget_bytes = options.tidlist_budget_bytes;
  }
  if (!options.tidlist_spill_dir.empty()) {
    store.spill_dir = options.tidlist_spill_dir;
  }
  return store;
}

/// The items of the frequent 1-itemsets, ascending.
std::vector<Item> FrequentItems(const ItemsetTrie& trie) {
  std::vector<Item> items;
  trie.ForEachChild(ItemsetTrie::kRoot, [&](ItemsetTrie::NodeId node) {
    if (trie.IsFrequentNode(node)) items.push_back(trie.item(node));
  });
  return items;
}

/// Writes `base` ∪ {extension} into `*out` and returns the extension's
/// position in it; false (and `*out` untouched) when `base` holds it.
bool ExtendBy(const Itemset& base, Item extension, Itemset* out,
              size_t* position) {
  const auto at = std::lower_bound(base.begin(), base.end(), extension);
  if (at != base.end() && *at == extension) return false;
  *position = static_cast<size_t>(at - base.begin());
  out->assign(base.begin(), at);
  out->push_back(extension);
  out->insert(out->end(), at, base.end());
  return true;
}

}  // namespace

BordersMaintainer::BordersMaintainer(const BordersOptions& options)
    : options_(options),
      model_(options.minsup, options.num_items),
      tidlists_(StoreOptionsFor(options)) {
  DEMON_CHECK(options_.minsup > 0.0 && options_.minsup < 1.0);
  DEMON_CHECK(options_.num_items > 0);
}

void BordersMaintainer::FoldBlockCounts(const TransactionBlock& block,
                                        int sign) {
  if (model_.entries().empty()) return;
  // Non-owning alias: the counting kernel only reads the block.
  auto alias = std::shared_ptr<const TransactionBlock>(
      std::shared_ptr<const TransactionBlock>(), &block);
  ItemsetTrie& trie = *model_.mutable_entries();
  // The walk also keeps the retired rows exact over the changed history.
  const std::vector<uint64_t>& deltas =
      counting_.PtScanNodes(&trie, {alias}, sign);
  trie.ForEachTrackedNode([&](ItemsetTrie::NodeId node) {
    uint64_t& count = trie.mutable_count(node);
    if (sign > 0) {
      count += deltas[node];
    } else {
      DEMON_CHECK_MSG(count >= deltas[node], "deletion underflows a count");
      count -= deltas[node];
    }
  });
}

void BordersMaintainer::AddBlock(
    std::shared_ptr<const TransactionBlock> block) {
  DEMON_CHECK(block != nullptr);
  AddBlock(std::make_shared<const HistoryBlock>(std::move(block)));
}

void BordersMaintainer::AppendTidLists(const HistoryBlock& block,
                                       const PairMaterializationSpec* spec) {
  std::shared_ptr<const BlockTidLists> items =
      block.ItemLists(options_.num_items, tidlists_.pager(), builds_counter_);
  tidlists_.Append(spec == nullptr
                       ? std::move(items)
                       : BlockTidLists::WithPairs(std::move(items), *spec));
}

void BordersMaintainer::AddBlock(std::shared_ptr<const HistoryBlock> block) {
  DEMON_CHECK(block != nullptr);
  last_stats_ = UpdateStats{};
  // The detection scan reads the new block's records; held here, they
  // outlive the item-list build that lets the history block drop them.
  const std::shared_ptr<const TransactionBlock> records =
      block->Transactions();

  if (uses_tidlists()) {
    // The block's item lists are shared: built by whichever consumer of
    // the block asks first. ECUT+ adds the frequent 2-itemsets of the
    // *current* model, highest support first, within the space budget
    // (paper §3.1.1 heuristic), in lists of its own. This is part of
    // storing the block (the lists replace the transactional format), not
    // of model maintenance, so it is not counted in detection/update time.
    DEMON_TRACE_SPAN(span, telemetry_, "tidlist-build", "borders");
    if (options_.strategy == CountingStrategy::kEcutPlus &&
        !model_.entries().empty()) {
      PairMaterializationSpec spec;
      spec.pairs = model_.Frequent2ItemsetsBySupport();
      spec.budget_slots = static_cast<size_t>(
          options_.pair_budget_fraction *
          static_cast<double>(records->TotalItemOccurrences()));
      AppendTidLists(*block, &spec);
    } else {
      AppendTidLists(*block, nullptr);
    }
  } else {
    transactions_.push_back(records);
  }
  history_.push_back(std::move(block));

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    if (history_.size() == 1 && model_.entries().empty()) {
      // First selected block: build the model from scratch (base case).
      AprioriInto({records}, &counting_, &model_);
      last_stats_.detection_seconds = timer.Stop();
      return;
    }

    // Detection phase: one scan of the new block refreshes the supports of
    // L ∪ NB- and flags any itemset that crossed the threshold.
    FoldBlockCounts(*records, +1);
    model_.AddTransactions(records->size());
    last_stats_.detection_seconds = timer.Stop();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh();
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::Reset() {
  model_.Clear();
  history_.clear();
  transactions_.clear();
  tidlists_.Clear();
  last_stats_ = UpdateStats{};
}

void BordersMaintainer::RemoveBlockAt(size_t index) {
  DEMON_CHECK(index < history_.size());
  last_stats_ = UpdateStats{};

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    // An ECUT/ECUT+ maintainer holds no records: a block nobody else
    // holds comes back transposed from its item lists.
    const auto victim = history_[index]->Transactions();
    FoldBlockCounts(*victim, -1);
    DEMON_CHECK(model_.num_transactions() >= victim->size());
    model_.set_num_transactions(model_.num_transactions() - victim->size());
    history_.erase(history_.begin() + index);
    if (uses_tidlists()) {
      tidlists_.DropAt(index);
    } else {
      transactions_.erase(transactions_.begin() + index);
    }
    last_stats_.detection_seconds = timer.Stop();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh();
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::ChangeMinSupport(double minsup) {
  DEMON_CHECK(minsup > 0.0 && minsup < 1.0);
  options_.minsup = minsup;
  model_.set_minsup(minsup);
  last_stats_ = UpdateStats{};
  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh();
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::Refresh() {
  const uint64_t min_count = model_.MinCount();
  ItemsetTrie& trie = *model_.mutable_entries();

  // Flip frequency flags; newly frequent itemsets seed candidate growth.
  std::vector<ItemsetTrie::NodeId> seeds;
  std::vector<ItemsetTrie::NodeId> demoted;
  trie.ForEachTrackedNode([&](ItemsetTrie::NodeId node) {
    const bool should_be_frequent = trie.entry(node).count >= min_count;
    if (should_be_frequent == trie.entry(node).frequent) return;
    trie.SetFrequent(node, should_be_frequent);
    (should_be_frequent ? seeds : demoted).push_back(node);
  });
  // Demotions invalidate border entries that now have an infrequent subset
  // (footnote 6: delete supersets of demoted itemsets from NB-).
  if (!demoted.empty()) PruneBorder(demoted);

  // Update phase: grow new candidates from the promoted itemsets, count
  // them over the full selected history with the configured strategy, and
  // iterate while new frequent itemsets keep appearing (§3.1.1). A
  // candidate pruned from the border earlier — on a stationary stream,
  // nearly all of them — comes back from its retired row with its exact
  // count; only the never-seen rest is counted.
  while (!seeds.empty()) {
    ++last_stats_.update_iterations;
    std::vector<Itemset> candidates = SeededCandidates(seeds);
    seeds.clear();
    if (candidates.empty()) break;
    last_stats_.new_candidates += candidates.size();
    std::vector<uint64_t> counts(candidates.size());
    std::vector<size_t> unseen_at;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!Revive(candidates[i], &counts[i])) unseen_at.push_back(i);
    }
    last_stats_.revived_candidates += candidates.size() - unseen_at.size();
    if (!unseen_at.empty()) {
      // Counted in place of a copy: moved out and back.
      std::vector<Itemset> unseen;
      unseen.reserve(unseen_at.size());
      for (const size_t i : unseen_at) {
        unseen.push_back(std::move(candidates[i]));
      }
      const std::vector<uint64_t> unseen_counts =
          counting_.Count(options_.strategy, unseen, transactions_,
                          tidlists_, &last_stats_.counting);
      for (size_t j = 0; j < unseen.size(); ++j) {
        counts[unseen_at[j]] = unseen_counts[j];
        candidates[unseen_at[j]] = std::move(unseen[j]);
      }
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      const bool frequent = counts[i] >= min_count;
      const ItemsetTrie::NodeId node =
          trie.Insert(candidates[i], ItemsetModel::Entry{counts[i], frequent});
      if (frequent) seeds.push_back(node);
    }
  }
  DEMON_COUNTER_ADD(revived_counter_, last_stats_.revived_candidates);
}

bool BordersMaintainer::Revive(const Itemset& candidate, uint64_t* count) {
  ItemsetTrie& trie = *model_.mutable_entries();
  if (trie.num_retired() == 0) return false;
  for (size_t drop = 0; drop < candidate.size(); ++drop) {
    const ItemsetTrie::NodeId subset =
        trie.FindWithout(candidate.data(), candidate.size(), drop);
    if (trie.TakeRetired(subset, candidate[drop], count)) return true;
  }
  return false;
}

std::vector<Itemset> BordersMaintainer::SeededCandidates(
    const std::vector<ItemsetTrie::NodeId>& seeds) const {
  // A (k+1)-itemset Y needs counting now iff it is untracked and all of its
  // k-subsets are frequent; untracked-but-eligible means at least one of
  // those subsets was *just* promoted (otherwise Y would already have been
  // generated). So every new candidate is some seed extended by one item,
  // with all other k-subsets frequent — a seeded version of the prefix
  // join of [AMS+96] that the paper's update phase uses. Every membership
  // test is an allocation-free trie walk.
  const ItemsetTrie& trie = model_.entries();
  const std::vector<Item> frequent_items = FrequentItems(trie);
  ItemsetTrie produced;
  std::vector<Itemset> result;
  Itemset seed;
  Itemset candidate;
  size_t position = 0;
  for (const ItemsetTrie::NodeId seed_node : seeds) {
    trie.ItemsetOf(seed_node, &seed);
    for (const Item extension : frequent_items) {
      if (!ExtendBy(seed, extension, &candidate, &position)) continue;
      if (trie.Find(candidate) != ItemsetTrie::kNoNode ||
          produced.Find(candidate) != ItemsetTrie::kNoNode) {
        continue;
      }
      // Prune: every |seed|-subset must be frequent (the seed itself —
      // the candidate minus the extension — is, by construction).
      bool keep = true;
      for (size_t drop = 0; drop < candidate.size() && keep; ++drop) {
        if (drop == position) continue;
        keep = trie.IsFrequentNode(
            trie.FindWithout(candidate.data(), candidate.size(), drop));
      }
      if (!keep) continue;
      produced.Insert(candidate);
      result.push_back(candidate);
    }
  }
  return result;
}

void BordersMaintainer::AuditInto(audit::AuditResult* audit) const {
  model_.AuditInto(audit);
  AUDIT_CHECK(audit, "borders", "borders/retired-bound",
              model_.entries().num_retired() <= model_.entries().size() / 2,
              audit::Msg() << model_.entries().num_retired()
                           << " retired entries for "
                           << model_.entries().size() << " tracked itemsets",
              "");

  uint64_t total_transactions = 0;
  for (const auto& block : history_) total_transactions += block->size();
  AUDIT_CHECK(audit, "borders", "borders/transaction-total",
              total_transactions == model_.num_transactions(),
              audit::Msg() << "model holds " << model_.num_transactions()
                           << " transactions but the " << history_.size()
                           << " selected blocks sum to " << total_transactions,
              "");

  if (!uses_tidlists()) return;
  tidlists_.AuditInto(audit);
  AUDIT_CHECK(audit, "borders", "borders/tidlist-block-count",
              tidlists_.NumBlocks() == history_.size(),
              audit::Msg() << "store has " << tidlists_.NumBlocks()
                           << " TID-list blocks for " << history_.size()
                           << " transaction blocks",
              "");
  const size_t paired = std::min(tidlists_.NumBlocks(), history_.size());
  for (size_t i = 0; i < paired; ++i) {
    AUDIT_CHECK(audit, "borders", "borders/tidlist-block-size",
                tidlists_.block(i).num_transactions() == history_[i]->size(),
                audit::Msg() << "TID-list block " << i << " covers "
                             << tidlists_.block(i).num_transactions()
                             << " transactions, block holds "
                             << history_[i]->size(),
                "");
    // One item extent per block, shared with every other consumer of it:
    // the store's must be the very one the history block built.
    AUDIT_CHECK(audit, "borders", "borders/shared-item-extent",
                &tidlists_.block(i).item_extent() ==
                    history_[i]->item_lists().get(),
                audit::Msg() << "TID-list block " << i << " (block "
                             << history_[i]->info().id
                             << ") reads item lists other than its history "
                                "block's",
                "");
  }
}

void BordersMaintainer::AuditRescratchInto(audit::AuditResult* audit) const {
  if (history_.empty()) return;
  // The records of every selected block; an ECUT/ECUT+ maintainer's
  // dropped blocks come back transposed.
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  blocks.reserve(history_.size());
  for (const auto& block : history_) blocks.push_back(block->Transactions());
  const ItemsetModel scratch =
      Apriori(blocks, options_.minsup, options_.num_items);

  size_t mismatched = 0;
  std::string example;
  for (const auto& [itemset, entry] : scratch.entries()) {
    const auto it = model_.entries().find(itemset);
    const bool matches = it != model_.entries().end() &&
                         it->second.count == entry.count &&
                         it->second.frequent == entry.frequent;
    if (matches) continue;
    ++mismatched;
    if (example.empty()) {
      example = audit::Msg()
                << demon::ToString(itemset) << ": scratch count="
                << entry.count << " frequent=" << entry.frequent
                << (it == model_.entries().end()
                        ? std::string(", untracked incrementally")
                        : std::string(audit::Msg()
                                      << ", incremental count="
                                      << it->second.count
                                      << " frequent=" << it->second.frequent));
    }
  }
  AUDIT_CHECK(audit, "borders", "borders/rescratch-equivalence",
              mismatched == 0 &&
                  model_.entries().size() == scratch.entries().size() &&
                  model_.num_transactions() == scratch.num_transactions(),
              audit::Msg() << "incremental model diverges from a from-scratch "
                              "Apriori run over the same blocks ("
                           << mismatched << " of " << scratch.entries().size()
                           << " scratch entries mismatched; incremental "
                              "tracks "
                           << model_.entries().size() << ")",
              example);

  // Every retired-row entry names an untracked itemset and holds exactly
  // its support over the selected blocks.
  const ItemsetTrie& trie = model_.entries();
  std::vector<Itemset> retired;
  std::vector<uint64_t> retired_counts;
  trie.ForEachRetired([&](ItemsetTrie::NodeId node, Item item,
                          uint64_t count) {
    Itemset itemset;
    trie.ItemsetOf(node, &itemset);
    itemset.insert(std::upper_bound(itemset.begin(), itemset.end(), item),
                   item);
    retired.push_back(std::move(itemset));
    retired_counts.push_back(count);
  });
  const std::vector<uint64_t> supports = PtScanCount(retired, blocks);
  for (size_t i = 0; i < retired.size(); ++i) {
    AUDIT_CHECK(audit, "borders", "borders/retired-untracked",
                !model_.Contains(retired[i]),
                audit::Msg() << "retired entry " << demon::ToString(retired[i])
                             << " names a tracked itemset",
                "");
    AUDIT_CHECK(audit, "borders", "borders/retired-count",
                supports[i] == retired_counts[i] ||
                    retired_counts[i] == ItemsetTrie::kRetiredCountUnknown,
                audit::Msg() << "retired entry " << demon::ToString(retired[i])
                             << " holds count " << retired_counts[i]
                             << ", its support is " << supports[i],
                "");
  }
}

void BordersMaintainer::SaveState(persistence::Writer& w) const {
  SerializeItemsetModel(w, model_);
  w.WriteU64(history_.size());
  for (const auto& block : history_) w.WriteU32(block->info().id);
  if (!uses_tidlists()) return;
  DEMON_CHECK(tidlists_.NumBlocks() == history_.size());
  for (size_t b = 0; b < tidlists_.NumBlocks(); ++b) {
    // The pair set a block was materialized with depends on the model at
    // arrival time; record it verbatim (sorted for determinism) so restore
    // rebuilds the exact same lists rather than re-deriving them from the
    // final model.
    auto pairs = tidlists_.block(b).MaterializedPairs();
    std::sort(pairs.begin(), pairs.end());
    w.WriteU64(pairs.size());
    for (const auto& [a, c] : pairs) {
      w.WriteU32(a);
      w.WriteU32(c);
    }
  }
}

Status BordersMaintainer::LoadState(persistence::Reader& r) {
  if (!history_.empty() || !model_.entries().empty()) {
    return Status::FailedPrecondition(
        "BORDERS state can only be restored into a fresh maintainer");
  }
  ItemsetModel model;
  DeserializeItemsetModel(r, options_.num_items, &model);
  if (!r.ok()) return r.status();
  if (model.minsup() != options_.minsup ||
      model.num_items() != options_.num_items) {
    return Status::InvalidArgument(
        "checkpointed itemset model was mined with different options");
  }

  const persistence::BlockSource* source = r.block_source();
  if (source == nullptr || !source->transactions) {
    return Status::FailedPrecondition(
        "no transaction block source bound to the reader");
  }
  const size_t num_blocks = r.ReadLength(sizeof(uint32_t));
  if (!r.ok()) return r.status();
  history_.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockId id = r.ReadU32();
    if (!r.ok()) return r.status();
    DEMON_ASSIGN_OR_RETURN(auto block, source->transactions(id));
    if (!uses_tidlists()) transactions_.push_back(block->Transactions());
    history_.push_back(std::move(block));
  }

  if (uses_tidlists()) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t num_pairs = r.ReadLength(2 * sizeof(uint32_t));
      PairMaterializationSpec spec;
      spec.pairs.reserve(num_pairs);
      for (size_t p = 0; p < num_pairs; ++p) {
        const Item a = r.ReadU32();
        const Item c = r.ReadU32();
        if (!r.ok()) return r.status();
        // The pair lists index item lists by both items of a distinct pair.
        if (a == c || a >= options_.num_items || c >= options_.num_items) {
          return Status::DataLoss("checkpointed pair (" + std::to_string(a) +
                                  ", " + std::to_string(c) +
                                  ") is not two distinct items of the "
                                  "universe");
        }
        spec.pairs.emplace_back(a, c);
      }
      if (!r.ok()) return r.status();
      // The recorded pairs already respect the budget that applied at
      // arrival time, so rebuild them all (unbounded budget).
      AppendTidLists(*history_[b], spec.pairs.empty() ? nullptr : &spec);
    }
  }
  model_ = std::move(model);
  return r.status();
}

void BordersMaintainer::PruneBorder(
    const std::vector<ItemsetTrie::NodeId>& demoted) {
  // Before the flag refresh the model satisfied the NB- invariant, so a
  // tracked itemset now has an infrequent (k-1)-subset only if that subset
  // was just demoted: the victims are exactly the tracked one-item
  // extensions d ∪ {x} of demoted itemsets d. Their extension x was a
  // frequent item before the refresh — frequent now, or itself demoted.
  ItemsetTrie& trie = *model_.mutable_entries();
  std::vector<Item> items = FrequentItems(trie);
  for (const ItemsetTrie::NodeId node : demoted) {
    if (trie.parent(node) == ItemsetTrie::kRoot) {
      items.push_back(trie.item(node));
    }
  }
  std::sort(items.begin(), items.end());

  struct Victim {
    ItemsetTrie::NodeId node;
    ItemsetTrie::NodeId demoted;  // the subset that found it
    Item extension;               // node = demoted ∪ {extension}
  };
  std::vector<Victim> victims;
  Itemset base;
  Itemset superset;
  size_t position = 0;
  for (const ItemsetTrie::NodeId node : demoted) {
    trie.ItemsetOf(node, &base);
    for (const Item extension : items) {
      if (!ExtendBy(base, extension, &superset, &position)) continue;
      const ItemsetTrie::NodeId victim = trie.Find(superset);
      if (victim != ItemsetTrie::kNoNode) {
        victims.push_back({victim, node, extension});
      }
    }
  }
  const auto by_node = [](const Victim& a, const Victim& b) {
    return a.node < b.node;
  };
  std::stable_sort(victims.begin(), victims.end(), by_node);
  victims.erase(std::unique(victims.begin(), victims.end(),
                            [](const Victim& a, const Victim& b) {
                              return a.node == b.node;
                            }),
                victims.end());
  const auto is_victim = [&](ItemsetTrie::NodeId node) {
    return std::binary_search(victims.begin(), victims.end(),
                              Victim{node, 0, 0}, by_node);
  };

  // Retire each victim's exact count to the row of a (k-1)-subset that
  // stays tracked: the demoted itemset that found it, else — when that
  // one goes too — any other. Rows are kept exact by every later
  // detection walk, so Refresh can revive the itemset without a recount.
  struct Retiree {
    ItemsetTrie::NodeId holder;
    Item item;
    uint64_t count;
  };
  std::vector<Retiree> retirees;
  for (const Victim& victim : victims) {
    Retiree retiree{victim.demoted, victim.extension,
                    trie.entry(victim.node).count};
    if (is_victim(retiree.holder)) {
      retiree.holder = ItemsetTrie::kNoNode;
      trie.ItemsetOf(victim.node, &superset);
      for (size_t drop = 0; drop < superset.size(); ++drop) {
        const ItemsetTrie::NodeId subset =
            trie.FindWithout(superset.data(), superset.size(), drop);
        if (subset != ItemsetTrie::kNoNode && !is_victim(subset)) {
          retiree.holder = subset;
          retiree.item = superset[drop];
          break;
        }
      }
      if (retiree.holder == ItemsetTrie::kNoNode) continue;
    }
    retirees.push_back(retiree);
  }
  for (const Victim& victim : victims) trie.Erase(victim.node);

  std::sort(retirees.begin(), retirees.end(),
            [](const Retiree& a, const Retiree& b) {
              return a.holder != b.holder ? a.holder < b.holder
                                          : a.item < b.item;
            });
  std::vector<Item> row_items;
  std::vector<uint64_t> row_counts;
  for (size_t i = 0; i < retirees.size();) {
    const ItemsetTrie::NodeId holder = retirees[i].holder;
    row_items.clear();
    row_counts.clear();
    for (; i < retirees.size() && retirees[i].holder == holder; ++i) {
      row_items.push_back(retirees[i].item);
      row_counts.push_back(retirees[i].count);
    }
    trie.Retire(holder, row_items.data(), row_counts.data(),
                row_items.size());
  }

  // Rows never outgrow half the tracked itemsets. Past that, the rows of
  // the holders furthest below the threshold — the least likely to be
  // re-promoted, such as an old regime's itemsets on a drifting stream —
  // go first.
  const size_t cap = trie.size() / 2;
  if (trie.num_retired() <= cap) return;
  std::vector<std::pair<uint64_t, ItemsetTrie::NodeId>> holders;
  trie.ForEachRetired([&](ItemsetTrie::NodeId node, Item, uint64_t) {
    if (holders.empty() || holders.back().second != node) {
      holders.emplace_back(trie.entry(node).count, node);
    }
  });
  std::sort(holders.begin(), holders.end());
  for (const auto& [count, node] : holders) {
    if (trie.num_retired() <= cap) break;
    trie.DropRetired(node);
  }
}

}  // namespace demon
