#include "itemsets/borders.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "itemsets/apriori.h"
#include "itemsets/model_io.h"
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
  const std::vector<uint64_t>& deltas = counting_.PtScanNodes(trie, {alias});
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
  last_stats_ = UpdateStats{};

  const bool needs_tidlists = options_.strategy != CountingStrategy::kPtScan;
  if (needs_tidlists) {
    // Materialize the block's TID-lists; for ECUT+ also the frequent
    // 2-itemsets of the *current* model, highest support first, within the
    // space budget (paper §3.1.1 heuristic). This is part of storing the
    // block (the lists replace the transactional format), not of model
    // maintenance, so it is not counted in detection/update time.
    DEMON_TRACE_SPAN(span, telemetry_, "tidlist-build", "borders");
    PairMaterializationSpec spec;
    std::shared_ptr<const BlockTidLists> lists;
    if (options_.strategy == CountingStrategy::kEcutPlus &&
        !model_.entries().empty()) {
      spec.pairs = model_.Frequent2ItemsetsBySupport();
      spec.budget_slots = static_cast<size_t>(
          options_.pair_budget_fraction *
          static_cast<double>(block->TotalItemOccurrences()));
      lists = BlockTidLists::Build(*block, options_.num_items, &spec);
    } else {
      lists = BlockTidLists::Build(*block, options_.num_items, nullptr);
    }
    tidlists_.Append(std::move(lists));
  }

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    if (blocks_.empty() && model_.entries().empty()) {
      // First selected block: build the model from scratch (base case).
      blocks_.push_back(std::move(block));
      model_ =
          Apriori(blocks_, options_.minsup, options_.num_items, &counting_);
      last_stats_.detection_seconds = timer.Stop();
      return;
    }

    // Detection phase: one scan of the new block refreshes the supports of
    // L ∪ NB- and flags any itemset that crossed the threshold.
    FoldBlockCounts(*block, +1);
    model_.AddTransactions(block->size());
    blocks_.push_back(std::move(block));
    last_stats_.detection_seconds = timer.Stop();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh();
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::RemoveBlockAt(size_t index) {
  DEMON_CHECK(index < blocks_.size());
  last_stats_ = UpdateStats{};

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    const auto victim = blocks_[index];
    FoldBlockCounts(*victim, -1);
    DEMON_CHECK(model_.num_transactions() >= victim->size());
    model_.set_num_transactions(model_.num_transactions() - victim->size());
    blocks_.erase(blocks_.begin() + index);
    if (options_.strategy != CountingStrategy::kPtScan) {
      tidlists_.DropAt(index);
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
  // iterate while new frequent itemsets keep appearing (§3.1.1).
  while (!seeds.empty()) {
    ++last_stats_.update_iterations;
    const std::vector<Itemset> candidates = SeededCandidates(seeds);
    seeds.clear();
    if (candidates.empty()) break;
    last_stats_.new_candidates += candidates.size();
    const std::vector<uint64_t> counts =
        counting_.Count(options_.strategy, candidates, blocks_, tidlists_,
                        &last_stats_.counting);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const bool frequent = counts[i] >= min_count;
      const ItemsetTrie::NodeId node =
          trie.Insert(candidates[i], ItemsetModel::Entry{counts[i], frequent});
      if (frequent) seeds.push_back(node);
    }
  }
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

  uint64_t total_transactions = 0;
  for (const auto& block : blocks_) total_transactions += block->size();
  AUDIT_CHECK(audit, "borders", "borders/transaction-total",
              total_transactions == model_.num_transactions(),
              audit::Msg() << "model holds " << model_.num_transactions()
                           << " transactions but the " << blocks_.size()
                           << " selected blocks sum to " << total_transactions,
              "");

  if (options_.strategy == CountingStrategy::kPtScan) return;
  tidlists_.AuditInto(audit);
  AUDIT_CHECK(audit, "borders", "borders/tidlist-block-count",
              tidlists_.NumBlocks() == blocks_.size(),
              audit::Msg() << "store has " << tidlists_.NumBlocks()
                           << " TID-list blocks for " << blocks_.size()
                           << " transaction blocks",
              "");
  const size_t paired = std::min(tidlists_.NumBlocks(), blocks_.size());
  for (size_t i = 0; i < paired; ++i) {
    AUDIT_CHECK(audit, "borders", "borders/tidlist-block-size",
                tidlists_.block(i).num_transactions() == blocks_[i]->size(),
                audit::Msg() << "TID-list block " << i << " covers "
                             << tidlists_.block(i).num_transactions()
                             << " transactions, block holds "
                             << blocks_[i]->size(),
                "");
  }
}

void BordersMaintainer::AuditRescratchInto(audit::AuditResult* audit) const {
  if (blocks_.empty()) return;
  const ItemsetModel scratch =
      Apriori(blocks_, options_.minsup, options_.num_items);

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
}

void BordersMaintainer::SaveState(persistence::Writer& w) const {
  SerializeItemsetModel(w, model_);
  w.WriteU64(blocks_.size());
  for (const auto& block : blocks_) w.WriteU32(block->info().id);
  if (options_.strategy == CountingStrategy::kPtScan) return;
  DEMON_CHECK(tidlists_.NumBlocks() == blocks_.size());
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
  if (!blocks_.empty() || !model_.entries().empty()) {
    return Status::FailedPrecondition(
        "BORDERS state can only be restored into a fresh maintainer");
  }
  ItemsetModel model;
  DeserializeItemsetModel(r, &model);
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
  blocks_.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockId id = r.ReadU32();
    if (!r.ok()) return r.status();
    DEMON_ASSIGN_OR_RETURN(auto block, source->transactions(id));
    blocks_.push_back(std::move(block));
  }

  if (options_.strategy != CountingStrategy::kPtScan) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t num_pairs = r.ReadLength(2 * sizeof(uint32_t));
      PairMaterializationSpec spec;
      spec.pairs.reserve(num_pairs);
      for (size_t p = 0; p < num_pairs; ++p) {
        const Item a = r.ReadU32();
        const Item c = r.ReadU32();
        spec.pairs.emplace_back(a, c);
      }
      if (!r.ok()) return r.status();
      // The recorded pairs already respect the budget that applied at
      // arrival time, so rebuild them all (unbounded budget).
      tidlists_.Append(BlockTidLists::Build(
          *blocks_[b], options_.num_items,
          spec.pairs.empty() ? nullptr : &spec));
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

  std::vector<ItemsetTrie::NodeId> victims;
  Itemset base;
  Itemset superset;
  size_t position = 0;
  for (const ItemsetTrie::NodeId node : demoted) {
    trie.ItemsetOf(node, &base);
    for (const Item extension : items) {
      if (!ExtendBy(base, extension, &superset, &position)) continue;
      const ItemsetTrie::NodeId victim = trie.Find(superset);
      if (victim != ItemsetTrie::kNoNode) victims.push_back(victim);
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const ItemsetTrie::NodeId victim : victims) trie.Erase(victim);
}

}  // namespace demon
