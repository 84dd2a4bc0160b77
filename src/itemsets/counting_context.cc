#include "itemsets/counting_context.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace demon {

namespace {

// Minimum work per shard: below these, the fan-out overhead outweighs the
// win and counting stays on one shard. Shard count never changes results,
// only scheduling (sums are order-independent).
constexpr size_t kMinTransactionsPerShard = 256;
constexpr size_t kMinItemsetsPerShard = 4;
// ECUT's finer-grained floor: estimated TID slots per shard. An ECUT call
// over few-but-tiny lists (the common steady-state candidate batch) is not
// worth a fan-out even when it clears the itemset floor; the estimate
// comes from directory cardinalities alone, so it costs no payload I/O.
constexpr uint64_t kMinSlotsPerShard = 4096;

// [begin, end) of shard `shard` when `work` units are split as evenly as
// possible over `shards` contiguous ranges.
std::pair<size_t, size_t> ShardRange(size_t work, size_t shard,
                                     size_t shards) {
  const size_t base = work / shards;
  const size_t extra = work % shards;
  const size_t begin = shard * base + std::min(shard, extra);
  return {begin, begin + base + (shard < extra ? 1 : 0)};
}

// Orders itemsets by size, then items: the order in which candidates
// sharing their first k-1 items sit next to each other.
bool SizeThenItemsLess(const Itemset& a, const Itemset& b) {
  return a.size() != b.size() ? a.size() < b.size() : a < b;
}

// True when `a` and `b` are one prefix group: the same size k and the
// same first k-1 items (every 1-itemset shares the empty prefix).
bool SamePrefix(const Itemset& a, const Itemset& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end() - 1, b.begin());
}

}  // namespace

size_t CountingContext::ShardCountFor(size_t work,
                                      size_t min_per_shard) const {
  if (pool_ == nullptr || pool_->num_threads() <= 1) return 1;
  // Capacity follows the pool's token budget: the calling thread plus
  // whatever tokens outer layers (in-flight monitor tasks, enclosing
  // ParallelFors) have left unborrowed. When monitors hold the whole
  // budget each one counts serially on its own worker — the behavior that
  // fixed the 4-thread regression of bench/engine_throughput — and as
  // monitors retire, their returned tokens let late counting calls fan
  // back out.
  // The snapshot is advisory; ParallelFor re-acquires tokens for real at
  // submission time, so a stale read costs load balance, never
  // correctness.
  const size_t capacity =
      std::min(pool_->num_threads(), pool_->ApproxAvailableTokens() + 1);
  const size_t by_work = work / min_per_shard;
  return std::max<size_t>(1, std::min(by_work, capacity));
}

void CountingContext::CacheMetrics() {
  if (telemetry_ == nullptr) {
    slots_fetched_ = nullptr;
    lists_opened_ = nullptr;
    transactions_scanned_ = nullptr;
    itemsets_counted_ = nullptr;
    return;
  }
  slots_fetched_ = telemetry_->counter("counting/slots_fetched");
  lists_opened_ = telemetry_->counter("counting/lists_opened");
  transactions_scanned_ = telemetry_->counter("counting/transactions_scanned");
  itemsets_counted_ = telemetry_->counter("counting/itemsets_counted");
}

void CountingContext::PrepareScratch(size_t shards) {
  while (scratch_.size() < shards) {
    scratch_.push_back(std::make_unique<Scratch>());
  }
  for (size_t i = 0; i < shards; ++i) {
    scratch_[i]->stats = CountingStats{};
    scratch_[i]->touched = 0;
  }
}

void CountingContext::MergeStats(size_t shards, CountingStats* stats) const {
  if (stats == nullptr) return;
  for (size_t i = 0; i < shards; ++i) {
    stats->slots_fetched += scratch_[i]->stats.slots_fetched;
    stats->lists_opened += scratch_[i]->stats.lists_opened;
    stats->slots_fetched += scratch_[i]->touched;
  }
}

std::vector<uint64_t> CountingContext::PtScan(
    const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingStats* stats) {
  if (itemsets.empty()) return {};
  DEMON_TRACE_SPAN(call_span, telemetry_, "pt-scan", "counting");
  candidates_.Clear();
  std::vector<ItemsetTrie::NodeId> nodes;
  nodes.reserve(itemsets.size());
  for (const Itemset& itemset : itemsets) {
    nodes.push_back(candidates_.Insert(itemset));
  }
  const std::vector<uint64_t>& node_counts =
      CountOnTrie(&candidates_, blocks, itemsets.size(), /*retired_sign=*/0,
                  DEMON_SPAN_ID(call_span), stats);
  std::vector<uint64_t> counts;
  counts.reserve(nodes.size());
  for (const ItemsetTrie::NodeId node : nodes) {
    counts.push_back(node_counts[node]);
  }
  return counts;
}

const std::vector<uint64_t>& CountingContext::PtScanNodes(
    ItemsetTrie* trie,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    int retired_sign, CountingStats* stats) {
  DEMON_TRACE_SPAN(call_span, telemetry_, "pt-scan", "counting");
  return CountOnTrie(trie, blocks, trie->size(), retired_sign,
                     DEMON_SPAN_ID(call_span), stats);
}

const std::vector<uint64_t>& CountingContext::CountOnTrie(
    ItemsetTrie* trie,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    size_t num_itemsets, int retired_sign,
    [[maybe_unused]] uint64_t call_span_id, CountingStats* stats) {
  size_t total_transactions = 0;
  for (const auto& block : blocks) total_transactions += block->size();
  const size_t shards =
      ShardCountFor(total_transactions, kMinTransactionsPerShard);
  PrepareScratch(shards);

  // The walk only reads the trie, so every shard shares it and owns a
  // per-node count array plus, when retired rows are counted, a uint32
  // delta per row entry (numbered here, before the fan-out). Both are
  // summed after the barrier, and the deltas applied to the rows once.
  const size_t num_nodes = trie->node_capacity();
  const size_t num_retired = retired_sign != 0 ? trie->NumberRetired() : 0;
  // No entry gains more than one delta per transaction, so the sums fit.
  DEMON_CHECK(num_retired == 0 ||
              total_transactions < ItemsetTrie::kRetiredCountUnknown);
  const ItemsetTrie& walked = *trie;
  const bool collect_stats = CollectStats(stats);
  ParallelFor(shards > 1 ? pool_ : nullptr, shards, [&](size_t shard) {
    // The dispatching thread claims shards too, but workers have an empty
    // span stack, so the parent must travel explicitly.
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "pt-scan shard " + std::to_string(shard),
                           "counting", call_span_id);
    Scratch& s = *scratch_[shard];
    s.node_counts.assign(num_nodes, 0);
    s.retired_deltas.assign(num_retired, 0);
    uint64_t* const counts = s.node_counts.data();
    uint32_t* const retired =
        num_retired > 0 ? s.retired_deltas.data() : nullptr;
    const auto [begin, end] = ShardRange(total_transactions, shard, shards);
    uint64_t touched = 0;
    size_t offset = 0;
    for (const auto& block : blocks) {
      if (offset >= end) break;
      const size_t lo = begin > offset ? begin - offset : 0;
      const size_t hi = std::min(block->size(), end - offset);
      for (size_t i = lo; i < hi; ++i) {
        const TransactionView items = (*block)[i];
        walked.CountTransactionInto(items.begin(), items.end(), counts,
                                    retired);
        if (collect_stats) touched += items.size();
      }
      offset += block->size();
    }
    s.touched = touched;
  });

  std::vector<uint64_t>& counts = scratch_[0]->node_counts;
  std::vector<uint32_t>& deltas = scratch_[0]->retired_deltas;
  for (size_t shard = 1; shard < shards; ++shard) {
    const std::vector<uint64_t>& partial = scratch_[shard]->node_counts;
    for (size_t n = 0; n < num_nodes; ++n) counts[n] += partial[n];
    const std::vector<uint32_t>& partial_deltas =
        scratch_[shard]->retired_deltas;
    for (size_t i = 0; i < num_retired; ++i) deltas[i] += partial_deltas[i];
  }
  if (num_retired > 0) trie->ApplyRetired(deltas.data(), retired_sign);
  MergeStats(shards, stats);
  if (slots_fetched_ != nullptr) {
    uint64_t touched = 0;
    for (size_t shard = 0; shard < shards; ++shard) {
      touched += scratch_[shard]->touched;
    }
    slots_fetched_->Add(touched);
    transactions_scanned_->Add(total_transactions);
    itemsets_counted_->Add(num_itemsets);
  }
  return counts;
}

uint64_t CountingContext::EstimateEcutSlots(
    const std::vector<Itemset>& itemsets, const TidListStore& store) {
  constexpr uint64_t kUnknown = std::numeric_limits<uint64_t>::max();
  size_t num_items = 0;
  for (const auto& block : store.blocks()) {
    num_items = std::max(num_items, block->num_items());
  }
  // Per-item totals are filled lazily — only items the batch actually
  // names are summed — into a buffer reused across calls.
  item_totals_.assign(num_items, kUnknown);
  uint64_t total = 0;
  for (const Itemset& itemset : itemsets) {
    uint64_t best = kUnknown;
    for (Item item : itemset) {
      if (item >= num_items) {
        best = 0;
        break;
      }
      uint64_t& slot = item_totals_[item];
      if (slot == kUnknown) {
        uint64_t sum = 0;
        for (const auto& block : store.blocks()) {
          if (item < block->num_items()) sum += block->ItemListSize(item);
        }
        slot = sum;
      }
      best = std::min(best, slot);
    }
    total += best == kUnknown ? 0 : best;
  }
  return total;
}

void CountingContext::BuildCoverPlan(const Item* items, size_t k,
                                     const TidListStore& store,
                                     bool use_pair_lists, Scratch* s,
                                     std::vector<CoverEntry>* plan) const {
  if (!use_pair_lists || k < 2) {
    for (size_t i = 0; i < k; ++i) plan->push_back({items[i], 0, false});
    return;
  }

  // ECUT+ covering rule (paper §3.1.1), hoisted out of the per-block loop:
  // greedily pick the materialized pair with the smallest *total* list
  // size across blocks whose two items are still uncovered; cover the
  // remainder with item lists. Sizes come from the always-resident
  // directory, so planning touches no payload and triggers no page-in.
  // Any cover intersects to the exact support, so hoisting never changes
  // counts — blocks missing a chosen pair fall back to the pair's two item
  // lists at count time. The greedy score stays cardinality-based even
  // though encoded byte costs differ: cardinality bounds every kernel's
  // work, while encoded size only bounds its input scan.
  constexpr uint64_t kUnmaterialized = std::numeric_limits<uint64_t>::max();
  s->pair_sizes.assign(k * k, kUnmaterialized);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      uint64_t total = kUnmaterialized;
      for (const auto& block : store.blocks()) {
        if (!block->HasPairList(items[i], items[j])) continue;
        if (total == kUnmaterialized) total = 0;
        total += block->PairListSize(items[i], items[j]);
      }
      s->pair_sizes[i * k + j] = total;
    }
  }
  s->covered.assign(k, false);
  for (;;) {
    uint64_t best_size = kUnmaterialized;
    size_t best_i = 0;
    size_t best_j = 0;
    for (size_t i = 0; i < k; ++i) {
      if (s->covered[i]) continue;
      for (size_t j = i + 1; j < k; ++j) {
        if (s->covered[j]) continue;
        const uint64_t size = s->pair_sizes[i * k + j];
        if (size < best_size) {
          best_size = size;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_size == kUnmaterialized) break;
    plan->push_back({items[best_i], items[best_j], true});
    s->covered[best_i] = true;
    s->covered[best_j] = true;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!s->covered[i]) plan->push_back({items[i], 0, false});
  }
}

std::vector<uint64_t> CountingContext::Ecut(
    const std::vector<Itemset>& itemsets, const TidListStore& store,
    bool use_pair_lists, CountingStats* stats) {
  std::vector<uint64_t> counts(itemsets.size(), 0);
  if (itemsets.empty()) return counts;
  DEMON_TRACE_SPAN(call_span, telemetry_, use_pair_lists ? "ecut+" : "ecut",
                   "counting");
  [[maybe_unused]] const uint64_t call_span_id = DEMON_SPAN_ID(call_span);

  // Prefix groups: the batch sorted by (size, items), cut wherever the
  // size or the first k-1 items change.
  ecut_order_.resize(itemsets.size());
  std::iota(ecut_order_.begin(), ecut_order_.end(), 0u);
  std::sort(ecut_order_.begin(), ecut_order_.end(),
            [&itemsets](uint32_t a, uint32_t b) {
              return SizeThenItemsLess(itemsets[a], itemsets[b]);
            });
  group_begin_.clear();
  for (size_t i = 0; i < ecut_order_.size(); ++i) {
    const Itemset& itemset = itemsets[ecut_order_[i]];
    DEMON_CHECK(!itemset.empty());
    if (i == 0 || !SamePrefix(itemsets[ecut_order_[i - 1]], itemset)) {
      group_begin_.push_back(static_cast<uint32_t>(i));
    }
  }
  const size_t num_groups = group_begin_.size();
  group_begin_.push_back(static_cast<uint32_t>(ecut_order_.size()));

  size_t shards = ShardCountFor(itemsets.size(), kMinItemsetsPerShard);
  if (shards > 1) {
    // Second floor: estimated intersection work, so a batch of many tiny
    // candidates stays serial. Each itemset is charged its smallest item's
    // total directory cardinality.
    const uint64_t slots = EstimateEcutSlots(itemsets, store);
    shards = std::min(shards, static_cast<size_t>(std::max<uint64_t>(
                                  1, slots / kMinSlotsPerShard)));
  }
  PrepareScratch(shards);

  // Resident blocks first: while this shard set works through the already
  // in-memory blocks, nothing waits on disk; each evicted block is then
  // faulted in exactly once per shard and all the shard's groups batch
  // over it under one lease. Advisory only — per-block supports sum, so
  // any visit order yields bit-identical counts.
  store.ResidencyOrder(&block_order_);
  size_t largest_block = 0;
  bool any_pair_lists = false;
  for (const auto& block : store.blocks()) {
    largest_block = std::max(largest_block, block->num_transactions());
    any_pair_lists = any_pair_lists || block->num_pair_lists() > 0;
  }
  const size_t bitset_words = (largest_block + 63) / 64;
  const bool pair_lists = use_pair_lists && any_pair_lists;

  const bool collect_stats = CollectStats(stats);
  ParallelFor(shards > 1 ? pool_ : nullptr, shards, [&](size_t shard) {
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "ecut shard " + std::to_string(shard), "counting",
                           call_span_id);
    // A shard owns every group that starts in its candidate range, so
    // groups are never split and each prefix is read by one shard.
    const auto [begin, end] = ShardRange(itemsets.size(), shard, shards);
    const auto first = group_begin_.begin();
    const auto groups_end = first + static_cast<ptrdiff_t>(num_groups);
    EcutShard(itemsets, store, pair_lists,
              static_cast<size_t>(std::lower_bound(first, groups_end, begin) -
                                  first),
              static_cast<size_t>(std::lower_bound(first, groups_end, end) -
                                  first),
              bitset_words, collect_stats, scratch_[shard].get(),
              counts.data());
  });
  MergeStats(shards, stats);
  if (slots_fetched_ != nullptr) {
    CountingStats merged;
    MergeStats(shards, &merged);
    slots_fetched_->Add(merged.slots_fetched);
    lists_opened_->Add(merged.lists_opened);
    itemsets_counted_->Add(itemsets.size());
  }
  return counts;
}

void CountingContext::EcutShard(const std::vector<Itemset>& itemsets,
                                const TidListStore& store,
                                bool use_pair_lists, size_t group_lo,
                                size_t group_hi, size_t bitset_words,
                                bool collect_stats, Scratch* s,
                                uint64_t* counts) const {
  if (group_lo == group_hi) return;
  // Phase 1: one prefix plan per group, from directory metadata only.
  s->plan_entries.clear();
  s->plan_begin.clear();
  for (size_t g = group_lo; g < group_hi; ++g) {
    s->plan_begin.push_back(static_cast<uint32_t>(s->plan_entries.size()));
    const Itemset& head = itemsets[ecut_order_[group_begin_[g]]];
    BuildCoverPlan(head.data(), head.size() - 1, store, use_pair_lists, s,
                   &s->plan_entries);
  }
  s->plan_begin.push_back(static_cast<uint32_t>(s->plan_entries.size()));
  // Zero-filled growth keeps the invariant that the bitset is all zero
  // between groups.
  if (s->bits.size() < bitset_words) s->bits.resize(bitset_words, 0);
  uint64_t* const bits = s->bits.data();

  // Phase 2: block-outer loop; each candidate's count slot belongs to
  // this shard alone.
  for (const uint32_t block_index : block_order_) {
    const BlockTidLists& block = store.block(block_index);
    const TidListLease lease = block.Lease();
    const bool block_pairs = use_pair_lists && block.num_pair_lists() > 0;
    const uint32_t universe = static_cast<uint32_t>(block.num_transactions());
    for (size_t g = group_lo; g < group_hi; ++g) {
      const size_t lo = group_begin_[g];
      const size_t hi = group_begin_[g + 1];
      const size_t k = itemsets[ecut_order_[lo]].size();
      if (k == 1) {
        for (size_t i = lo; i < hi; ++i) {
          counts[ecut_order_[i]] +=
              block.ItemListSize(itemsets[ecut_order_[i]][0]);
        }
        continue;
      }

      // Each candidate's extension list. Under ECUT+ any materialized
      // L(p, e) with p in the prefix P may stand in for L(e), as
      // P ⊆ L(p); a materialized 2-itemset is its own count.
      s->probes.clear();
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t c = ecut_order_[i];
        const Itemset& itemset = itemsets[c];
        const Item e = itemset.back();
        TidListView extension = block.ItemView(e);
        bool counted = false;
        for (size_t j = 0; block_pairs && j + 1 < k; ++j) {
          if (!block.HasPairList(itemset[j], e)) continue;
          if (k == 2) {
            counts[c] += block.PairListSize(itemset[j], e);
            counted = true;
            break;
          }
          const TidListView pair = block.PairView(itemset[j], e);
          if (pair.num_tids < extension.num_tids) extension = pair;
        }
        if (!counted) s->probes.push_back({c, extension});
      }
      if (s->probes.empty()) continue;

      // The prefix, intersected once: smallest list first, folded into
      // the raw running buffer, stopping as soon as it is empty.
      s->views.clear();
      for (uint32_t p = s->plan_begin[g - group_lo];
           p < s->plan_begin[g - group_lo + 1]; ++p) {
        const CoverEntry& entry = s->plan_entries[p];
        if (entry.is_pair && block.HasPairList(entry.a, entry.b)) {
          s->views.push_back(block.PairView(entry.a, entry.b));
          continue;
        }
        s->views.push_back(block.ItemView(entry.a));
        if (entry.is_pair) s->views.push_back(block.ItemView(entry.b));
      }
      std::sort(s->views.begin(), s->views.end(),
                [](const TidListView& a, const TidListView& b) {
                  return a.num_tids < b.num_tids;
                });
      TidList& prefix = s->prefix;
      size_t read = 1;
      if (s->views.size() == 1) {
        MaterializeInto(s->views[0], &prefix);
      } else {
        IntersectInto(s->views[0], s->views[1], &prefix);
        if (!s->views[0].empty()) read = 2;
      }
      for (; read < s->views.size() && !prefix.empty(); ++read) {
        IntersectInto(prefix, s->views[read], &s->fold);
        prefix.swap(s->fold);
      }
      if (collect_stats) {
        s->stats.lists_opened += read;
        for (size_t v = 0; v < read; ++v) {
          s->stats.slots_fetched += s->views[v].size();
        }
      }
      if (prefix.empty()) continue;

      // Mark P, count each extension's marked values, then clear P's
      // words alone. Offsets outside the block only come from corrupt
      // bytes; skipping them keeps every access inside the bitset.
      uint32_t limit = 0;
      for (const uint32_t v : prefix) {
        if (v >= universe) continue;
        bits[v >> 6] |= uint64_t{1} << (v & 63);
        limit = std::max(limit, v);
      }
      for (const auto& [c, extension] : s->probes) {
        counts[c] += CountMarked(extension, bits, limit);
      }
      if (collect_stats) {
        s->stats.lists_opened += s->probes.size();
        for (const auto& probe : s->probes) {
          s->stats.slots_fetched += probe.second.size();
        }
      }
      for (const uint32_t v : prefix) {
        if (v < universe) bits[v >> 6] = 0;
      }
    }
  }
}

std::vector<uint64_t> CountingContext::Count(
    CountingStrategy strategy, const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    const TidListStore& store, CountingStats* stats) {
  switch (strategy) {
    case CountingStrategy::kPtScan:
      return PtScan(itemsets, blocks, stats);
    case CountingStrategy::kEcut:
      return Ecut(itemsets, store, /*use_pair_lists=*/false, stats);
    case CountingStrategy::kEcutPlus:
      return Ecut(itemsets, store, /*use_pair_lists=*/true, stats);
  }
  return {};
}

std::vector<uint64_t> CountingContext::CountItems(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    size_t num_items) {
  size_t total_transactions = 0;
  for (const auto& block : blocks) total_transactions += block->size();
  DEMON_TRACE_SPAN(call_span, telemetry_, "count-items", "counting");
  [[maybe_unused]] const uint64_t call_span_id = DEMON_SPAN_ID(call_span);
  const size_t shards =
      ShardCountFor(total_transactions, kMinTransactionsPerShard);
  PrepareScratch(shards);

  ParallelFor(shards > 1 ? pool_ : nullptr, shards, [&](size_t shard) {
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "count-items shard " + std::to_string(shard),
                           "counting", call_span_id);
    Scratch& s = *scratch_[shard];
    s.item_counts.assign(num_items, 0);
    const auto [begin, end] = ShardRange(total_transactions, shard, shards);
    size_t offset = 0;
    for (const auto& block : blocks) {
      if (offset >= end) break;
      const size_t lo = begin > offset ? begin - offset : 0;
      const size_t hi = std::min(block->size(), end - offset);
      for (size_t i = lo; i < hi; ++i) {
        for (Item item : (*block)[i]) {
          DEMON_CHECK_MSG(item < num_items, "item outside universe");
          ++s.item_counts[item];
        }
      }
      offset += block->size();
    }
  });

  std::vector<uint64_t> counts(num_items, 0);
  for (size_t shard = 0; shard < shards; ++shard) {
    const auto& partial = scratch_[shard]->item_counts;
    for (size_t item = 0; item < num_items; ++item) {
      counts[item] += partial[item];
    }
  }
  if (transactions_scanned_ != nullptr) {
    transactions_scanned_->Add(total_transactions);
  }
  return counts;
}

}  // namespace demon
