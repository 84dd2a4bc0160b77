#include "itemsets/counting_context.h"

#include <algorithm>
#include <limits>

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
    for (auto& row : intersect_seconds_) {
      for (auto& cell : row) cell = nullptr;
    }
    return;
  }
  slots_fetched_ = telemetry_->counter("counting/slots_fetched");
  lists_opened_ = telemetry_->counter("counting/lists_opened");
  transactions_scanned_ = telemetry_->counter("counting/transactions_scanned");
  itemsets_counted_ = telemetry_->counter("counting/itemsets_counted");
  for (uint8_t a = 0; a < kNumTidEncodings; ++a) {
    for (uint8_t b = 0; b < kNumTidEncodings; ++b) {
      intersect_seconds_[a][b] = telemetry_->histogram(
          std::string("counting/intersect_seconds_") +
          TidEncodingName(static_cast<TidEncoding>(a)) + "_" +
          TidEncodingName(static_cast<TidEncoding>(b)));
    }
  }
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

void CountingContext::BuildCoverPlan(const Itemset& itemset,
                                     const TidListStore& store,
                                     bool use_pair_lists, Scratch* s,
                                     std::vector<CoverEntry>* plan) const {
  DEMON_CHECK(!itemset.empty());
  plan->clear();
  const size_t k = itemset.size();
  bool any_pair_lists = false;
  if (use_pair_lists && k >= 2) {
    for (const auto& block : store.blocks()) {
      if (block->num_pair_lists() > 0) {
        any_pair_lists = true;
        break;
      }
    }
  }
  if (!any_pair_lists) {
    for (Item item : itemset) plan->push_back({item, 0, false});
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
        if (!block->HasPairList(itemset[i], itemset[j])) continue;
        if (total == kUnmaterialized) total = 0;
        total += block->PairListSize(itemset[i], itemset[j]);
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
    plan->push_back({itemset[best_i], itemset[best_j], true});
    s->covered[best_i] = true;
    s->covered[best_j] = true;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!s->covered[i]) plan->push_back({itemset[i], 0, false});
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
  size_t shards = ShardCountFor(itemsets.size(), kMinItemsetsPerShard);
  if (shards > 1) {
    // Second floor: estimated intersection work, so a batch of many tiny
    // candidates stays serial. Each itemset is charged its smallest item's
    // total directory cardinality — the bound on what the smallest-first
    // k-way kernel touches.
    const uint64_t slots = EstimateEcutSlots(itemsets, store);
    shards = std::min(shards, static_cast<size_t>(std::max<uint64_t>(
                                  1, slots / kMinSlotsPerShard)));
  }
  PrepareScratch(shards);

  // Resident blocks first: while this shard set works through the already
  // in-memory blocks, nothing waits on disk; each evicted block is then
  // faulted in exactly once per shard and all the shard's itemsets batch
  // over it under one lease. Advisory only — per-block supports sum, so
  // any visit order yields bit-identical counts.
  std::vector<uint32_t> block_order;
  store.ResidencyOrder(&block_order);

  const bool collect_stats = CollectStats(stats);
  const bool time_intersections = intersect_seconds_[0][0] != nullptr;
  ParallelFor(shards > 1 ? pool_ : nullptr, shards, [&](size_t shard) {
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "ecut shard " + std::to_string(shard), "counting",
                           call_span_id);
    Scratch& s = *scratch_[shard];
    const auto [begin, end] = ShardRange(itemsets.size(), shard, shards);
    const size_t range = end - begin;
    // Phase 1: plans for the whole range, from directory metadata only.
    if (s.plans.size() < range) s.plans.resize(range);
    for (size_t i = begin; i < end; ++i) {
      BuildCoverPlan(itemsets[i], store, use_pair_lists, &s,
                     &s.plans[i - begin]);
    }
    // Phase 2: block-outer loop; counts[i] slots are disjoint per shard.
    for (const uint32_t block_index : block_order) {
      const BlockTidLists& block = store.block(block_index);
      const TidListLease lease = block.Lease();
      for (size_t i = begin; i < end; ++i) {
        s.views.clear();
        for (const CoverEntry& entry : s.plans[i - begin]) {
          if (entry.is_pair && block.HasPairList(entry.a, entry.b)) {
            s.views.push_back(block.PairView(entry.a, entry.b));
          } else if (entry.is_pair) {
            s.views.push_back(block.ItemView(entry.a));
            s.views.push_back(block.ItemView(entry.b));
          } else {
            s.views.push_back(block.ItemView(entry.a));
          }
        }
        if (collect_stats) {
          s.stats.lists_opened += s.views.size();
          for (const TidListView& view : s.views) {
            s.stats.slots_fetched += view.size();
          }
        }
        if (time_intersections && s.views.size() >= 2) {
          // Key the histogram by the encodings of the two smallest views —
          // the pair the k-way kernel folds first, which dominates cost.
          size_t small0 = 0;
          size_t small1 = 1;
          if (s.views[small1].num_tids < s.views[small0].num_tids) {
            std::swap(small0, small1);
          }
          for (size_t v = 2; v < s.views.size(); ++v) {
            if (s.views[v].num_tids < s.views[small0].num_tids) {
              small1 = small0;
              small0 = v;
            } else if (s.views[v].num_tids < s.views[small1].num_tids) {
              small1 = v;
            }
          }
          telemetry::ScopedTimer timer(
              intersect_seconds_[static_cast<uint8_t>(
                  s.views[small0].encoding)][static_cast<uint8_t>(
                  s.views[small1].encoding)]);
          counts[i] += IntersectionSize(s.views, &s.intersect);
        } else {
          counts[i] += IntersectionSize(s.views, &s.intersect);
        }
      }
    }
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
