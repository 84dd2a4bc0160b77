#ifndef DEMON_ITEMSETS_COUNTING_CONTEXT_H_
#define DEMON_ITEMSETS_COUNTING_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/block.h"
#include "itemsets/itemset_trie.h"
#include "itemsets/support_counting.h"
#include "tidlist/tidlist.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// \brief The support-counting kernel behind PT-Scan, ECUT and ECUT+:
/// parallel across an optional shared ThreadPool and allocation-free in
/// steady state via per-shard scratch buffers that persist across calls.
///
/// Figures 2 and 4-7 — the paper's core claims — are pure support-counting
/// benchmarks, so this is the hot path of every itemset monitor. A context
/// shards the work (candidate itemsets for ECUT/ECUT+, transactions for
/// PT-Scan) over `ParallelFor`, which lets the MaintenanceEngine share one
/// pool between monitor-level and counting-level parallelism: counting
/// called from inside a monitor-update task simply claims shards alongside
/// the pool's workers.
///
/// Results are bit-identical to the sequential path for every strategy and
/// thread count (DESIGN.md invariant 2): ECUT shards write disjoint count
/// slots, PT-Scan sums per-shard uint64 node counts and uint32 retired-row
/// deltas (integer addition is order-independent), and stats are merged as
/// sums.
///
/// A context belongs to one maintainer and is not itself thread-safe: one
/// counting call at a time. Distinct contexts may share a pool freely.
/// Copying a context copies only the pool and telemetry bindings —
/// scratch is a cache and is rebuilt lazily — which keeps
/// BordersMaintainer cheaply copyable.
class CountingContext {
 public:
  /// A sequential context (no pool).
  CountingContext() = default;

  /// A context fanning work out over `pool` (not owned; may be null for
  /// sequential operation). With a pool of one worker, counting stays on
  /// the calling thread.
  explicit CountingContext(ThreadPool* pool) : pool_(pool) {}

  CountingContext(const CountingContext& other)
      : pool_(other.pool_), telemetry_(other.telemetry_) {
    CacheMetrics();
  }
  CountingContext& operator=(const CountingContext& other) {
    pool_ = other.pool_;
    telemetry_ = other.telemetry_;
    CacheMetrics();
    return *this;
  }
  CountingContext(CountingContext&&) = default;
  CountingContext& operator=(CountingContext&&) = default;

  /// Rebinds the pool (null returns the context to sequential mode).
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Binds the registry receiving per-call and per-shard spans (the
  /// shard spans make per-thread load imbalance visible in a trace) and
  /// the kernel counters `counting/{slots_fetched,lists_opened,
  /// transactions_scanned,itemsets_counted}`. Null unbinds; no-op in
  /// DEMON_TELEMETRY=OFF builds, so the hot loops stay untouched.
  void set_telemetry([[maybe_unused]] telemetry::TelemetryRegistry* registry) {
    if constexpr (telemetry::kEnabled) {
      telemetry_ = registry;
      CacheMetrics();
    }
  }
  telemetry::TelemetryRegistry* telemetry() const { return telemetry_; }

  /// PT-Scan: one pass over all transactions of `blocks` with the
  /// itemsets in a scratch ItemsetTrie; shards walk the shared trie into
  /// their own per-node count arrays, summed after the barrier. Stats
  /// accumulate into `*stats` when non-null; the non-instrumented path
  /// pays nothing for them.
  std::vector<uint64_t> PtScan(
      const std::vector<Itemset>& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      CountingStats* stats = nullptr);

  /// PT-Scan directly on `trie`'s own nodes — BORDERS detection counts
  /// the new block on the model this way, with no tree to build. The
  /// result, indexed by NodeId (size trie->node_capacity()), holds every
  /// tracked node's support over `blocks`; slots of untracked nodes are
  /// meaningless. It is a buffer of this context, valid until its next
  /// counting call. With a nonzero `retired_sign` (+1 for blocks joining
  /// the history, -1 for blocks leaving it), the same walk also counts
  /// the trie's retired-row entries the blocks' transactions hold, into
  /// per-shard deltas that are summed and applied to the trie once after
  /// the walk (ItemsetTrie::ApplyRetired). Entry counts are left alone.
  const std::vector<uint64_t>& PtScanNodes(
      ItemsetTrie* trie,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      int retired_sign, CountingStats* stats = nullptr);

  /// ECUT / ECUT+: candidate itemsets are sharded across the pool; each
  /// shard intersects per-block TID-list views with its own reusable
  /// buffers. The ECUT+ covering of an itemset by materialized pair lists
  /// is computed once per itemset from the always-resident directory (no
  /// payload I/O); a chosen pair falls back to its two item lists in
  /// blocks where it is not materialized, which leaves the counts exact
  /// (any cover intersects to the same support).
  ///
  /// Residency-aware: each shard builds every plan first, then visits
  /// blocks resident-first (TidListStore::ResidencyOrder) holding one
  /// lease per block, so a paged-out block is faulted in at most once per
  /// shard and all the shard's itemsets batch over it while it is pinned.
  /// Block visit order never changes counts (per-block supports sum).
  std::vector<uint64_t> Ecut(const std::vector<Itemset>& itemsets,
                             const TidListStore& store, bool use_pair_lists,
                             CountingStats* stats = nullptr);

  /// Dispatches on `strategy`. PT-Scan uses `blocks`; ECUT variants use
  /// `store`.
  std::vector<uint64_t> Count(
      CountingStrategy strategy, const std::vector<Itemset>& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      const TidListStore& store, CountingStats* stats = nullptr);

  /// Level-1 counting: occurrences of every item of [0, num_items) across
  /// `blocks`, sharded over transactions with per-shard dense arrays
  /// (Apriori's base level).
  std::vector<uint64_t> CountItems(
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      size_t num_items);

 private:
  /// One entry of an ECUT+ cover plan: a materialized pair (is_pair) or a
  /// single item (b unused).
  struct CoverEntry {
    Item a = 0;
    Item b = 0;
    bool is_pair = false;
  };

  /// Per-shard reusable state. unique_ptr entries keep addresses stable
  /// while workers use them.
  struct Scratch {
    /// PT-Scan per-node counts (shard 0's doubles as the result) and
    /// per-retired-entry deltas (shard 0's holds the sum).
    std::vector<uint64_t> node_counts;
    std::vector<uint32_t> retired_deltas;
    std::vector<uint64_t> item_counts;
    IntersectionScratch intersect;
    std::vector<TidListView> views;
    /// Cover plans for the shard's itemset range, built before any block
    /// payload is touched.
    std::vector<std::vector<CoverEntry>> plans;
    std::vector<uint64_t> pair_sizes;
    std::vector<bool> covered;
    CountingStats stats;
    uint64_t touched = 0;
  };

  /// Number of shards for `work` units with at least `min_per_shard` units
  /// each — 1 without a pool; with one, at most the calling thread plus
  /// the pool's unborrowed parallelism tokens (ThreadPool's pool-wide
  /// budget). Sizing to the token remainder is what keeps nested fan-out
  /// from queueing shards behind busy monitor-level tasks — the
  /// oversubscription that made 4-thread counting slower than 1-thread on
  /// bench/engine_throughput's monitor fleet.
  size_t ShardCountFor(size_t work, size_t min_per_shard) const;

  /// Estimated total TID slots an ECUT pass over `itemsets` touches, from
  /// directory cardinalities only (no payload I/O): each itemset is
  /// charged its smallest item's total list size across blocks. Fills
  /// item_totals_ lazily for the items the batch names.
  uint64_t EstimateEcutSlots(const std::vector<Itemset>& itemsets,
                             const TidListStore& store);

  /// Grows scratch_ to `shards` entries and resets their per-call stats.
  void PrepareScratch(size_t shards);

  /// The sharded walk behind PtScan and PtScanNodes, under the caller's
  /// `pt-scan` span; returns shard 0's summed node counts, and applies
  /// the summed retired deltas with `retired_sign` when it is nonzero.
  const std::vector<uint64_t>& CountOnTrie(
      ItemsetTrie* trie,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      size_t num_itemsets, int retired_sign, uint64_t call_span_id,
      CountingStats* stats);

  /// Folds every shard's stats into `*stats` (no-op when null).
  void MergeStats(size_t shards, CountingStats* stats) const;

  /// Computes the cover plan for `itemset` into `*plan` (ECUT: one item
  /// list per item; ECUT+: greedy pair cover by smallest total size).
  /// Reads only directory metadata — valid for evicted blocks.
  void BuildCoverPlan(const Itemset& itemset, const TidListStore& store,
                      bool use_pair_lists, Scratch* s,
                      std::vector<CoverEntry>* plan) const;

  /// Re-resolves the cached counter pointers from telemetry_ (all null
  /// when unbound, so the hot paths test one pointer).
  void CacheMetrics();

  /// True when per-shard stats must be collected this call: the caller
  /// asked for them, or bound counters will absorb them.
  bool CollectStats(const CountingStats* stats) const {
    return stats != nullptr || slots_fetched_ != nullptr;
  }

  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Scratch>> scratch_;
  /// Candidate trie of the itemset-list PtScan, reused across calls.
  ItemsetTrie candidates_;
  /// Lazy per-item total-cardinality cache for EstimateEcutSlots (reused
  /// buffer; rebuilt each Ecut call).
  std::vector<uint64_t> item_totals_;
  /// All null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  telemetry::Counter* slots_fetched_ = nullptr;
  telemetry::Counter* lists_opened_ = nullptr;
  telemetry::Counter* transactions_scanned_ = nullptr;
  telemetry::Counter* itemsets_counted_ = nullptr;
  /// `counting/intersect_seconds_<enc>_<enc>` histograms indexed by the
  /// encodings of the two smallest views of an intersection (the pair the
  /// k-way kernel folds first). All null when unbound, so the encoding
  /// scan and the timer are skipped entirely on the plain hot path.
  telemetry::Histogram* intersect_seconds_[kNumTidEncodings]
                                          [kNumTidEncodings] = {};
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_COUNTING_CONTEXT_H_
