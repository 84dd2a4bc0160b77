#ifndef DEMON_ITEMSETS_BORDERS_H_
#define DEMON_ITEMSETS_BORDERS_H_

#include <memory>
#include <string>
#include <vector>

#include "data/block.h"
#include "itemsets/counting_context.h"
#include "itemsets/itemset_model.h"
#include "itemsets/support_counting.h"
#include "persistence/serializer.h"
#include "tidlist/history_block.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// Configuration of a BordersMaintainer.
struct BordersOptions {
  /// Minimum support κ ∈ (0, 1).
  double minsup = 0.01;
  /// Item-universe size.
  size_t num_items = 1000;
  /// How the update phase counts new candidates (paper Figs 2, 4-7).
  CountingStrategy strategy = CountingStrategy::kPtScan;
  /// ECUT+ only: per-block space budget for materialized 2-itemset lists,
  /// as a fraction of the block's item-list slots. The paper observed the
  /// full materialization needs < 25% extra space at κ >= 0.008 (Fig 3).
  double pair_budget_fraction = 1.0;
  /// Memory budget for resident encoded TID-list bytes (out-of-core
  /// paging below it; see TidListStoreOptions). 0 defers to the
  /// DEMON_TIDLIST_BUDGET_BYTES environment variable, and unbounded when
  /// that is also unset — the all-in-RAM default.
  size_t tidlist_budget_bytes = 0;
  /// Spill directory for evicted TID-list extents. Empty defers to
  /// DEMON_TIDLIST_SPILL_DIR, then to a fresh temp directory.
  std::string tidlist_spill_dir;
};

/// \brief Incremental maintainer of the frequent-itemset model under
/// systematic block evolution — the BORDERS algorithm of [FAAM97, TBAR97]
/// with the paper's ECUT / ECUT+ counting in the update phase (§3.1.1).
///
/// Usage: construct, then call AddBlock for every block *selected by the
/// BSS* (unselected blocks are simply not passed in; the model carries
/// over, §3.1.1). After each call, `model()` equals the model Apriori
/// would compute from scratch over all added blocks — the invariant the
/// test suite checks.
///
/// The maintainer also supports deletion of the oldest block
/// (RemoveOldestBlock), which is what the direct most-recent-window
/// maintainer AuM of §3.2.4 needs; GEMM does not use deletions.
///
/// Blocks arrive as shared HistoryBlocks. An ECUT/ECUT+ maintainer shares
/// each block's item TID-lists with every other consumer of the block and
/// keeps no reference to its flat records — it reads them only while the
/// block is added, and has a dropped block transposed back when it
/// deletes the block or re-mines from scratch; ECUT+ adds its own pair
/// lists. A PT-Scan maintainer scans records, so it holds every flat block.
///
/// Copying a maintainer deep-copies the model but shares the immutable
/// block data and TID-lists. GEMM never copies one: it keeps w
/// maintainers and recycles the retiring window's through Reset().
class BordersMaintainer {
 public:
  /// Timing/volume breakdown of the last AddBlock/RemoveOldestBlock call,
  /// matching the phases reported in Figures 4-7.
  struct UpdateStats {
    double detection_seconds = 0.0;
    double update_seconds = 0.0;
    /// New candidate itemsets of the update phase.
    size_t new_candidates = 0;
    /// Of those, the ones revived from a retired row with their exact
    /// count; only the rest were counted over the history.
    size_t revived_candidates = 0;
    /// Iterations of the update loop (0 if detection found no change).
    size_t update_iterations = 0;
    /// Counting-volume metrics of the update phase.
    CountingStats counting;
  };

  explicit BordersMaintainer(const BordersOptions& options);

  /// Adds a selected block and brings the model up to date. The block's
  /// records must be live (held by the caller or by `block` itself); its
  /// item lists are built here unless another consumer built them.
  void AddBlock(std::shared_ptr<const HistoryBlock> block);

  /// Adds a block no other consumer shares: wraps it in a history block
  /// of its own, whose item lists this maintainer builds.
  void AddBlock(std::shared_ptr<const TransactionBlock> block);

  /// Returns to the state of a maintainer freshly constructed with
  /// options(): the model's trie, the blocks and the TID-list store are
  /// emptied, but the trie's arrays and the counting scratch keep their
  /// capacity, and the pool and telemetry bindings stay. GEMM recycles its
  /// retiring window model this way instead of constructing a new one.
  void Reset();

  /// Removes the oldest previously added block and brings the model up to
  /// date (supports AuM-style sliding windows). Requires NumBlocks() >= 1.
  void RemoveOldestBlock() { RemoveBlockAt(0); }

  /// Removes the block at position `index` (0 = oldest) among the blocks
  /// added so far. Arbitrary window-relative BSSs make AuM delete blocks
  /// from the middle of its selected set (§3.2.4).
  void RemoveBlockAt(size_t index);

  /// Block ids currently contributing to the model, in addition order.
  std::vector<BlockId> BlockIds() const {
    std::vector<BlockId> ids;
    ids.reserve(history_.size());
    for (const auto& block : history_) ids.push_back(block->info().id);
    return ids;
  }

  /// Changes the minimum support threshold (paper §3.1.1: trivial when
  /// raising; re-runs the update machinery when lowering).
  void ChangeMinSupport(double minsup);

  /// Binds the counting kernel to `pool` (not owned; null = sequential):
  /// detection scans, the base-case Apriori and update-phase candidate
  /// counting then shard over the pool with bit-identical results. The
  /// MaintenanceEngine shares its monitor pool this way.
  void set_counting_pool(ThreadPool* pool) { counting_.set_pool(pool); }

  /// Binds `registry` (not owned; nullable) for phase spans
  /// ("tidlist-build" / "borders-detect" / "borders-update"), the
  /// `borders/{detection,update}_seconds` histograms, the
  /// `borders/revived_candidates` counter, the `tidlist/builds` counter
  /// (item-list builds this maintainer ran; blocks whose lists another
  /// consumer built are not counted), and — forwarded to
  /// the counting kernel — per-shard counting spans and counters. The
  /// UpdateStats timings remain available in every build; the histograms
  /// and spans are DEMON_TELEMETRY-gated.
  void set_telemetry(telemetry::TelemetryRegistry* registry) {
    counting_.set_telemetry(registry);
    tidlists_.set_telemetry(registry);
    if constexpr (telemetry::kEnabled) {
      telemetry_ = registry;
      detection_hist_ = registry == nullptr
                            ? nullptr
                            : registry->histogram("borders/detection_seconds");
      update_hist_ = registry == nullptr
                         ? nullptr
                         : registry->histogram("borders/update_seconds");
      revived_counter_ =
          registry == nullptr
              ? nullptr
              : registry->counter("borders/revived_candidates");
      builds_counter_ =
          registry == nullptr ? nullptr : registry->counter("tidlist/builds");
    }
  }

  /// Deep audit at a block boundary: the model's BORDERS invariants
  /// (closure, negative border, flag/count consistency), the TID-list
  /// store's structural invariants, and the cross-structure bookkeeping
  /// (one TID-list block per history block of matching size, whose item
  /// extent is the history block's own — `borders/shared-item-extent`;
  /// the model's transaction total equal to the blocks' sum). Appends
  /// violations to `audit`.
  void AuditInto(audit::AuditResult* audit) const;

  /// The decisive (and expensive) audit: re-mines the selected blocks from
  /// scratch with Apriori and requires the incrementally maintained model
  /// to match entry-for-entry — the exact-equivalence guarantee of §3.1.1
  /// — and recounts every retired-row entry, which must name an untracked
  /// itemset with exactly its support. Meant for DEMON_AUDIT builds at
  /// block boundaries, where every test stream doubles as an end-to-end
  /// correctness fuzz.
  void AuditRescratchInto(audit::AuditResult* audit) const;

  /// Serializes the maintainer's dynamic state: the model, the selected
  /// block ids, and — for ECUT/ECUT+ — each block's materialized pair set,
  /// so restore rebuilds byte-identical TID-lists. Blocks themselves are
  /// stored once by the checkpoint container, not here; neither are
  /// retired rows, a cache a restored maintainer starts without.
  void SaveState(persistence::Writer& w) const;

  /// Restores state saved by SaveState into a freshly constructed
  /// maintainer with the same options. Selected blocks are re-acquired
  /// through the Reader's transaction BlockSource; their item lists are
  /// shared (or built) and ECUT+ pair lists rebuilt with the recorded pair
  /// sets.
  [[nodiscard]] Status LoadState(persistence::Reader& r);

  const ItemsetModel& model() const { return model_; }
  const BordersOptions& options() const { return options_; }
  const UpdateStats& last_stats() const { return last_stats_; }
  size_t NumBlocks() const { return history_.size(); }
  const TidListStore& tidlist_store() const { return tidlists_; }

 private:
  /// Counts all tracked itemsets over `block` and folds the counts into the
  /// model (sign = +1 for addition, -1 for deletion). Returns block size.
  void FoldBlockCounts(const TransactionBlock& block, int sign);

  /// Re-derives frequent flags, handles demotions/promotions, runs the
  /// candidate-expansion update loop, and prunes the border. The core of
  /// the detection/update machinery shared by add, delete and κ-change.
  void Refresh();

  /// Generates the not-yet-tracked candidates obtainable by joining the
  /// given newly frequent seed nodes with the frequent sets of the same
  /// size.
  std::vector<Itemset> SeededCandidates(
      const std::vector<ItemsetTrie::NodeId>& seeds) const;

  /// Drops tracked itemsets that have an infrequent (k-1)-subset after
  /// the given nodes were demoted (restores the NB- invariant), keeping
  /// each one's count in the retired row of a (k-1)-subset that stays
  /// tracked; rows are capped at half the tracked itemsets.
  void PruneBorder(const std::vector<ItemsetTrie::NodeId>& demoted);

  /// Takes the retired count of `candidate` from the row of the
  /// (k-1)-subset holding it; false when no row does.
  bool Revive(const Itemset& candidate, uint64_t* count);

  /// Appends `block`'s TID-lists to the store: its shared item lists, plus
  /// for ECUT+ the pairs `spec` requests (none when null).
  void AppendTidLists(const HistoryBlock& block,
                      const PairMaterializationSpec* spec);

  bool uses_tidlists() const {
    return options_.strategy != CountingStrategy::kPtScan;
  }

  BordersOptions options_;
  ItemsetModel model_;
  /// The selected blocks, in addition order.
  std::vector<std::shared_ptr<const HistoryBlock>> history_;
  /// PT-Scan only: the selected blocks' flat records, which its scans
  /// read (empty for ECUT/ECUT+, which read tidlists_).
  std::vector<std::shared_ptr<const TransactionBlock>> transactions_;
  TidListStore tidlists_;
  UpdateStats last_stats_;
  /// Reusable (optionally parallel) support-counting kernel. Copies of a
  /// maintainer share the pool binding but not the scratch buffers.
  CountingContext counting_;
  /// All null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  telemetry::Histogram* detection_hist_ = nullptr;
  telemetry::Histogram* update_hist_ = nullptr;
  telemetry::Counter* revived_counter_ = nullptr;
  telemetry::Counter* builds_counter_ = nullptr;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_BORDERS_H_
