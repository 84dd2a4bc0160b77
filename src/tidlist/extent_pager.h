#ifndef DEMON_TIDLIST_EXTENT_PAGER_H_
#define DEMON_TIDLIST_EXTENT_PAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/sync.h"
#include "common/telemetry.h"

namespace demon {

class BlockTidLists;

/// \brief Configuration of a TidListStore's memory tier.
struct TidListStoreOptions {
  /// Upper bound on resident encoded TID-list bytes across the store's
  /// blocks; 0 means unbounded (no pager, today's all-in-RAM behavior).
  /// The bound is a target: extents pinned by in-flight counting shards
  /// are never evicted, so the peak can exceed it by the pinned working
  /// set (at most one block extent per concurrent counting shard).
  size_t memory_budget_bytes = 0;
  /// Directory receiving spilled extents. Empty picks a fresh mkdtemp
  /// directory under TMPDIR (removed with the pager).
  std::string spill_dir;

  /// Reads `DEMON_TIDLIST_BUDGET_BYTES` / `DEMON_TIDLIST_SPILL_DIR` — how
  /// CI's memory-budget soak forces the paging paths under every test
  /// without touching call sites.
  static TidListStoreOptions FromEnv();
};

/// \brief Spills cold per-block TID-list payloads to files (the payload
/// bytes alone) and mmaps them back on demand, keeping resident bytes under
/// the budget with LRU eviction.
///
/// One pager serves one TidListStore (and its copies — GEMM's cloned
/// histories share blocks, so they must share the pager that accounts
/// them). Every payload state transition (fault-in, spill, release)
/// happens under the single pager mutex; a block whose pin count is
/// nonzero is never evicted, and `BlockTidLists::Lease` orders its pin
/// increment before the residency check, so views taken under a lease stay
/// valid without any per-view locking.
///
/// All per-block paging bookkeeping (LRU stamp, spill state) lives here,
/// in the pager's own entry table, guarded by the pager's mutex — the
/// block itself keeps only what its lock-free readers need (the payload
/// pointer and the pin count, both atomic). The block-side payload
/// transitions take the owning pager as a `DEMON_REQUIRES`-annotated
/// parameter, so clang's thread-safety analysis proves they only run
/// under this mutex.
class ExtentPager {
 public:
  static std::shared_ptr<ExtentPager> Create(
      const TidListStoreOptions& options);
  ~ExtentPager();

  ExtentPager(const ExtentPager&) = delete;
  ExtentPager& operator=(const ExtentPager&) = delete;

  /// Binds the registry receiving `tidlist/{page_ins,evictions,
  /// spilled_bytes}` counters, the `tidlist/resident_bytes` gauge and the
  /// `tidlist/page_in_seconds` histogram. Null unbinds.
  void set_telemetry(telemetry::TelemetryRegistry* registry)
      DEMON_EXCLUDES(mutex_);

  /// Registers a freshly built (resident) block with the pager; may evict
  /// other blocks to make room. Called by TidListStore::Append.
  void Adopt(const BlockTidLists* block) DEMON_EXCLUDES(mutex_);

  /// Unregisters a dying block and deletes its spill file. Called by
  /// ~BlockTidLists.
  void Forget(const BlockTidLists* block) DEMON_EXCLUDES(mutex_);

  /// Faults `block`'s payload back in if evicted and touches its LRU
  /// stamp. The caller must already hold a pin (see BlockTidLists::Lease),
  /// which is what keeps the payload resident after this returns.
  void EnsureResident(const BlockTidLists* block) DEMON_EXCLUDES(mutex_);

  /// Re-accounts a block whose payload was rebuilt in place (test hook)
  /// and invalidates its spill file.
  void OnPayloadRebuilt(const BlockTidLists* block, size_t old_bytes)
      DEMON_EXCLUDES(mutex_);

  size_t memory_budget_bytes() const { return options_.memory_budget_bytes; }
  size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  size_t peak_resident_bytes() const {
    return peak_resident_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t page_ins() const {
    return page_ins_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t spills() const { return spills_.load(std::memory_order_relaxed); }

  /// Advisory residency probe (no lock, no pin) — drives the counting
  /// layer's resident-blocks-first visit order.
  bool IsResident(const BlockTidLists* block) const;

  /// Accounting invariants at a quiesced boundary: resident byte counter
  /// equals the sum of resident extents, every pinned block is resident,
  /// peak >= current.
  void AuditInto(audit::AuditResult* audit) const DEMON_EXCLUDES(mutex_);

 private:
  friend class BlockTidLists;  // names mutex_ in REQUIRES annotations

  /// Paging state of one adopted block. Guarded by mutex_ (the vector
  /// itself and every field).
  struct Entry {
    const BlockTidLists* block = nullptr;
    /// LRU clock stamp of the last Adopt/EnsureResident touch.
    uint64_t lru_stamp = 0;
    /// True once a valid spill file exists at `spill_path` (the payload
    /// image is immutable, so a spill file never goes stale except via
    /// OnPayloadRebuilt, which deletes it).
    bool spilled = false;
    std::string spill_path;
  };

  explicit ExtentPager(const TidListStoreOptions& options);

  /// This pager's entry for `block`, or nullptr if never adopted.
  Entry* FindEntryLocked(const BlockTidLists* block) DEMON_REQUIRES(mutex_);

  /// Evicts LRU unpinned blocks (never `keep`) until the budget holds or
  /// no victim remains.
  void EvictToBudgetLocked(const BlockTidLists* keep) DEMON_REQUIRES(mutex_);
  /// Lazily creates the spill directory; returns the path for the next
  /// spill file.
  std::string NextSpillPathLocked() DEMON_REQUIRES(mutex_);

  /// Lock order: the pager mutex is held while binding telemetry metric
  /// handles, which takes the registry's metrics-map lock — so it must
  /// always be acquired before (outside of) that lock. Declared here,
  /// checked under -Wthread-safety-beta, tabulated in DESIGN.md.
  mutable Mutex mutex_ DEMON_ACQUIRED_BEFORE(telemetry_->metrics_mutex());
  TidListStoreOptions options_;  ///< Immutable after construction.
  std::vector<Entry> entries_ DEMON_GUARDED_BY(mutex_);
  uint64_t clock_ DEMON_GUARDED_BY(mutex_) = 0;
  std::string spill_dir_ DEMON_GUARDED_BY(mutex_);
  bool owns_spill_dir_ DEMON_GUARDED_BY(mutex_) = false;
  /// Process-wide unique id, part of every spill filename — pagers sharing
  /// an explicit spill_dir must never produce colliding paths. Set once by
  /// the constructor.
  uint64_t pager_id_ = 0;
  uint64_t spill_seq_ DEMON_GUARDED_BY(mutex_) = 0;

  std::atomic<size_t> resident_bytes_{0};
  std::atomic<size_t> peak_resident_bytes_{0};
  std::atomic<uint64_t> page_ins_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> spills_{0};

  telemetry::TelemetryRegistry* telemetry_ DEMON_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* page_ins_counter_ DEMON_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* evictions_counter_ DEMON_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* spilled_bytes_counter_ DEMON_GUARDED_BY(mutex_) =
      nullptr;
  telemetry::Gauge* resident_gauge_ DEMON_GUARDED_BY(mutex_) = nullptr;
  telemetry::Histogram* page_in_seconds_ DEMON_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace demon

#endif  // DEMON_TIDLIST_EXTENT_PAGER_H_
