#ifndef DEMON_TIDLIST_TIDLIST_STORE_H_
#define DEMON_TIDLIST_TIDLIST_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "data/block.h"
#include "data/types.h"
#include "tidlist/extent_pager.h"
#include "tidlist/tidlist.h"
#include "tidlist/tidlist_codec.h"

namespace demon {

class BlockTidLists;

/// \brief Priority-ordered request to materialize 2-itemset TID-lists in a
/// block, with an upper bound on the extra space (ECUT+, paper §3.1.1).
///
/// The paper's heuristic: materialize the TID-lists of all frequent
/// 2-itemsets of the current model; if they exceed the space budget
/// M_{t+1}, take itemsets in decreasing order of overall support. Callers
/// build `pairs` already sorted by that priority.
struct PairMaterializationSpec {
  /// Item pairs (a < b) in decreasing priority order.
  std::vector<std::pair<Item, Item>> pairs;
  /// Maximum number of TID slots (uint32 entries) the pair lists may
  /// occupy in this block. SIZE_MAX means unbounded.
  size_t budget_slots = SIZE_MAX;
};

/// \brief RAII pin on one block's payload: while any lease is live the
/// block's extents stay resident, so every TidListView taken from the
/// block remains valid. A block whose pair lists sit over a shared item
/// extent pins both. Free when the block is unmanaged — the unbounded
/// default.
class TidListLease {
 public:
  TidListLease() = default;
  TidListLease(TidListLease&& other) noexcept
      : own_(other.own_), items_(other.items_) {
    other.own_ = nullptr;
    other.items_ = nullptr;
  }
  TidListLease& operator=(TidListLease&& other) noexcept {
    if (this != &other) {
      Release();
      own_ = other.own_;
      items_ = other.items_;
      other.own_ = nullptr;
      other.items_ = nullptr;
    }
    return *this;
  }
  TidListLease(const TidListLease&) = delete;
  TidListLease& operator=(const TidListLease&) = delete;
  ~TidListLease() { Release(); }

  void Release();

 private:
  friend class BlockTidLists;
  TidListLease(const BlockTidLists* own, const BlockTidLists* items)
      : own_(own), items_(items) {}
  /// The payloads this lease pinned (null: not managed, nothing pinned).
  const BlockTidLists* own_ = nullptr;
  const BlockTidLists* items_ = nullptr;
};

/// \brief Immutable TID-list representation of one block: one encoded list
/// per item, plus optionally materialized 2-itemset lists (paper §3.1.1).
///
/// Lists hold block-local offsets; by the additivity and 0/1 properties,
/// per-block lists are built once when the block arrives and never change.
/// The item lists occupy exactly as many slots as the transactional
/// representation of the block, and replace it (paper §3.1.1): a block's
/// item lists are built once, by its HistoryBlock, and every maintainer
/// shares that one *item extent* — the flat block is dropped once no
/// record-reading consumer holds it. Pair lists are the "additional disk
/// space" of ECUT+ and depend on the maintainer's model, so an ECUT+
/// maintainer keeps them in an extent of its own (WithPairs) that answers
/// item queries from the shared item extent.
///
/// Storage tiers: each list is encoded (raw or delta+varint, whichever is
/// smaller — see tidlist_codec.h) into one contiguous per-block payload
/// extent. The directory (per-list encoding, cardinality, offset) is
/// always resident and answers every metadata query — sizes, pair
/// presence, slot accounting — without touching the payload, which is what
/// lets cover plans be built for evicted blocks without I/O. The payload
/// itself may be spilled to disk and read back by an ExtentPager;
/// callers hold a `Lease()` across any use of views.
class BlockTidLists {
 public:
  /// Builds the per-item lists (and requested pair lists) for `block`.
  /// `num_items` fixes the item-universe size; items outside [0, num_items)
  /// are invalid.
  static std::shared_ptr<const BlockTidLists> Build(
      const TransactionBlock& block, size_t num_items,
      const PairMaterializationSpec* pairs = nullptr);

  /// The pair lists `pairs` requests for the block `items` holds the item
  /// lists of, intersected from those lists, in an extent of their own
  /// that shares `items` for every item query. Returns `items` itself when
  /// no pair is materialized (nothing requested, or nothing fits).
  /// `items` must hold its own item lists.
  static std::shared_ptr<const BlockTidLists> WithPairs(
      std::shared_ptr<const BlockTidLists> items,
      const PairMaterializationSpec& pairs);

  ~BlockTidLists();

  BlockTidLists(const BlockTidLists&) = delete;
  BlockTidLists& operator=(const BlockTidLists&) = delete;

  size_t num_transactions() const { return num_transactions_; }
  size_t num_items() const { return item_extent().items_.size(); }

  /// The extent holding the item lists: this block's own, or the shared
  /// one its pair lists were built over.
  const BlockTidLists& item_extent() const {
    return shared_items_ != nullptr ? *shared_items_ : *this;
  }

  // --- directory queries: always resident, never touch the payload ------

  /// Cardinality of item's TID-list.
  size_t ItemListSize(Item item) const;
  /// Encoding chosen for item's list by the density heuristic.
  TidEncoding ItemListEncoding(Item item) const;
  /// True when the pair {a, b} (any order) was materialized in this block.
  bool HasPairList(Item a, Item b) const;
  /// Cardinality of the materialized pair list; 0 when not materialized.
  size_t PairListSize(Item a, Item b) const;
  /// Number of materialized pairs.
  size_t num_pair_lists() const { return pair_extents_.size(); }
  /// All materialized pairs (a < b), in unspecified order.
  std::vector<std::pair<Item, Item>> MaterializedPairs() const;
  /// Slots (uint32 entries) occupied by the item lists == total item
  /// occurrences of the block.
  size_t item_list_slots() const { return item_extent().item_list_slots_; }
  /// Extra slots occupied by materialized pair lists.
  size_t pair_list_slots() const { return pair_list_slots_; }
  /// Encoded bytes of the block's item and pair lists, counted as one
  /// payload: the item lists, then the pair lists from the next 8-byte
  /// boundary — the same figure whether the pair lists share the item
  /// extent's payload or sit over a shared one. For a block holding its
  /// own item lists, this is its payload, the unit of the pager's budget.
  size_t payload_bytes() const;
  /// Number of item and pair lists stored under `encoding` (diagnostics /
  /// benches).
  size_t EncodingCensus(TidEncoding encoding) const;

  // --- payload access: hold a Lease across any use of views -------------

  /// Pins the payload — and a shared item extent's — resident (faulting
  /// it in if evicted) until the lease is released. No-op for unmanaged
  /// blocks.
  TidListLease Lease() const {
    const BlockTidLists* own = Pin() ? this : nullptr;
    const BlockTidLists* items =
        shared_items_ != nullptr && shared_items_->Pin() ? shared_items_.get()
                                                         : nullptr;
    return TidListLease(own, items);
  }

  /// Advisory: payload currently in memory? (Unmanaged blocks: always.)
  bool resident() const {
    return payload_.load(std::memory_order_relaxed) != nullptr &&
           (shared_items_ == nullptr || shared_items_->resident());
  }

  /// View of item's encoded list. Valid only while a lease is held.
  TidListView ItemView(Item item) const;
  /// View of the materialized pair {a, b}; HasPairList must be true.
  TidListView PairView(Item a, Item b) const;

  /// Decoded copy of item's list (takes a lease internally).
  TidList MaterializeItemList(Item item) const;
  /// Decoded copy of the pair list; HasPairList must be true.
  TidList MaterializePairList(Item a, Item b) const;

  /// Deep structural audit (paper §3.1.1's representation invariants):
  /// every decoded list sorted strictly increasing with offsets in range,
  /// directory cardinalities exact, slot accounting exact, every
  /// materialized pair list equal to the intersection of its item lists,
  /// and sampled cross-encoding kernel agreement. A shared item extent is
  /// audited too. Appends violations to `audit`.
  void AuditInto(audit::AuditResult* audit) const;

  /// Test-only: replaces item's list (re-encoded raw so arbitrary corrupt
  /// contents survive verbatim) and rebuilds the payload — of a block that
  /// holds its own item lists — so
  /// corruption-injection tests can break an invariant and assert the
  /// auditor reports it. Slot accounting is intentionally left stale.
  /// Analysis is off: the payload members are nominally pager-guarded, but
  /// this hook runs single-threaded from tests with no concurrent pager
  /// activity (it still notifies the pager afterwards so accounting holds).
  void SetItemListForTest(Item item, const TidList& list)
      DEMON_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class ExtentPager;
  friend class HistoryBlock;
  friend class TidListLease;
  friend class TidListStore;

  /// Directory entry of one encoded list inside the payload extent.
  struct Extent {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint32_t count = 0;
    TidEncoding encoding = TidEncoding::kRaw;
  };

  BlockTidLists() = default;

  static uint64_t PairKey(Item a, Item b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  uint32_t universe() const { return static_cast<uint32_t>(num_transactions_); }
  TidListView ViewOf(const Extent& extent) const;

  /// The ECUT+ heuristic shared by Build and WithPairs: takes the
  /// requested pairs in priority order while they fit the budget, each
  /// list computed by `intersect(a, b, &out)`. Returns them sorted by key
  /// and sets pair_list_slots_.
  template <typename Intersect>
  std::vector<std::pair<uint64_t, TidList>> SelectPairs(
      const PairMaterializationSpec& pairs, const Intersect& intersect);

  /// Encodes `item_lists` and `pair_lists` (sorted by key) into the
  /// directory + contiguous payload. `force_raw_item` (when < num items)
  /// pins that item's encoding to raw — the corruption-injection hook.
  /// Analysis is off: it writes the nominally pager-guarded payload
  /// members, but only runs before the block is published (Build) or from
  /// the single-threaded test hook above — never on a managed block with a
  /// live pager racing it.
  void EncodePayload(
      const std::vector<TidList>& item_lists,
      const std::vector<std::pair<uint64_t, TidList>>& pair_lists,
      size_t force_raw_item = SIZE_MAX) DEMON_NO_THREAD_SAFETY_ANALYSIS;

  // Pager plumbing, for this object's own payload. Pin is a cheap no-op
  // returning false when pager_ is null.
  bool Pin() const;
  void Unpin() const;
  /// Decides the pager once: the first call binds `pager` (or none, when
  /// null) and every later call is a no-op. TidListStore::Append calls it
  /// for a block it is the first to hold; a HistoryBlock calls it before
  /// publishing its item extent, so no thread ever sees the pager change.
  void AttachPager(std::shared_ptr<ExtentPager> pager) const;

  // Payload state transitions, called only by the owning pager with its
  // mutex held. The pager passes itself so the analysis can check the
  // capability at the call site (`block->FaultIn(*this, ...)` inside the
  // pager resolves the requirement to the mutex it actually holds); each
  // body re-asserts that `pager` is `*pager_` at runtime, which is the
  // aliasing fact the static analysis cannot prove.

  /// Reads the spill file back in.
  void FaultIn(const ExtentPager& pager, const std::string& spill_path) const
      DEMON_REQUIRES(pager.mutex_);
  /// Writes the spill file: the payload bytes alone, at offset 0 (the
  /// directory never leaves memory). Idempotent content: the payload is
  /// immutable.
  void Spill(const ExtentPager& pager, const std::string& path) const
      DEMON_REQUIRES(pager.mutex_);
  /// Frees the resident payload.
  void ReleasePayload(const ExtentPager& pager) const
      DEMON_REQUIRES(pager.mutex_);

  size_t num_transactions_ = 0;
  /// The shared item extent the pair lists were built over (WithPairs);
  /// null when this object holds its own item lists in items_.
  std::shared_ptr<const BlockTidLists> shared_items_;
  std::vector<Extent> items_;
  std::unordered_map<uint64_t, Extent> pair_extents_;
  size_t item_list_slots_ = 0;
  size_t pair_list_slots_ = 0;
  /// Bytes of the payload holding lists, and the payload's size (one more
  /// when there are none: a resident payload is never empty).
  size_t encoded_bytes_ = 0;
  size_t payload_bytes_ = 0;

  /// Bound at most once, by the first AttachPager (see there); never
  /// detached. Mutable: paging is caching state on a logically immutable
  /// block.
  mutable std::atomic<bool> pager_decided_{false};
  mutable std::shared_ptr<ExtentPager> pager_;
  /// Payload backing storage while resident. Written only by the
  /// pager-mutex transitions above — the annotation names the mutex
  /// through `pager_`, which is set before the block is ever managed and
  /// never changes.
  mutable std::vector<uint8_t> owned_ DEMON_GUARDED_BY(pager_->mutex_);
  /// Lock-free reader side: views and residency probes only need these.
  mutable std::atomic<const uint8_t*> payload_{nullptr};
  mutable std::atomic<uint32_t> pins_{0};
};

/// \brief The TID-list store of an evolving database: one BlockTidLists per
/// selected block, appended as blocks arrive. Copies are cheap: blocks are
/// shared immutable state, and copies share the pager that accounts them.
class TidListStore {
 public:
  /// Options from the environment (the CI soak hook); unbounded when the
  /// DEMON_TIDLIST_BUDGET_BYTES variable is absent.
  TidListStore() : TidListStore(TidListStoreOptions::FromEnv()) {}

  /// A store with an explicit memory budget; 0 = unbounded (no pager).
  explicit TidListStore(const TidListStoreOptions& options);

  /// Appends a block, attaching it (and a shared item extent under it) to
  /// this store's pager when this store is the first to hold it. Blocks
  /// shared across stores — store copies, or the item extent every
  /// maintainer of a monitor shares — keep the pager of the first.
  void Append(std::shared_ptr<const BlockTidLists> block);

  /// Drops the `count` oldest blocks (AuM-style deletion support).
  void DropOldest(size_t count);

  /// Drops every block; the pager (if any) stays bound to the store.
  void Clear() { blocks_.clear(); }

  /// Drops the block at position `index`.
  void DropAt(size_t index);

  size_t NumBlocks() const { return blocks_.size(); }
  const BlockTidLists& block(size_t index) const { return *blocks_[index]; }
  const std::vector<std::shared_ptr<const BlockTidLists>>& blocks() const {
    return blocks_;
  }

  /// Total transactions across blocks.
  size_t TotalTransactions() const;
  /// Total slots in item lists across blocks.
  size_t TotalItemSlots() const;
  /// Total extra slots in pair lists across blocks.
  size_t TotalPairSlots() const;
  /// Total encoded payload bytes across blocks (the TID-list footprint the
  /// memory budget is measured against).
  size_t TotalPayloadBytes() const;

  /// The pager enforcing this store's budget; null when unbounded.
  const std::shared_ptr<ExtentPager>& pager() const { return pager_; }

  /// Fills `order` with block indices, resident blocks first (stable
  /// within each class) — the counting layer's residency-aware visit
  /// order. Identity when unbounded. Advisory: residency may change
  /// concurrently; any order yields identical counts.
  void ResidencyOrder(std::vector<uint32_t>* order) const;

  /// Routes pager metrics into `registry` (see ExtentPager::set_telemetry).
  void set_telemetry(telemetry::TelemetryRegistry* registry);

  /// Audits every block's TID-lists (see BlockTidLists::AuditInto) and the
  /// pager's accounting.
  void AuditInto(audit::AuditResult* audit) const;

 private:
  std::shared_ptr<ExtentPager> pager_;
  std::vector<std::shared_ptr<const BlockTidLists>> blocks_;
};

}  // namespace demon

#endif  // DEMON_TIDLIST_TIDLIST_STORE_H_
