#ifndef DEMON_SERVER_TENANT_H_
#define DEMON_SERVER_TENANT_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/demon_monitor.h"
#include "core/monitor_spec.h"
#include "data/transaction.h"

namespace demon::server {

/// When staged records are sealed into blocks and when a checkpoint is
/// cut. `flush_records` is *policy-as-determinism*: blocks are always cut
/// at exact multiples of it (the one exception is an explicit flush,
/// which seals the current remainder), so the block sequence — and with
/// it the checkpoint bytes — is a pure function of the record stream and
/// the flush points, never of timing. That is what lets the soak harness
/// demand byte-identical checkpoints across a SIGKILL.
struct TenantPolicy {
  /// Records per sealed block.
  uint64_t flush_records = 512;
  /// Checkpoint (and WAL reset) after this many newly sealed blocks.
  uint64_t checkpoint_blocks = 8;
};

/// Point-in-time counters for one tenant.
struct TenantStats {
  /// Records admitted into the stream: durable + staged. The client's
  /// resume cursor.
  uint64_t records_admitted = 0;
  /// Records sealed into blocks; covered by the WAL, so crash-durable.
  uint64_t records_durable = 0;
  uint64_t blocks = 0;
};

/// Outcome of one admission call.
struct AppendOutcome {
  /// Records actually staged (the batch minus the already-admitted
  /// overlap a resend carries).
  uint64_t accepted = 0;
  /// Overlap records skipped by the exactly-once cursor.
  uint64_t deduplicated = 0;
  TenantStats stats;
};

/// \brief One tenant: an independent DemonMonitor plus the admission
/// staging, flush scheduling and durability machinery around it.
///
/// Threading model — two capabilities:
///  * `mutex_` guards the cheap shared state: the staging buffer, the
///    cursors, and the flush token flag. Admission only ever touches
///    this, so appends stay fast while maintenance runs.
///  * the *flush token* (`flush_inflight_` + `flush_done_`) serializes
///    every touch of the monitor itself — background flush tasks,
///    explicit flushes, checkpoints, recovery replay. The token holder
///    works outside `mutex_`, so a slow model update never blocks
///    admission.
///
/// Background flushes are scheduled onto the host's shared ThreadPool and
/// borrow one parallelism token while they run, so a thousand tenants
/// flushing never put more work in flight than the pool has workers.
///
/// Durability: the monitor has a WAL attached from birth; `AddBlock`
/// appends each sealed block before any model sees it. Every
/// `checkpoint_blocks` sealed blocks (and on every explicit `Flush`) the
/// tenant checkpoints atomically and resets the WAL. After a crash,
/// `Recover` = restore checkpoint + replay WAL + resume the cursor at
/// the durable record count; staged-but-unsealed records are gone by
/// design (they were never acknowledged as durable) and the client
/// resends them from the cursor.
class Tenant {
 public:
  /// Creates a fresh tenant under `dir` (created if missing): registers
  /// `specs` on a new monitor, writes the initial checkpoint, attaches
  /// the WAL. Fails if any spec is invalid.
  [[nodiscard]] static Result<std::unique_ptr<Tenant>> Create(
      std::string name, std::string dir, uint64_t num_items,
      std::vector<MonitorSpec> specs, const TenantPolicy& policy);

  /// Rebuilds a tenant from `dir`: restore the checkpoint, replay the
  /// WAL, re-attach it, and resume the admission cursor at the durable
  /// record count.
  [[nodiscard]] static Result<std::unique_ptr<Tenant>> Recover(
      std::string name, std::string dir, const TenantPolicy& policy);

  /// Admits a batch whose first record has cumulative index
  /// `first_record_index`. Overlap with already-admitted records is
  /// skipped (resend after a crash or a lost ack); a batch starting
  /// beyond the cursor is a gap and rejected with InvalidArgument.
  /// The admitted records' items are copied into the flat staging
  /// arrays; `records` stays the caller's. Schedules a background flush
  /// on `pool` once a full block is staged.
  [[nodiscard]] Result<AppendOutcome> Append(
      uint64_t first_record_index, const std::vector<Transaction>& records,
      ThreadPool* pool) DEMON_EXCLUDES(mutex_);

  /// Waits for any in-flight background flush, seals everything staged
  /// (including a final partial block), checkpoints, and resets the WAL.
  /// After an OK return every admitted record is crash-durable.
  [[nodiscard]] Status Flush() DEMON_EXCLUDES(mutex_);

  TenantStats Stats() DEMON_EXCLUDES(mutex_);

  const std::string& name() const { return name_; }
  std::string CheckpointPath() const;
  std::string WalPath() const;

  /// First durability failure (WAL append, checkpoint write), if any.
  /// Once latched the tenant rejects further appends: acknowledging
  /// records that cannot be made durable would betray the recovery
  /// contract.
  [[nodiscard]] Status durable_status() DEMON_EXCLUDES(mutex_);

 private:
  Tenant(std::string name, std::string dir, const TenantPolicy& policy,
         std::unique_ptr<DemonMonitor> monitor);

  /// Blocks until no flush owns the token, then takes it.
  void AcquireFlushToken() DEMON_EXCLUDES(mutex_);
  void ReleaseFlushToken() DEMON_EXCLUDES(mutex_);

  /// Body of a scheduled background flush: seals cut blocks while any
  /// are queued, then releases the token. Runs on a pool worker holding
  /// a parallelism token lease.
  void BackgroundFlush(ThreadPool* pool) DEMON_EXCLUDES(mutex_);

  /// The records of one block, flat: every item, then each record's end
  /// offset into `items`.
  struct CutRecords {
    std::vector<Item> items;
    std::vector<uint32_t> ends;
  };
  /// Moves every staged record into exactly-sized arrays and empties the
  /// staging arrays (keeping their capacity).
  CutRecords CutStagedLocked() DEMON_REQUIRES(mutex_);

  /// Seals `records` into the next block and feeds the monitor. Caller
  /// holds the flush token (never `mutex_`).
  [[nodiscard]] Status SealBlock(CutRecords records) DEMON_EXCLUDES(mutex_);

  /// Checkpoints and resets the WAL. Caller holds the flush token.
  [[nodiscard]] Status WriteCheckpoint() DEMON_EXCLUDES(mutex_);

  const std::string name_;
  const std::string dir_;
  const TenantPolicy policy_;

  Mutex mutex_;
  CondVar flush_done_;
  /// Admitted-but-unsealed records, in stream order. The partial block is
  /// staged flat: every item in `staged_items_`, each record's end offset
  /// into it in `staged_ends_`. Append copies the items in and, the moment
  /// `flush_records` are staged, cuts them into `cut_` as exactly-sized
  /// arrays. So the thread that decoded a request frees its per-record
  /// vectors and allocates the block's long-lived arrays, and the flush
  /// worker only seals (see DESIGN.md "Block layout" for why).
  std::deque<CutRecords> cut_ DEMON_GUARDED_BY(mutex_);
  std::vector<Item> staged_items_ DEMON_GUARDED_BY(mutex_);
  std::vector<uint32_t> staged_ends_ DEMON_GUARDED_BY(mutex_);
  /// Total records admitted (durable + staged).
  uint64_t records_admitted_ DEMON_GUARDED_BY(mutex_) = 0;
  /// Total records sealed into blocks.
  uint64_t records_durable_ DEMON_GUARDED_BY(mutex_) = 0;
  uint64_t blocks_ DEMON_GUARDED_BY(mutex_) = 0;
  uint64_t blocks_since_checkpoint_ DEMON_GUARDED_BY(mutex_) = 0;
  /// The flush token: true while a background task or an explicit flush
  /// owns the monitor.
  bool flush_inflight_ DEMON_GUARDED_BY(mutex_) = false;
  Status durable_status_ DEMON_GUARDED_BY(mutex_);

  /// Touched only by the flush-token holder (and the constructor, before
  /// the tenant is shared).
  std::unique_ptr<DemonMonitor> monitor_;
};

}  // namespace demon::server

#endif  // DEMON_SERVER_TENANT_H_
