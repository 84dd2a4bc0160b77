#ifndef DEMON_CORE_DEMON_MONITOR_H_
#define DEMON_CORE_DEMON_MONITOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/bss.h"
#include "core/engine.h"
#include "core/maintainers.h"
#include "core/monitor_spec.h"
#include "data/snapshot.h"
#include "persistence/wal.h"

namespace demon {

using LabeledSnapshot = Snapshot<LabeledBlock>;

/// \brief The integration façade over the paper's problem space (its
/// Figure 11): one evolving database feeding any number of registered
/// monitors —
///
///   * unrestricted-window itemset models under a window-independent BSS
///     (BORDERS maintainer, §3.1),
///   * most-recent-window itemset models under any BSS (GEMM, §3.2),
///   * unrestricted and most-recent-window cluster models (BIRCH+ and
///     GEMM over BIRCH+, §3.1.2 / §3.2.4),
///   * incremental decision-tree classifiers (the BOAT stand-in),
///   * compact-sequence pattern detection (§4), optionally windowed.
///
/// Registration takes a MonitorSpec, builds the matching type-erased
/// ModelMaintainer adapter, and hands it to the MaintenanceEngine, which
/// updates all monitors concurrently per block (EngineOptions.num_threads)
/// and can defer GEMM's future-window updates off the time-critical path
/// (EngineOptions.defer_offline). `AddBlock` / `AddPointBlock` /
/// `AddLabeledBlock` append to the matching snapshot and dispatch to every
/// payload-compatible monitor; each monitor's model stays queryable
/// between blocks, and `StatsOf` exposes the engine's per-monitor
/// instrumentation. This is the object a deployment embeds; the underlying
/// algorithm classes stay usable directly for finer control.
///
/// History: each transaction block is wrapped in one shared HistoryBlock
/// that the snapshot and every transaction-consuming monitor hold. The
/// first ECUT/ECUT+ monitor to absorb a block builds its item TID-lists,
/// which all of them share; the block's flat records then live only as
/// long as a monitor that reads records (PT-Scan, patterns) holds them —
/// on an ECUT-only monitor they are freed once the engine has absorbed the
/// block, and checkpoints write them back by transposing the lists.
///
/// Durability: `Checkpoint` atomically snapshots the whole monitored
/// database — blocks, registered specs, and every maintainer's state — to
/// one file, and `Restore` rebuilds an equivalent DemonMonitor from it.
/// An attached write-ahead log (`AttachWal`) records block arrivals as
/// they happen, so `ReplayWal` after a restore replays exactly the blocks
/// that arrived since the checkpoint and the models converge bit-identically
/// to an uninterrupted run.
class DemonMonitor {
 public:
  /// Identifies a registered monitor.
  using MonitorId = MaintenanceEngine::MonitorId;

  explicit DemonMonitor(size_t num_items, const EngineOptions& engine = {})
      : num_items_(num_items), engine_(engine) {}

  /// Registers a monitor described by `spec`. Validation depends on
  /// `spec.kind`: itemset kinds and patterns need `minsup` in (0, 1);
  /// windowed kinds need `window >= 1` and a window-relative BSS (if any)
  /// of exactly `window` bits; cluster kinds need `dim >= 1`; classifiers
  /// need a schema with at least one attribute and two classes; patterns
  /// need `alpha` in (0, 1). Window-relative sequences are rejected for
  /// every unrestricted kind (§2.3), and all monitors must be registered
  /// before the first block of any payload arrives.
  [[nodiscard]] Result<MonitorId> AddMonitor(MonitorSpec spec);

  /// The spec a monitor was registered with.
  [[nodiscard]] Result<const MonitorSpec*> SpecOf(MonitorId id) const;

  /// Appends the next transaction block and updates every
  /// transaction-consuming monitor. DEMON_AUDIT builds then audit the
  /// history (see AuditInto).
  void AddBlock(TransactionBlock block);

  /// Appends the next point block and updates every cluster monitor.
  void AddPointBlock(PointBlock block);

  /// Appends the next labeled block and updates every classifier monitor.
  void AddLabeledBlock(LabeledBlock block);

  /// Drains any deferred (offline) GEMM updates queued by the engine.
  void Quiesce() const { engine_.Quiesce(); }

  // --- Durability ---------------------------------------------------------

  /// Quiesces, then writes one atomic checkpoint file: the block
  /// snapshots, every monitor's spec, and every maintainer's serialized
  /// state. The file appears under `path` only after a complete write
  /// (write-temp-then-rename), so a crash mid-checkpoint leaves any
  /// previous checkpoint intact.
  [[nodiscard]] Status Checkpoint(const std::string& path) const;

  /// Rebuilds a DemonMonitor from a checkpoint written by `Checkpoint`.
  /// Every monitor is re-registered from its stored spec and its
  /// maintainer state restored, so models, stats-relevant structures and
  /// pending GEMM work continue exactly where the checkpoint left off.
  /// Wrong-format files yield InvalidArgument; corruption yields DataLoss.
  [[nodiscard]] static Result<std::unique_ptr<DemonMonitor>> Restore(
      const std::string& path, const EngineOptions& engine = {});

  /// Attaches a write-ahead log at `path` (created when missing): every
  /// subsequent Add*Block is appended and flushed after it is assigned its
  /// id and before any monitor sees it. Append failures latch into
  /// `wal_status()` — arrival processing itself never blocks on the log.
  [[nodiscard]] Status AttachWal(const std::string& path);

  /// First WAL append failure, if any (OK while the log is healthy or
  /// detached). A deployment should surface this: blocks arriving after a
  /// failed append would be missing from crash recovery.
  const Status& wal_status() const { return wal_status_; }

  /// Replays the block arrivals logged at `path` through this monitor, in
  /// arrival order. Records already covered by the restored snapshots
  /// (id <= latest restored id) are skipped, so replaying a log that
  /// overlaps the checkpoint is safe; a gap between the snapshot and the
  /// log yields DataLoss. Replayed blocks are not re-appended to an
  /// attached WAL.
  [[nodiscard]] Status ReplayWal(const std::string& path);

  /// Truncates the attached WAL to empty — call right after a successful
  /// Checkpoint so the log only holds arrivals newer than the checkpoint.
  [[nodiscard]] Status ResetWal();

  // ------------------------------------------------------------------------

  /// The itemset model of a registered itemset monitor. For a windowed
  /// monitor before any block has arrived this is FailedPrecondition (no
  /// current model exists yet).
  [[nodiscard]] Result<const ItemsetModel*> ItemsetModelOf(MonitorId id) const;

  /// The cluster model of a registered cluster monitor.
  [[nodiscard]] Result<const ClusterModel*> ClusterModelOf(MonitorId id) const;

  /// The decision tree of a registered classifier monitor.
  [[nodiscard]] Result<const DecisionTree*> ClassifierOf(MonitorId id) const;

  /// The pattern detector of a registered detector id.
  [[nodiscard]] Result<const CompactSequenceMiner*> PatternsOf(MonitorId id) const;

  /// Per-monitor instrumentation: blocks routed/skipped, response vs
  /// offline wall time.
  [[nodiscard]] Result<MonitorStats> StatsOf(MonitorId id) const;

  /// Name of a monitor (as registered).
  [[nodiscard]] Result<std::string> NameOf(MonitorId id) const;

  /// The engine's telemetry registry (engine-owned unless injected via
  /// EngineOptions::telemetry).
  telemetry::TelemetryRegistry* telemetry() const { return engine_.telemetry(); }

  /// Quiesces the engine and serializes its telemetry registry — see
  /// MaintenanceEngine::ExportTelemetry.
  std::string ExportTelemetry(telemetry::TelemetryFormat format) const {
    return engine_.ExportTelemetry(format);
  }

  /// Quiesces and returns the engine's per-block timeline — one record
  /// per dispatched block with per-monitor response/offline times and
  /// evolution stats (see BlockTimelineRecord).
  std::vector<BlockTimelineRecord> TimelineRecords() {
    return engine_.TimelineRecords();
  }

  /// `history/one-form` over every snapshot entry: each holds its live
  /// flat block or its item lists, covering exactly its record count.
  void AuditInto(audit::AuditResult* audit) const;

  const TransactionHistory& snapshot() const { return snapshot_; }
  const PointSnapshot& point_snapshot() const { return points_; }
  const LabeledSnapshot& labeled_snapshot() const { return labeled_; }
  const MaintenanceEngine& engine() const { return engine_; }
  size_t num_items() const { return num_items_; }
  size_t NumMonitors() const { return engine_.NumMonitors(); }

 private:
  /// Monitors must be registered before the first block of any payload.
  [[nodiscard]] Status CheckNoBlocksYet() const;

  /// Validates `spec` and registers its maintainer. Restore passes
  /// `check_no_blocks = false`: it re-registers monitors after the block
  /// snapshots have been reloaded.
  [[nodiscard]] Result<MonitorId> RegisterSpec(MonitorSpec spec,
                                               bool check_no_blocks);

  /// Appends a restored/replayed arrival to the WAL unless replaying.
  template <typename BlockT>
  void LogArrival(const BlockT& block);

  /// Appends `block` (its id already assigned) to the history and
  /// dispatches it.
  void AppendTransactions(std::shared_ptr<const TransactionBlock> block);

  size_t num_items_;
  /// Declared before the snapshots so they are destroyed first: a history
  /// block's item extent may be paged by a maintainer's pager that reports
  /// into the engine's telemetry registry.
  MaintenanceEngine engine_;
  TransactionHistory snapshot_;
  PointSnapshot points_;
  LabeledSnapshot labeled_;
  /// Parallel to the engine's monitor ids: the spec each was built from
  /// (what Checkpoint stores so Restore can rebuild the maintainer).
  std::vector<MonitorSpec> specs_;
  std::unique_ptr<persistence::WriteAheadLog> wal_;
  Status wal_status_;
  /// True while ReplayWal feeds blocks back in, so they are not re-logged.
  bool replaying_ = false;
};

}  // namespace demon

#endif  // DEMON_CORE_DEMON_MONITOR_H_
