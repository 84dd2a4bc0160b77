#ifndef DEMON_CORE_ENGINE_H_
#define DEMON_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/bss.h"
#include "core/model_maintainer.h"

namespace demon {

/// Configuration of a MaintenanceEngine.
struct EngineOptions {
  /// Number of worker threads updating monitors concurrently. 0 runs
  /// every update inline on the dispatching thread (sequential mode);
  /// parallel maintenance is bit-identical to sequential because monitors
  /// are independent and the engine barriers between blocks.
  size_t num_threads = 0;

  /// When true (and num_threads > 0), GEMM's future-window updates are
  /// queued to the pool after the time-critical response completes, and
  /// drained before the next block is dispatched (or on Quiesce). Response
  /// latency then reflects only the time-critical path (§3.2.3's "can be
  /// brought up to date off-line").
  bool defer_offline = false;

  /// Registry receiving the engine's spans, per-monitor latency
  /// histograms and kernel counters. Null (the default) makes the engine
  /// own a private registry, so concurrent engines never mix telemetry;
  /// inject one to aggregate across engines or to read it from outside.
  /// Must outlive the engine when set.
  telemetry::TelemetryRegistry* telemetry = nullptr;

  /// How many per-block timeline records the engine retains (a bounded
  /// ring; the oldest record is evicted when full). 0 disables block
  /// timeline recording entirely.
  size_t block_timeline_capacity = 4096;
};

/// \brief Per-monitor instrumentation, as returned by `StatsOf`.
///
/// This is a compatibility *view* over the engine's telemetry: the
/// latency fields are derived from the per-monitor response/offline
/// histograms (`monitor/<name>/response_seconds` and `.../offline_seconds`
/// in the engine's registry) at the moment of the call. Those histograms
/// are recorded in every build — the DEMON_TELEMETRY gate only controls
/// span tracing and kernel-level macros — so MonitorStats behaves
/// identically under -DDEMON_TELEMETRY=OFF.
struct MonitorStats {
  /// Blocks whose payload matched and whose BSS gate selected them.
  size_t blocks_routed = 0;
  /// Matching-payload blocks the BSS gate filtered out (§3.1: the model
  /// simply carries over).
  size_t blocks_skipped = 0;
  /// Cumulative wall time on the time-critical response path.
  double response_seconds = 0.0;
  /// Cumulative wall time on deferrable offline updates.
  double offline_seconds = 0.0;
  double last_response_seconds = 0.0;
  double last_offline_seconds = 0.0;

  /// CPU time next to the wall times above, read from the CPU clock of
  /// the thread that ran the monitor's task. Under time-slicing on few
  /// cores the wall times of concurrent monitors overlap and their sum
  /// inflates past real compute, which these do not. But they cover that
  /// one thread only: work the task hands to pool helpers — counting
  /// shards, GEMM's concurrent window drain — runs on other threads'
  /// clocks and is not counted, so these understate a monitor that
  /// fans out, and the monitors' sum does not add up to process CPU.
  double response_cpu_seconds = 0.0;
  double offline_cpu_seconds = 0.0;
  double last_response_cpu_seconds = 0.0;
  double last_offline_cpu_seconds = 0.0;

  /// How the maintained model changed over the last routed block
  /// (DescribeEvolution, captured at the response barrier). All zeros
  /// until the first block routes.
  EvolutionStats evolution;

  /// Latency distribution over all routed blocks, from the histograms
  /// (quantiles interpolated within buckets; max is exact).
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_max = 0.0;
  double offline_p50 = 0.0;
  double offline_p95 = 0.0;
  double offline_max = 0.0;

  double total_seconds() const { return response_seconds + offline_seconds; }
  double last_block_seconds() const {
    return last_response_seconds + last_offline_seconds;
  }
};

/// \brief One structured timeline record per quiesced block: what the
/// engine knows once every response (and, eventually, offline) update for
/// that block has landed. demon_cli merges these with the scraper's
/// periodic samples into the --timeline_out JSONL.
///
/// Records for blocks whose offline work was deferred stay pending inside
/// the engine until the next quiesced boundary (the next Dispatch, a
/// TimelineRecords() call, or destruction) and only then carry final
/// offline times.
struct BlockTimelineRecord {
  BlockId block_id = 0;
  uint64_t t_ns = 0;   ///< NowNanos() when the dispatch began.
  size_t records = 0;  ///< Records in the block.

  /// Per routed monitor. The `*_cpu_seconds` fields read the CPU clock of
  /// the thread that ran the monitor's task only, excluding the counting
  /// shards and GEMM window drains it hands to pool helpers (see
  /// MonitorStats).
  struct MonitorRow {
    std::string name;
    double response_seconds = 0.0;
    double response_cpu_seconds = 0.0;
    double offline_seconds = 0.0;
    double offline_cpu_seconds = 0.0;
    EvolutionStats evolution;
  };
  /// One row per *routed* monitor (skipped monitors carry over unchanged).
  std::vector<MonitorRow> monitors;

  /// `tidlist/resident_bytes` gauge at the quiesced boundary.
  double tidlist_resident_bytes = 0.0;
  /// Pool parallelism tokens held mid-response (num_threads − available,
  /// sampled once after the fan-out; 0 in sequential mode).
  double tokens_in_flight = 0.0;
};

/// JSONL rendering of block records — one `{"type":"block",...}` object
/// per line, mergeable with telemetry::TimelineJsonl scrape lines.
std::string BlockTimelineJsonl(const std::vector<BlockTimelineRecord>& records);

/// \brief Drives every registered model maintainer from one stream of
/// arriving blocks — the paper's Figure 11 loop as an engine.
///
/// `Dispatch` routes a block to each monitor whose payload matches and
/// whose BSS gate (if any) selects the block, updating all of them
/// concurrently on a fixed-size thread pool (or inline when
/// `num_threads == 0`). Monitors never share state, each monitor sees its
/// blocks in arrival order, and the engine waits for all response updates
/// before returning — so parallel execution produces models bit-identical
/// to sequential execution.
///
/// In `defer_offline` mode the deferrable half of each update (GEMM's
/// future-window maintenance) is queued to the pool after the response
/// path completes and drained before the next block or on `Quiesce()`.
class MaintenanceEngine {
 public:
  using MonitorId = size_t;

  explicit MaintenanceEngine(const EngineOptions& options = {});

  /// Drains any deferred offline work before shutting down the pool.
  ~MaintenanceEngine();

  MaintenanceEngine(const MaintenanceEngine&) = delete;
  MaintenanceEngine& operator=(const MaintenanceEngine&) = delete;

  /// Registers a maintainer under `name`. `gate` is a window-independent
  /// BSS filtering which matching-payload blocks reach the maintainer
  /// (unset = all; GEMM-backed maintainers apply their BSS internally).
  MonitorId Register(std::string name,
                     std::unique_ptr<ModelMaintainer> maintainer,
                     std::optional<BlockSelectionSequence> gate = std::nullopt);

  /// Routes `block` to every eligible monitor and waits for all response
  /// updates; offline updates are deferred or run inline per the options.
  void Dispatch(const AnyBlock& block);

  /// Blocks until all deferred offline updates have landed. Logically
  /// const: it only waits for in-flight work, mutating no engine state.
  void Quiesce() const;

  size_t NumMonitors() const { return monitors_.size(); }

  /// The accessors below Quiesce() first, so reading a maintainer's model
  /// or stats never races with a deferred offline update. `StatsOf` is
  /// therefore quiesce-consistent: the returned snapshot reflects every
  /// block previously dispatched, including deferred offline work.
  [[nodiscard]] Result<const ModelMaintainer*> MaintainerOf(MonitorId id) const;
  /// Mutable access for checkpoint restore (LoadState); quiesces first.
  [[nodiscard]] Result<ModelMaintainer*> MutableMaintainerOf(MonitorId id);
  [[nodiscard]] Result<MonitorStats> StatsOf(MonitorId id) const;
  [[nodiscard]] Result<std::string> NameOf(MonitorId id) const;

  const EngineOptions& options() const { return options_; }
  bool parallel() const { return pool_ != nullptr; }

  /// The registry every monitor reports into (engine-owned unless
  /// EngineOptions::telemetry injected one).
  telemetry::TelemetryRegistry* telemetry() const { return telemetry_; }

  /// Quiesces, then renders the registry: the Chrome trace_event span
  /// timeline (load the string written to a .json file in Perfetto) or
  /// the Prometheus text exposition of all counters and histograms.
  std::string ExportTelemetry(telemetry::TelemetryFormat format) const;

  /// Quiesces, finalizes any pending block record (deferred offline work
  /// has now landed), and returns the retained per-block timeline,
  /// oldest first. Empty when block_timeline_capacity is 0.
  std::vector<BlockTimelineRecord> TimelineRecords();

  /// Block records evicted from the ring so far.
  uint64_t timeline_dropped() const { return timeline_dropped_; }

  /// Runs every monitor's deep invariant audit now and escalates any
  /// violation through the audit failure handler (default: report and
  /// abort), with the monitor's name prefixed to each report. In
  /// DEMON_AUDIT builds the engine calls this itself at every block
  /// boundary — once all response and offline work for a block has landed
  /// — so each Dispatch-driven test doubles as a structural fuzz pass.
  /// Callers must have quiesced first (the engine's own call sites have).
  void AuditMonitors() const;

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<ModelMaintainer> maintainer;
    std::optional<BlockSelectionSequence> gate;
    /// Counts and last-block latencies; the cumulative and quantile
    /// fields of the StatsOf view come from the histograms below.
    MonitorStats stats;
    /// Registered as "monitor/<name>/{response,offline}_seconds"; live in
    /// every build (ScopedTimer bypasses the DEMON_TELEMETRY gate).
    telemetry::Histogram* response_hist = nullptr;
    telemetry::Histogram* offline_hist = nullptr;
    /// CPU-time (thread clock) siblings of the wall histograms above —
    /// "monitor/<name>/{response,offline}_cpu_seconds".
    telemetry::Histogram* response_cpu_hist = nullptr;
    telemetry::Histogram* offline_cpu_hist = nullptr;
    /// "evolution/<name>/..." gauges, published at each response barrier
    /// (registered eagerly; the aux pair lazily, once its name is known).
    telemetry::Gauge* evo_elements = nullptr;
    telemetry::Gauge* evo_added = nullptr;
    telemetry::Gauge* evo_removed = nullptr;
    telemetry::Gauge* evo_churn = nullptr;
    telemetry::Gauge* evo_aux = nullptr;
    telemetry::Gauge* evo_aux2 = nullptr;
  };

  [[nodiscard]] Status CheckId(MonitorId id) const;
  void RunResponse(Entry* entry, const AnyBlock& block, uint64_t parent_span);
  void RunOffline(Entry* entry, uint64_t parent_span);

  /// Captures DescribeEvolution for every routed monitor and publishes
  /// the evolution gauges. Called at the response barrier of Dispatch —
  /// after WaitIdle, before offline work is queued (deferred offline
  /// mutates GEMM future windows concurrently).
  void CaptureEvolution(const std::vector<Entry*>& routed);

  /// Fills the offline fields of the pending block record and moves it
  /// into the ring. Caller must be at a quiesced boundary.
  void FinalizePendingTimeline();

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  /// Backing storage for telemetry_ when no registry was injected.
  std::unique_ptr<telemetry::TelemetryRegistry> owned_telemetry_;
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  /// True when a block's offline work was deferred to the pool, so its
  /// boundary audit must wait for the next Quiesce-then-Dispatch (or the
  /// destructor). Only meaningful in DEMON_AUDIT builds.
  bool audit_pending_ = false;
  /// unique_ptr entries keep addresses stable across registration, so
  /// in-flight tasks can hold raw Entry pointers.
  std::vector<std::unique_ptr<Entry>> monitors_;

  /// Bounded ring of finalized block records (see BlockTimelineRecord).
  /// Only the dispatching thread touches these, so no lock is needed.
  std::vector<BlockTimelineRecord> timeline_;
  size_t timeline_head_ = 0;
  size_t timeline_size_ = 0;
  uint64_t timeline_dropped_ = 0;
  /// Record for the last dispatched block while its offline work is still
  /// deferred; finalized at the next quiesced boundary.
  std::optional<BlockTimelineRecord> pending_record_;
  /// Routed entries of the pending record, to read their offline times.
  std::vector<Entry*> pending_routed_;
};

}  // namespace demon

#endif  // DEMON_CORE_ENGINE_H_
