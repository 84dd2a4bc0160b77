#ifndef DEMON_CORE_MODEL_MAINTAINER_H_
#define DEMON_CORE_MODEL_MAINTAINER_H_

#include <memory>
#include <string_view>
#include <variant>

#include "common/audit.h"
#include "common/check.h"
#include "common/status.h"
#include "data/block.h"
#include "dtree/labeled_block.h"
#include "tidlist/history_block.h"

namespace demon {

namespace persistence {
class Writer;
class Reader;
}  // namespace persistence

class ItemsetModel;
class ClusterModel;
class DecisionTree;
class CompactSequenceMiner;
class ThreadPool;

namespace telemetry {
class TelemetryRegistry;
}  // namespace telemetry

/// \brief A block of any record type the system monitors, held by
/// shared_ptr exactly as the snapshots store it. The evolving database of
/// Figure 11 fans one arriving block out to many model maintainers; this
/// wrapper lets that fan-out traverse a single dispatch path even though
/// itemset, cluster and classifier maintainers consume different record
/// types.
///
/// A transaction block travels as its shared HistoryBlock plus a
/// reference to its flat records, so the records stay alive through every
/// monitor's response even after the history block has let go of them. A
/// maintainer that reads them later (GEMM's offline half) keeps a
/// reference of its own.
class AnyBlock {
 public:
  /// Enumerator order must match the variant alternative order below.
  enum class Payload { kTransactions = 0, kPoints = 1, kLabeled = 2 };

  using TxPtr = std::shared_ptr<const TransactionBlock>;
  using HistoryPtr = std::shared_ptr<const HistoryBlock>;
  using PointPtr = std::shared_ptr<const PointBlock>;
  using LabeledPtr = std::shared_ptr<const LabeledBlock>;

  /// A block no other consumer shares: wrapped in a history block of its
  /// own.
  // NOLINTNEXTLINE(google-explicit-constructor): blocks convert freely.
  AnyBlock(TxPtr block)
      : AnyBlock(std::make_shared<const HistoryBlock>(block), block) {}
  /// A history block and its live flat records.
  AnyBlock(HistoryPtr history, TxPtr block)
      : block_(Transactions{std::move(history), std::move(block)}) {
    DEMON_CHECK(transaction_block() != nullptr);
    CheckHeld();
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  AnyBlock(PointPtr block) : block_(std::move(block)) { CheckHeld(); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  AnyBlock(LabeledPtr block) : block_(std::move(block)) { CheckHeld(); }

  Payload payload() const { return static_cast<Payload>(block_.index()); }

  const BlockInfo& info() const {
    return std::visit([](const auto& ptr) -> const BlockInfo& {
      return ptr->info();
    }, block_);
  }
  BlockId id() const { return info().id; }

  /// Number of records in the block, whatever the payload.
  size_t size() const {
    return std::visit([](const auto& ptr) { return ptr->size(); }, block_);
  }

  /// Typed views; each requires the matching payload.
  const TxPtr& transaction_block() const {
    return std::get<Transactions>(block_).block;
  }
  const HistoryPtr& history() const {
    return std::get<Transactions>(block_).history;
  }
  const PointPtr& points() const { return std::get<PointPtr>(block_); }
  const LabeledPtr& labeled() const { return std::get<LabeledPtr>(block_); }

 private:
  /// The transaction alternative; `->` reaches the history block, as the
  /// other alternatives' pointers reach theirs.
  struct Transactions {
    HistoryPtr history;
    TxPtr block;
    const HistoryBlock* operator->() const { return history.get(); }
  };

  void CheckHeld() const {
    std::visit(
        [](const auto& ptr) { DEMON_CHECK(ptr.operator->() != nullptr); },
        block_);
  }

  std::variant<Transactions, PointPtr, LabeledPtr> block_;
};

/// Short payload name for stats output ("transactions", "points", ...).
const char* ToString(AnyBlock::Payload payload);

/// \brief How the maintained model changed over the last absorbed block —
/// the per-monitor evolution signal (adds/removes/churn) that the engine
/// publishes as `evolution/<monitor>/<name>` gauges, folds into
/// MonitorStats, and that alert policies threshold on.
///
/// `elements` is whatever the model class counts — frequent itemsets for
/// BORDERS/GEMM, CF entries for BIRCH+, tree nodes for the classifier,
/// compact sequences for the pattern miner. `added`/`removed` compare the
/// element *identities* before and after the block (itemsets by contents,
/// subclusters and tree nodes by structural position), and
///
///     churn = (added + removed) / max(|before|, |after|, 1)
///
/// so 0 means a stationary model and values near 1 mean wholesale
/// replacement — a recount of the model against the previous block's
/// element set must reproduce these numbers exactly (the golden timeline
/// test does). `aux` carries one model-specific drift scalar: negative-
/// border size for itemsets, mean CF-radius drift for BIRCH+, rebuild
/// count for structures that re-derive wholesale.
struct EvolutionStats {
  uint64_t blocks = 0;    ///< Blocks absorbed (0 = nothing to describe).
  uint64_t elements = 0;  ///< Element count after the last block.
  uint64_t added = 0;     ///< Elements gained over the last block.
  uint64_t removed = 0;   ///< Elements lost over the last block.
  double churn = 0.0;     ///< (added+removed)/max(before, after, 1).
  /// Up to two model-specific drift scalars; a null name means absent.
  /// The engine publishes `evolution/<monitor>/<aux_name>` for each.
  double aux = 0.0;
  const char* aux_name = nullptr;
  double aux2 = 0.0;
  const char* aux2_name = nullptr;
};

/// \brief The type-erased model maintainer of Figure 11: one registered
/// monitor, whatever its model class (frequent itemsets, clusters,
/// decision tree, compact-sequence patterns) and data-span option
/// (unrestricted or GEMM-windowed).
///
/// The update of a block splits in two, following §3.2.3:
///
///  * `AddResponse` — the time-critical path. For an unrestricted
///    maintainer this is the whole update; for a GEMM-backed maintainer it
///    is the single A_M invocation on the model whose window just became
///    current.
///  * `RunOffline` — the deferrable remainder (GEMM's future-window
///    updates). The MaintenanceEngine may run it on a worker thread after
///    the response has been reported, provided it completes before the
///    next block reaches this maintainer.
///
/// `AddBlock` composes both inline for callers that do not schedule
/// offline work separately. Implementations only ever see blocks whose
/// payload matches `payload()` — the engine routes by payload — and may
/// DEMON_CHECK that invariant.
class ModelMaintainer {
 public:
  virtual ~ModelMaintainer() = default;

  /// Short kind label for stats output (e.g. "borders", "gemm-itemsets").
  virtual std::string_view type_name() const = 0;

  /// The record type this maintainer consumes.
  virtual AnyBlock::Payload payload() const = 0;

  /// Full update: response path plus offline remainder, inline.
  void AddBlock(const AnyBlock& block) {
    AddResponse(block);
    RunOffline();
  }

  /// Time-critical part of absorbing `block` (see class comment).
  virtual void AddResponse(const AnyBlock& block) = 0;

  /// Deferrable remainder of the last `AddResponse`. Must be idempotent
  /// when there is no pending work; default maintainers have none.
  virtual void RunOffline() {}

  /// Whether a `RunOffline` call is pending.
  virtual bool has_offline_work() const { return false; }

  /// Offers this maintainer a thread pool for *internal* parallelism
  /// (today: the itemset counting kernel). The MaintenanceEngine calls
  /// this at registration with its own pool, so one pool serves both
  /// monitor-level fan-out and counting-level sharding; sub-work must be
  /// scheduled with ParallelFor (never WaitIdle) so nesting cannot
  /// deadlock. Maintainers without internal parallelism ignore the offer.
  /// `pool` outlives the maintainer; null revokes a previous offer.
  virtual void BindThreadPool(ThreadPool* /*pool*/) {}

  /// Offers this maintainer a telemetry registry for child spans and
  /// kernel counters under the engine's per-(block, monitor) spans. The
  /// MaintenanceEngine calls this at registration with its registry (the
  /// engine-owned one unless EngineOptions injected another). `registry`
  /// outlives the maintainer; null revokes. In DEMON_TELEMETRY=OFF builds
  /// implementations keep their pointers null so every instrumentation
  /// macro stays a no-op. Maintainers without instrumentation ignore it.
  virtual void BindTelemetry(telemetry::TelemetryRegistry* /*registry*/) {}

  /// Describes how the model changed over the last absorbed block (see
  /// EvolutionStats). Called by the MaintenanceEngine at the quiesced
  /// point of each dispatch — after the response barrier, before offline
  /// work is queued — so implementations may read their model without
  /// locking. Active in every build (like MonitorStats, this is part of
  /// the stats contract, not gated telemetry). Default: all zeros, for
  /// maintainers with nothing to report.
  virtual EvolutionStats DescribeEvolution() const { return {}; }

  /// Deep invariant audit of the maintained structures, called by the
  /// MaintenanceEngine at block boundaries in DEMON_AUDIT builds (and by
  /// the corruption-injection tests in every build). Implementations must
  /// only be called at a quiesced boundary — no offline work pending — and
  /// append violations rather than aborting, so the engine can attach
  /// monitor context before escalating. Default: nothing to audit.
  virtual void AuditInvariants(audit::AuditResult* /*audit*/) const {}

  // --- Checkpointable extension -------------------------------------------
  //
  // Durable state capture for DemonMonitor::Checkpoint/Restore. SaveState
  // must serialize everything needed to continue *bit-identically* from
  // this point; block data is written as BlockId references (the
  // checkpoint container persists the snapshots once, and the Reader's
  // BlockSource re-resolves shared pointers on load). Both are only called
  // at a quiesced block boundary. LoadState is called on a freshly
  // constructed maintainer whose configuration (options, schema, BSS) has
  // already been re-established from the registered MonitorSpec.

  /// Serializes the maintainer's dynamic state into `w`.
  [[nodiscard]] virtual Status SaveState(persistence::Writer& /*w*/) const {
    return Status::NotImplemented(std::string(type_name()) +
                                  " maintainer does not support checkpoints");
  }

  /// Restores state saved by `SaveState`. Corruption surfaces as DataLoss,
  /// configuration mismatches as InvalidArgument.
  [[nodiscard]] virtual Status LoadState(persistence::Reader& /*r*/) {
    return Status::NotImplemented(std::string(type_name()) +
                                  " maintainer does not support checkpoints");
  }

  /// Typed model accessors. Each returns InvalidArgument unless this
  /// maintainer maintains that model class; windowed maintainers return
  /// FailedPrecondition before the first block arrives (no current model
  /// exists yet).
  [[nodiscard]] virtual Result<const ItemsetModel*> itemset_model() const {
    return WrongKind("an itemset model");
  }
  [[nodiscard]] virtual Result<const ClusterModel*> cluster_model() const {
    return WrongKind("a cluster model");
  }
  [[nodiscard]] virtual Result<const DecisionTree*> dtree_model() const {
    return WrongKind("a decision-tree model");
  }
  [[nodiscard]] virtual Result<const CompactSequenceMiner*> pattern_miner() const {
    return WrongKind("a compact-sequence miner");
  }

 private:
  [[nodiscard]] Status WrongKind(const char* what) const {
    return Status::InvalidArgument(std::string(type_name()) +
                                   " monitor does not maintain " + what);
  }
};

}  // namespace demon

#endif  // DEMON_CORE_MODEL_MAINTAINER_H_
