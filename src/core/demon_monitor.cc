#include "core/demon_monitor.h"

#include <type_traits>

#include "persistence/block_codec.h"
#include "persistence/file_header.h"
#include "persistence/serializer.h"
#include "tidlist/history_block.h"

namespace demon {
namespace {

/// Version of the checkpoint container payload (see FormatId::kCheckpoint).
/// v2 appends the TID-list budget fields to each MonitorSpec; v1 files
/// restore with unbounded budgets.
constexpr uint32_t kCheckpointVersion = 2;

/// Maintainers index per-item arrays by a block's items, so a decoded block
/// naming an item outside the universe is corruption, not a caller bug.
Status CheckItemUniverse(const TransactionBlock& block, size_t num_items) {
  for (const TransactionView t : block) {
    if (!t.empty() && t.back() >= num_items) {
      return Status::DataLoss("transaction block " +
                              std::to_string(block.info().id) + " holds item " +
                              std::to_string(t.back()) +
                              " outside the universe of " +
                              std::to_string(num_items));
    }
  }
  return Status::OK();
}

}  // namespace

Status DemonMonitor::CheckNoBlocksYet() const {
  if (!snapshot_.empty() || !points_.empty() || !labeled_.empty()) {
    return Status::FailedPrecondition(
        "monitors must be registered before the first block");
  }
  return Status::OK();
}

Result<DemonMonitor::MonitorId> DemonMonitor::AddMonitor(MonitorSpec spec) {
  return RegisterSpec(std::move(spec), /*check_no_blocks=*/true);
}

Result<const MonitorSpec*> DemonMonitor::SpecOf(MonitorId id) const {
  if (id >= specs_.size()) {
    return Status::NotFound("no monitor with id " + std::to_string(id));
  }
  return &specs_[id];
}

Result<DemonMonitor::MonitorId> DemonMonitor::RegisterSpec(
    MonitorSpec spec, bool check_no_blocks) {
  const bool windowed = spec.kind == MonitorKind::kWindowedItemsets ||
                        spec.kind == MonitorKind::kWindowedClusters;
  if (spec.bss.is_window_relative()) {
    if (!windowed) {
      return Status::InvalidArgument(
          "window-relative BSS requires a most-recent-window monitor (§2.3)");
    }
    if (spec.bss.window_bits().size() != spec.window) {
      return Status::InvalidArgument(
          "window-relative BSS must have exactly `window` bits");
    }
  }
  if (windowed && spec.window == 0) {
    return Status::InvalidArgument("window must be >= 1");
  }
  switch (spec.kind) {
    case MonitorKind::kUnrestrictedItemsets:
    case MonitorKind::kWindowedItemsets:
      if (spec.minsup <= 0.0 || spec.minsup >= 1.0) {
        return Status::InvalidArgument("minsup must be in (0, 1)");
      }
      break;
    case MonitorKind::kUnrestrictedClusters:
    case MonitorKind::kWindowedClusters:
      if (spec.dim == 0) {
        return Status::InvalidArgument("dim must be >= 1");
      }
      break;
    case MonitorKind::kClassifier:
      if (spec.schema.num_attributes() == 0 || spec.schema.num_classes < 2) {
        return Status::InvalidArgument(
            "classifier schema needs >= 1 attribute and >= 2 classes");
      }
      break;
    case MonitorKind::kPatterns:
      if (spec.minsup <= 0.0 || spec.minsup >= 1.0 || spec.alpha <= 0.0 ||
          spec.alpha >= 1.0) {
        return Status::InvalidArgument("minsup and alpha must be in (0, 1)");
      }
      break;
  }
  if (check_no_blocks) DEMON_RETURN_NOT_OK(CheckNoBlocksYet());

  std::unique_ptr<ModelMaintainer> maintainer;
  // GEMM-backed kinds apply the BSS internally (projection / right-shift,
  // §3.2) and pattern detectors consume every block, so only the
  // unrestricted kinds hand the engine a BSS gate.
  bool gated = false;
  switch (spec.kind) {
    case MonitorKind::kUnrestrictedItemsets: {
      BordersOptions options;
      options.minsup = spec.minsup;
      options.num_items = num_items_;
      options.strategy = spec.strategy;
      options.tidlist_budget_bytes = spec.tidlist_budget_bytes;
      options.tidlist_spill_dir = spec.tidlist_spill_dir;
      maintainer = std::make_unique<BordersAdapter>(options);
      gated = true;
      break;
    }
    case MonitorKind::kWindowedItemsets: {
      BordersOptions options;
      options.minsup = spec.minsup;
      options.num_items = num_items_;
      options.strategy = spec.strategy;
      options.tidlist_budget_bytes = spec.tidlist_budget_bytes;
      options.tidlist_spill_dir = spec.tidlist_spill_dir;
      maintainer = std::make_unique<GemmItemsetAdapter>(spec.bss, spec.window,
                                                        options);
      break;
    }
    case MonitorKind::kUnrestrictedClusters:
      maintainer = std::make_unique<ClusterAdapter>(spec.dim, spec.birch);
      gated = true;
      break;
    case MonitorKind::kWindowedClusters:
      maintainer = std::make_unique<GemmClusterAdapter>(
          spec.bss, spec.window, spec.dim, spec.birch);
      break;
    case MonitorKind::kClassifier:
      maintainer = std::make_unique<DTreeAdapter>(spec.schema, spec.dtree);
      gated = true;
      break;
    case MonitorKind::kPatterns: {
      CompactSequenceMiner::Options options;
      options.focus.minsup = spec.minsup;
      options.focus.num_items = num_items_;
      options.alpha = spec.alpha;
      options.window_size = spec.window;
      maintainer = std::make_unique<PatternAdapter>(options);
      break;
    }
  }
  const MonitorId id = engine_.Register(
      spec.name, std::move(maintainer),
      gated ? std::optional<BlockSelectionSequence>(spec.bss) : std::nullopt);
  specs_.push_back(std::move(spec));
  return id;
}

template <typename BlockT>
void DemonMonitor::LogArrival(const BlockT& block) {
  if (wal_ == nullptr || replaying_ || !wal_status_.ok()) return;
  const Status appended = wal_->Append(block);
  if (!appended.ok()) wal_status_ = appended;
}

void DemonMonitor::AddBlock(TransactionBlock block) {
  block.mutable_info()->id = snapshot_.latest_id() + 1;
  auto records = std::make_shared<const TransactionBlock>(std::move(block));
  LogArrival(*records);
  AppendTransactions(std::move(records));
  if (audit::kEnabled) {
    audit::AuditResult audit;
    AuditInto(&audit);
    audit.CheckOrDie();
  }
}

void DemonMonitor::AppendTransactions(
    std::shared_ptr<const TransactionBlock> block) {
  const BlockId id =
      snapshot_.Append(std::make_shared<const HistoryBlock>(block));
  // The dispatched block keeps the records alive while monitors absorb it;
  // after that, only the monitors that read records hold them.
  engine_.Dispatch(AnyBlock(snapshot_.block(id), std::move(block)));
}

void DemonMonitor::AuditInto(audit::AuditResult* audit) const {
  for (const auto& block : snapshot_.blocks()) block->AuditInto(audit);
}

void DemonMonitor::AddPointBlock(PointBlock block) {
  const BlockId id = points_.Append(std::move(block));
  LogArrival(*points_.block(id));
  engine_.Dispatch(AnyBlock(points_.block(id)));
}

void DemonMonitor::AddLabeledBlock(LabeledBlock block) {
  const BlockId id = labeled_.Append(std::move(block));
  LogArrival(*labeled_.block(id));
  engine_.Dispatch(AnyBlock(labeled_.block(id)));
}

Status DemonMonitor::Checkpoint(const std::string& path) const {
  // Quiesce so deferred GEMM offline work has landed; the per-maintainer
  // MaintainerOf below quiesces again, which is then a no-op.
  engine_.Quiesce();
  persistence::Writer head;
  head.WriteU64(num_items_);
  persistence::WriteSnapshot(head, snapshot_);
  persistence::WriteSnapshot(head, points_);
  persistence::WriteSnapshot(head, labeled_);
  head.WriteU64(specs_.size());
  // Each maintainer's state is framed — its spec and length, then its
  // bytes — so a corrupt section cannot bleed into its neighbor on load.
  // Frames and states go to the file as parts of one gathered write: a
  // copy of every state into one image would double the checkpoint's
  // largest transient buffer.
  std::vector<persistence::Writer> frames(specs_.size());
  std::vector<persistence::Writer> states(specs_.size());
  std::vector<std::string_view> parts = {head.buffer()};
  for (MonitorId id = 0; id < specs_.size(); ++id) {
    SaveMonitorSpec(frames[id], specs_[id]);
    DEMON_ASSIGN_OR_RETURN(const ModelMaintainer* maintainer,
                           engine_.MaintainerOf(id));
    DEMON_RETURN_NOT_OK(maintainer->SaveState(states[id]));
    frames[id].WriteU64(states[id].size());
    parts.push_back(frames[id].buffer());
    parts.push_back(states[id].buffer());
  }
  return persistence::WritePayloadFile(path, persistence::FormatId::kCheckpoint,
                                       kCheckpointVersion, parts);
}

Result<std::unique_ptr<DemonMonitor>> DemonMonitor::Restore(
    const std::string& path, const EngineOptions& engine) {
  uint32_t checkpoint_version = kCheckpointVersion;
  DEMON_ASSIGN_OR_RETURN(
      const std::string payload,
      persistence::ReadPayloadFile(path, persistence::FormatId::kCheckpoint,
                                   kCheckpointVersion, &checkpoint_version));
  persistence::Reader r(payload);
  const uint64_t num_items = r.ReadU64();
  if (!r.ok()) return r.status();

  auto monitor = std::make_unique<DemonMonitor>(
      static_cast<size_t>(num_items), engine);
  // The decoded flat blocks stay held until every maintainer is restored,
  // so none is transposed back while monitors resolve their blocks; after
  // that they live on only where a monitor reads records.
  TransactionSnapshot records;
  persistence::ReadSnapshotInto(r, &records);
  persistence::ReadSnapshotInto(r, &monitor->points_);
  persistence::ReadSnapshotInto(r, &monitor->labeled_);
  if (!r.ok()) return r.status();
  for (const auto& block : records.blocks()) {
    DEMON_RETURN_NOT_OK(CheckItemUniverse(*block, monitor->num_items_));
    monitor->snapshot_.Append(std::make_shared<const HistoryBlock>(block));
  }

  // Maintainer state references blocks by id; resolve them against the
  // just-restored snapshots so block data is shared, not duplicated.
  persistence::BlockSource source;
  source.transactions =
      [&m = *monitor](BlockId id)
      -> Result<std::shared_ptr<const HistoryBlock>> {
    if (id < 1 || id > m.snapshot_.latest_id()) {
      return Status::DataLoss("checkpoint references unknown transaction block " +
                              std::to_string(id));
    }
    return m.snapshot_.block(id);
  };
  source.points = [&m = *monitor](
                      BlockId id) -> Result<std::shared_ptr<const PointBlock>> {
    if (id < 1 || id > m.points_.latest_id()) {
      return Status::DataLoss("checkpoint references unknown point block " +
                              std::to_string(id));
    }
    return m.points_.block(id);
  };
  source.labeled =
      [&m = *monitor](BlockId id)
      -> Result<std::shared_ptr<const LabeledBlock>> {
    if (id < 1 || id > m.labeled_.latest_id()) {
      return Status::DataLoss("checkpoint references unknown labeled block " +
                              std::to_string(id));
    }
    return m.labeled_.block(id);
  };
  r.set_block_source(&source);

  const size_t num_monitors = r.ReadLength(1);
  if (!r.ok()) return r.status();
  for (size_t i = 0; i < num_monitors; ++i) {
    DEMON_ASSIGN_OR_RETURN(MonitorSpec spec,
                           LoadMonitorSpec(r, checkpoint_version));
    DEMON_ASSIGN_OR_RETURN(
        const MonitorId id,
        monitor->RegisterSpec(std::move(spec), /*check_no_blocks=*/false));
    const size_t state_bytes = r.ReadLength(1);
    if (!r.ok()) return r.status();
    persistence::Reader state = r.Sub(state_bytes);
    DEMON_ASSIGN_OR_RETURN(ModelMaintainer * maintainer,
                           monitor->engine_.MutableMaintainerOf(id));
    DEMON_RETURN_NOT_OK(maintainer->LoadState(state));
    if (!state.AtEnd()) {
      return Status::DataLoss("monitor " + std::to_string(id) +
                              " left trailing bytes in its state section");
    }
  }
  if (!r.ok()) return r.status();
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after the checkpoint payload");
  }
  return monitor;
}

Status DemonMonitor::AttachWal(const std::string& path) {
  DEMON_ASSIGN_OR_RETURN(wal_, persistence::WriteAheadLog::Open(path));
  wal_status_ = Status::OK();
  return Status::OK();
}

Status DemonMonitor::ResetWal() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no write-ahead log attached");
  }
  DEMON_RETURN_NOT_OK(wal_->Reset());
  wal_status_ = Status::OK();
  return Status::OK();
}

Status DemonMonitor::ReplayWal(const std::string& path) {
  replaying_ = true;
  persistence::WriteAheadLog::Replayer replayer;
  // Records up to the restored snapshot's latest id were captured by the
  // checkpoint; later ids must continue the sequence without a gap.
  const auto feed = [this](auto& snapshot, auto block,
                           const char* payload) -> Status {
    const BlockId id = block->info().id;
    const BlockId next = snapshot.latest_id() + 1;
    if (id < next) return Status::OK();
    if (id > next) {
      return Status::DataLoss(
          std::string("WAL jumps to ") + payload + " block " +
          std::to_string(id) + " but the next expected id is " +
          std::to_string(next));
    }
    if constexpr (std::is_same_v<decltype(block),
                                 std::shared_ptr<const TransactionBlock>>) {
      AppendTransactions(std::move(block));
    } else {
      snapshot.Append(std::move(block));
      engine_.Dispatch(AnyBlock(snapshot.block(id)));
    }
    return Status::OK();
  };
  replayer.transactions =
      [&](std::shared_ptr<const TransactionBlock> block) {
        DEMON_RETURN_NOT_OK(CheckItemUniverse(*block, num_items_));
        return feed(snapshot_, std::move(block), "transaction");
      };
  replayer.points = [&](std::shared_ptr<const PointBlock> block) {
    return feed(points_, std::move(block), "point");
  };
  replayer.labeled = [&](std::shared_ptr<const LabeledBlock> block) {
    return feed(labeled_, std::move(block), "labeled");
  };
  const Status replayed = persistence::WriteAheadLog::Replay(path, replayer);
  replaying_ = false;
  return replayed;
}

Result<const ItemsetModel*> DemonMonitor::ItemsetModelOf(MonitorId id) const {
  DEMON_ASSIGN_OR_RETURN(const ModelMaintainer* m, engine_.MaintainerOf(id));
  return m->itemset_model();
}

Result<const ClusterModel*> DemonMonitor::ClusterModelOf(MonitorId id) const {
  DEMON_ASSIGN_OR_RETURN(const ModelMaintainer* m, engine_.MaintainerOf(id));
  return m->cluster_model();
}

Result<const DecisionTree*> DemonMonitor::ClassifierOf(MonitorId id) const {
  DEMON_ASSIGN_OR_RETURN(const ModelMaintainer* m, engine_.MaintainerOf(id));
  return m->dtree_model();
}

Result<const CompactSequenceMiner*> DemonMonitor::PatternsOf(
    MonitorId id) const {
  DEMON_ASSIGN_OR_RETURN(const ModelMaintainer* m, engine_.MaintainerOf(id));
  return m->pattern_miner();
}

Result<MonitorStats> DemonMonitor::StatsOf(MonitorId id) const {
  return engine_.StatsOf(id);
}

Result<std::string> DemonMonitor::NameOf(MonitorId id) const {
  return engine_.NameOf(id);
}

}  // namespace demon
