#ifndef DEMON_CORE_MAINTAINERS_H_
#define DEMON_CORE_MAINTAINERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clustering/birch.h"
#include "core/gemm.h"
#include "core/model_maintainer.h"
#include "data/block.h"
#include "dtree/dtree_maintainer.h"
#include "itemsets/borders.h"
#include "patterns/compact_sequences.h"
#include "persistence/block_codec.h"
#include "persistence/serializer.h"

namespace demon {

/// \brief Adapter turning BIRCH+ into a GEMM maintainer: the sub-cluster
/// set is incrementally maintainable under insertions (paper §3.1.2), and
/// GEMM supplies the most-recent-window semantics BIRCH cannot provide
/// itself (sub-clusters are not maintainable under deletions, §3.2.4).
class ClusterMaintainer {
 public:
  using BlockPtr = std::shared_ptr<const PointBlock>;

  ClusterMaintainer(size_t dim, const BirchOptions& options)
      : birch_(dim, options) {}

  void AddBlock(const BlockPtr& block) { birch_.AddBlock(*block); }
  void Reset() { birch_.Reset(); }

  void set_telemetry(telemetry::TelemetryRegistry* registry) {
    birch_.set_telemetry(registry);
  }

  const ClusterModel& model() const { return birch_.model(); }
  const BirchPlus& birch() const { return birch_; }

  void SaveState(persistence::Writer& w) const { birch_.SaveState(w); }
  [[nodiscard]] Status LoadState(persistence::Reader& r) {
    return birch_.LoadState(r);
  }

 private:
  BirchPlus birch_;
};

/// \brief Trivial maintainer counting records and item occurrences; used
/// by tests to check GEMM's block-routing logic independently of any
/// mining algorithm (GEMM is generic over the model class, §3.2).
class CountingMaintainer {
 public:
  using BlockPtr = std::shared_ptr<const TransactionBlock>;

  void AddBlock(const BlockPtr& block) {
    records_ += block->size();
    occurrences_ += block->TotalItemOccurrences();
    block_ids_.push_back(block->info().id);
  }
  void Reset() {
    records_ = 0;
    occurrences_ = 0;
    block_ids_.clear();
  }

  uint64_t records() const { return records_; }
  uint64_t occurrences() const { return occurrences_; }
  const std::vector<BlockId>& block_ids() const { return block_ids_; }

  void SaveState(persistence::Writer& w) const {
    w.WriteU64(records_);
    w.WriteU64(occurrences_);
    w.WriteU32Vector(block_ids_);
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) {
    records_ = r.ReadU64();
    occurrences_ = r.ReadU64();
    block_ids_ = r.ReadU32Vector();
    return r.status();
  }

 private:
  uint64_t records_ = 0;
  uint64_t occurrences_ = 0;
  std::vector<BlockId> block_ids_;
};

// BordersMaintainer already satisfies the GEMM maintainer concept
// (AddBlock(std::shared_ptr<const HistoryBlock>), or of a flat block);
// no adapter needed.

// ---------------------------------------------------------------------------
// Evolution tracking: the small amount of per-adapter state behind
// DescribeEvolution. Each adapter computes its EvolutionStats eagerly at
// the end of AddResponse (while the model is fresh and before GEMM's
// offline half starts mutating future windows), so DescribeEvolution is a
// const, idempotent read the engine can take at any quiesced point.

/// \brief Identity-diff tracker: remembers the sorted element set from
/// the previous block and turns the current set into adds/removes/churn
/// (see EvolutionStats for the exact definitions). `T` needs operator<;
/// Observe sorts its input, so callers pass elements in any order.
template <typename T>
class SetEvolutionTracker {
 public:
  void Observe(std::vector<T> current, EvolutionStats* stats) {
    std::sort(current.begin(), current.end());
    size_t added = 0;
    size_t removed = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < prev_.size() && j < current.size()) {
      if (prev_[i] < current[j]) {
        ++removed;
        ++i;
      } else if (current[j] < prev_[i]) {
        ++added;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    removed += prev_.size() - i;
    added += current.size() - j;
    stats->blocks = ++blocks_;
    stats->elements = current.size();
    stats->added = added;
    stats->removed = removed;
    const size_t denom = std::max({prev_.size(), current.size(), size_t{1}});
    stats->churn =
        static_cast<double>(added + removed) / static_cast<double>(denom);
    prev_ = std::move(current);
  }

 private:
  uint64_t blocks_ = 0;
  std::vector<T> prev_;
};

/// Count-and-drift evolution for BIRCH+: sub-clusters have no portable
/// identity (centroids move every block), so adds/removes compare entry
/// *counts*, `aux` is the drift of the mean CF radius since the previous
/// block, and `aux2` is the cumulative CF-tree rebuild count.
inline void ObserveClusterEvolution(const BirchPlus& birch, size_t* prev_count,
                                    double* prev_mean_radius,
                                    EvolutionStats* stats) {
  const std::vector<ClusterFeature> subs = birch.Subclusters();
  double mean_radius = 0.0;
  for (const ClusterFeature& cf : subs) mean_radius += cf.Radius();
  if (!subs.empty()) mean_radius /= static_cast<double>(subs.size());
  ++stats->blocks;
  stats->elements = subs.size();
  stats->added = subs.size() > *prev_count ? subs.size() - *prev_count : 0;
  stats->removed = *prev_count > subs.size() ? *prev_count - subs.size() : 0;
  const size_t denom = std::max({*prev_count, subs.size(), size_t{1}});
  stats->churn = static_cast<double>(stats->added + stats->removed) /
                 static_cast<double>(denom);
  stats->aux =
      stats->blocks > 1 ? std::abs(mean_radius - *prev_mean_radius) : 0.0;
  stats->aux_name = "radius_drift";
  stats->aux2 = static_cast<double>(birch.tree().num_rebuilds());
  stats->aux2_name = "rebuilds";
  *prev_count = subs.size();
  *prev_mean_radius = mean_radius;
}

/// Collects one identity string per *internal* node — "<child-path>:<split
/// attribute>" — so the dtree tracker's adds/removes count split churn:
/// a leaf that splits adds one signature, a restructured subtree removes
/// its old signatures and adds the new ones.
inline void CollectSplitSignatures(const DecisionTree::Node* node,
                                   std::string* path,
                                   std::vector<std::string>* out) {
  if (node == nullptr || node->split_attribute < 0) return;
  out->push_back(*path + ":" + std::to_string(node->split_attribute));
  for (size_t i = 0; i < node->children.size(); ++i) {
    const std::string label = std::to_string(i);
    path->push_back('/');
    path->append(label);
    CollectSplitSignatures(node->children[i].get(), path, out);
    path->resize(path->size() - 1 - label.size());
  }
}

// ---------------------------------------------------------------------------
// Type-erased adapters: one thin ModelMaintainer subclass per (model class,
// data-span option) pair, so the MaintenanceEngine can drive BORDERS, GEMM,
// BIRCH+, the decision-tree maintainer and the compact-sequence miner
// through a single virtual interface (Figure 11's fan-out).

/// Unrestricted-window frequent itemsets (BORDERS, §3.1).
class BordersAdapter : public ModelMaintainer {
 public:
  explicit BordersAdapter(const BordersOptions& options)
      : maintainer_(options) {}

  std::string_view type_name() const override { return "borders"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kTransactions;
  }
  void BindThreadPool(ThreadPool* pool) override {
    maintainer_.set_counting_pool(pool);
  }
  void BindTelemetry(telemetry::TelemetryRegistry* registry) override {
    maintainer_.set_telemetry(registry);
  }
  void AddResponse(const AnyBlock& block) override {
    maintainer_.AddBlock(block.history());
    tracker_.Observe(maintainer_.model().FrequentItemsets(), &evolution_);
    evolution_.aux = static_cast<double>(maintainer_.model().NumBorder());
    evolution_.aux_name = "negative_border";
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  [[nodiscard]] Result<const ItemsetModel*> itemset_model() const override {
    return &maintainer_.model();
  }
  void AuditInvariants(audit::AuditResult* audit) const override {
    maintainer_.AuditInto(audit);
    maintainer_.AuditRescratchInto(audit);
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    maintainer_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    return maintainer_.LoadState(r);
  }

  const BordersMaintainer& borders() const { return maintainer_; }

 private:
  BordersMaintainer maintainer_;
  SetEvolutionTracker<Itemset> tracker_;
  EvolutionStats evolution_;
};

/// Most-recent-window frequent itemsets (GEMM over BORDERS, §3.2). The
/// future-window updates are the offline half (§3.2.3). The window models
/// share each block's history block — and so its item lists — and the
/// adapter holds the block's flat records until its offline half has run.
class GemmItemsetAdapter : public ModelMaintainer {
 public:
  using GemmT = Gemm<BordersMaintainer, AnyBlock::HistoryPtr>;

  GemmItemsetAdapter(BlockSelectionSequence bss, size_t window,
                     const BordersOptions& options)
      // The factory reads counting_pool_ / telemetry_registry_ at spawn
      // time, so window models created after BindThreadPool/BindTelemetry
      // count in parallel and trace too. The adapter is heap-allocated and
      // never moved, so capturing `this` is safe.
      : options_(options), gemm_(std::move(bss), window, [this] {
          BordersMaintainer maintainer(options_);
          maintainer.set_counting_pool(counting_pool_);
          maintainer.set_telemetry(telemetry_registry_);
          return maintainer;
        }) {}

  std::string_view type_name() const override { return "gemm-itemsets"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kTransactions;
  }
  void BindThreadPool(ThreadPool* pool) override {
    counting_pool_ = pool;
    gemm_.set_thread_pool(pool);
  }
  void BindTelemetry(telemetry::TelemetryRegistry* registry) override {
    telemetry_registry_ = registry;
    gemm_.set_telemetry(registry);
  }
  void AddResponse(const AnyBlock& block) override {
    // BeginBlock drains any pending work first, so the previous block's
    // records are no longer needed.
    pending_records_ = block.transaction_block();
    gemm_.BeginBlock(block.history());
    // The user-visible model is whatever window is current *after* the
    // block (a window slide swaps model objects; identity is by itemset
    // contents, so the diff still describes what an observer sees).
    const ItemsetModel& model = gemm_.current().model();
    tracker_.Observe(model.FrequentItemsets(), &evolution_);
    evolution_.aux = static_cast<double>(model.NumBorder());
    evolution_.aux_name = "negative_border";
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  void RunOffline() override {
    gemm_.DrainOffline();
    pending_records_.reset();
  }
  bool has_offline_work() const override { return gemm_.has_offline_work(); }
  [[nodiscard]] Result<const ItemsetModel*> itemset_model() const override {
    if (gemm_.NumModels() == 0) {
      return Status::FailedPrecondition(
          "windowed monitor has no model before the first block");
    }
    return &gemm_.current().model();
  }
  void AuditInvariants(audit::AuditResult* audit) const override {
    gemm_.AuditInto(
        audit, [&](BlockId start, const std::vector<BlockId>& expected,
                   const BordersMaintainer& maintainer,
                   audit::AuditResult* out) {
          // Coverage: each window model must have absorbed exactly the
          // blocks its right-shifted BSS selects (§3.2.2).
          AUDIT_CHECK(out, "gemm", "gemm/model-coverage",
                      maintainer.NumBlocks() == expected.size(),
                      audit::Msg()
                          << "window model starting at block " << start
                          << " absorbed " << maintainer.NumBlocks()
                          << " blocks; its BSS selects " << expected.size(),
                      "");
          maintainer.AuditInto(out);
        });
    // The decisive merge check — current model only; future-window models
    // get the structural audit above.
    if (gemm_.NumModels() > 0) gemm_.current().AuditRescratchInto(audit);
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    gemm_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    const persistence::BlockSource* source = r.block_source();
    if (source == nullptr || !source->transactions) {
      return Status::FailedPrecondition(
          "no transaction block source bound to the reader");
    }
    return gemm_.LoadState(r, source->transactions);
  }

  const GemmT& gemm() const { return gemm_; }

 private:
  // Declared before gemm_: the factory lambda reads these members.
  BordersOptions options_;
  ThreadPool* counting_pool_ = nullptr;
  telemetry::TelemetryRegistry* telemetry_registry_ = nullptr;
  GemmT gemm_;
  /// The last block's flat records, held for the future-window updates.
  AnyBlock::TxPtr pending_records_;
  SetEvolutionTracker<Itemset> tracker_;
  EvolutionStats evolution_;
};

/// Unrestricted-window clusters (BIRCH+, §3.1.2).
class ClusterAdapter : public ModelMaintainer {
 public:
  ClusterAdapter(size_t dim, const BirchOptions& options)
      : maintainer_(dim, options) {}

  std::string_view type_name() const override { return "birch+"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kPoints;
  }
  void BindTelemetry(telemetry::TelemetryRegistry* registry) override {
    maintainer_.set_telemetry(registry);
  }
  void AddResponse(const AnyBlock& block) override {
    maintainer_.AddBlock(block.points());
    ObserveClusterEvolution(maintainer_.birch(), &prev_count_,
                            &prev_mean_radius_, &evolution_);
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  [[nodiscard]] Result<const ClusterModel*> cluster_model() const override {
    return &maintainer_.model();
  }
  void AuditInvariants(audit::AuditResult* audit) const override {
    maintainer_.birch().tree().AuditInto(audit);
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    maintainer_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    return maintainer_.LoadState(r);
  }

  const ClusterMaintainer& clusters() const { return maintainer_; }

 private:
  ClusterMaintainer maintainer_;
  size_t prev_count_ = 0;
  double prev_mean_radius_ = 0.0;
  EvolutionStats evolution_;
};

/// Most-recent-window clusters (GEMM over BIRCH+): the combination §3.2.4
/// motivates, since sub-clusters are not maintainable under deletions.
class GemmClusterAdapter : public ModelMaintainer {
 public:
  using GemmT = Gemm<ClusterMaintainer, AnyBlock::PointPtr>;

  GemmClusterAdapter(BlockSelectionSequence bss, size_t window, size_t dim,
                     const BirchOptions& options)
      // As in GemmItemsetAdapter, the factory reads telemetry_registry_ at
      // spawn time; the adapter is heap-allocated and never moved.
      : gemm_(std::move(bss), window, [this, dim, options] {
          ClusterMaintainer maintainer(dim, options);
          maintainer.set_telemetry(telemetry_registry_);
          return maintainer;
        }) {}

  std::string_view type_name() const override { return "gemm-clusters"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kPoints;
  }
  void BindThreadPool(ThreadPool* pool) override {
    gemm_.set_thread_pool(pool);
  }
  void BindTelemetry(telemetry::TelemetryRegistry* registry) override {
    telemetry_registry_ = registry;
    gemm_.set_telemetry(registry);
  }
  void AddResponse(const AnyBlock& block) override {
    gemm_.BeginBlock(block.points());
    ObserveClusterEvolution(gemm_.current().birch(), &prev_count_,
                            &prev_mean_radius_, &evolution_);
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  void RunOffline() override { gemm_.DrainOffline(); }
  bool has_offline_work() const override { return gemm_.has_offline_work(); }
  [[nodiscard]] Result<const ClusterModel*> cluster_model() const override {
    if (gemm_.NumModels() == 0) {
      return Status::FailedPrecondition(
          "windowed monitor has no model before the first block");
    }
    return &gemm_.current().model();
  }
  void AuditInvariants(audit::AuditResult* audit) const override {
    gemm_.AuditInto(
        audit, [](BlockId /*start*/, const std::vector<BlockId>& /*expected*/,
                  const ClusterMaintainer& maintainer,
                  audit::AuditResult* out) {
          maintainer.birch().tree().AuditInto(out);
        });
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    gemm_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    const persistence::BlockSource* source = r.block_source();
    if (source == nullptr || !source->points) {
      return Status::FailedPrecondition(
          "no point block source bound to the reader");
    }
    return gemm_.LoadState(r, source->points);
  }

  const GemmT& gemm() const { return gemm_; }

 private:
  // Declared before gemm_: the factory lambda reads this member.
  telemetry::TelemetryRegistry* telemetry_registry_ = nullptr;
  GemmT gemm_;
  size_t prev_count_ = 0;
  double prev_mean_radius_ = 0.0;
  EvolutionStats evolution_;
};

/// Incremental decision-tree classifier (the BOAT stand-in, [GGRL99b]).
class DTreeAdapter : public ModelMaintainer {
 public:
  DTreeAdapter(const LabeledSchema& schema, const DTreeOptions& options)
      : maintainer_(schema, options) {}

  std::string_view type_name() const override { return "dtree"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kLabeled;
  }
  void AddResponse(const AnyBlock& block) override {
    maintainer_.AddBlock(block.labeled());
    std::vector<std::string> splits;
    std::string path;
    CollectSplitSignatures(maintainer_.model().root(), &path, &splits);
    tracker_.Observe(std::move(splits), &evolution_);
    evolution_.aux = static_cast<double>(maintainer_.model().NumLeaves());
    evolution_.aux_name = "leaves";
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  [[nodiscard]] Result<const DecisionTree*> dtree_model() const override {
    return &maintainer_.model();
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    maintainer_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    return maintainer_.LoadState(r);
  }

  const DTreeMaintainer& dtree() const { return maintainer_; }

 private:
  DTreeMaintainer maintainer_;
  SetEvolutionTracker<std::string> tracker_;
  EvolutionStats evolution_;
};

/// Compact-sequence pattern detection (§4), optionally windowed
/// (footnote 9).
class PatternAdapter : public ModelMaintainer {
 public:
  explicit PatternAdapter(const CompactSequenceMiner::Options& options)
      : miner_(options) {}

  std::string_view type_name() const override { return "patterns"; }
  AnyBlock::Payload payload() const override {
    return AnyBlock::Payload::kTransactions;
  }
  void BindTelemetry(telemetry::TelemetryRegistry* registry) override {
    miner_.set_telemetry(registry);
  }
  void AddResponse(const AnyBlock& block) override {
    miner_.AddBlock(block.transaction_block());
    tracker_.Observe(miner_.sequences(), &evolution_);
  }
  EvolutionStats DescribeEvolution() const override { return evolution_; }
  [[nodiscard]] Result<const CompactSequenceMiner*> pattern_miner() const override {
    return &miner_;
  }
  [[nodiscard]] Status SaveState(persistence::Writer& w) const override {
    miner_.SaveState(w);
    return Status::OK();
  }
  [[nodiscard]] Status LoadState(persistence::Reader& r) override {
    return miner_.LoadState(r);
  }

 private:
  CompactSequenceMiner miner_;
  SetEvolutionTracker<std::vector<size_t>> tracker_;
  EvolutionStats evolution_;
};

}  // namespace demon

#endif  // DEMON_CORE_MAINTAINERS_H_
