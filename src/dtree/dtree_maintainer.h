#ifndef DEMON_DTREE_DTREE_MAINTAINER_H_
#define DEMON_DTREE_DTREE_MAINTAINER_H_

#include <memory>

#include "dtree/decision_tree.h"

namespace demon {

/// Configuration of the incremental decision-tree maintainer.
struct DTreeOptions {
  /// A leaf splits only once it has accumulated this many records ...
  double min_split_weight = 200.0;
  /// ... and some attribute's information gain reaches this threshold.
  double min_gain = 0.01;
  /// Hard depth cap (root = depth 1).
  size_t max_depth = 12;
};

/// \brief Incremental decision-tree maintainer for the unrestricted-window
/// option: each arriving block is scanned once; records are routed to
/// their leaves, whose attribute-value-class statistics accumulate across
/// blocks; a leaf splits when it has seen enough weight and a split
/// clears the gain threshold (the leaf-statistics scheme of incremental
/// classifiers in the VFDT family, standing in for BOAT [GGRL99b], which
/// the paper cites instead of re-describing).
///
/// Satisfies the GEMM maintainer concept (`AddBlock(BlockPtr)`), so the
/// most-recent-window option with arbitrary BSS comes for free — the
/// exact genericity claim of §3.2, exercised with a third model class.
class DTreeMaintainer {
 public:
  using BlockPtr = std::shared_ptr<const LabeledBlock>;

  DTreeMaintainer(const LabeledSchema& schema, const DTreeOptions& options);

  /// Scans the block once: routes records, updates leaf statistics, and
  /// performs any splits that became admissible.
  void AddBlock(const BlockPtr& block);

  const DecisionTree& model() const { return tree_; }

  /// Moves the model out (the maintainer must not be used afterwards);
  /// for one-shot mining like FocusDecisionTrees::MineModel.
  DecisionTree TakeModel() && { return std::move(tree_); }

  /// Fraction of `block` classified correctly by the current model.
  double Accuracy(const LabeledBlock& block) const;

  size_t blocks_seen() const { return blocks_seen_; }

  /// Returns to the state of a freshly constructed maintainer (an
  /// untrained tree over the same schema and options).
  void Reset() {
    tree_ = DecisionTree(schema_);
    blocks_seen_ = 0;
  }

  /// Serializes the tree (with leaf AVC statistics) and the block count.
  void SaveState(persistence::Writer& w) const {
    tree_.SaveState(w);
    w.WriteU64(blocks_seen_);
  }

  /// Restores state saved by SaveState into a freshly constructed
  /// maintainer with the same schema/options.
  [[nodiscard]] Status LoadState(persistence::Reader& r) {
    if (blocks_seen_ != 0) {
      return Status::FailedPrecondition(
          "decision-tree state can only be restored into a fresh maintainer");
    }
    tree_.LoadState(r);
    blocks_seen_ = r.ReadU64();
    return r.status();
  }

 private:
  void EnsureLeafStats(DecisionTree::Node* leaf);
  void MaybeSplit(DecisionTree::Node* leaf, size_t depth);
  /// Routes a record while tracking depth; returns the leaf and depth.
  DecisionTree::Node* RouteTracked(const LabeledRecord& record,
                                   size_t* depth);

  LabeledSchema schema_;
  DTreeOptions options_;
  DecisionTree tree_;
  size_t blocks_seen_ = 0;
};

}  // namespace demon

#endif  // DEMON_DTREE_DTREE_MAINTAINER_H_
