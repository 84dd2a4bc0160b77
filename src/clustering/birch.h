#ifndef DEMON_CLUSTERING_BIRCH_H_
#define DEMON_CLUSTERING_BIRCH_H_

#include <memory>
#include <vector>

#include "clustering/cf_tree.h"
#include "clustering/cluster_model.h"

namespace demon {

/// Which "traditional clustering algorithm" phase 2 applies to the
/// in-memory sub-clusters (paper §3.1.2 leaves the choice open).
enum class Phase2Algorithm {
  kWeightedKMeans,
  kAgglomerative,
};

/// Configuration shared by BIRCH and BIRCH+.
struct BirchOptions {
  CFTreeOptions tree;
  /// Required number of clusters K.
  size_t num_clusters = 50;
  Phase2Algorithm phase2 = Phase2Algorithm::kAgglomerative;
  /// Seed for k-means phase 2 (ignored by agglomerative).
  uint64_t seed = 42;
  size_t kmeans_max_iterations = 50;
};

/// Timing breakdown of a clustering run (the quantities of Figure 8).
struct BirchStats {
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  size_t num_subclusters = 0;
  size_t points_scanned = 0;
};

/// \brief Runs phase 2 (global clustering of sub-clusters) and returns the
/// cluster model. Exposed separately because BIRCH+ re-runs it per block.
ClusterModel GlobalCluster(const std::vector<ClusterFeature>& subclusters,
                           const BirchOptions& options);

/// \brief Non-incremental BIRCH [ZRL96]: scans all blocks to build a fresh
/// CF-tree (phase 1), then clusters the sub-clusters (phase 2). This is
/// the baseline DEMON's Figure 8 compares BIRCH+ against — it re-clusters
/// the entire database whenever a new block arrives.
ClusterModel RunBirch(
    const std::vector<std::shared_ptr<const PointBlock>>& blocks, size_t dim,
    const BirchOptions& options, BirchStats* stats = nullptr);

/// \brief BIRCH+ (paper §3.1.2): keeps the phase-1 sub-cluster set
/// (CF-tree) alive across blocks. Adding a block resumes phase 1 — only
/// the new block is scanned — and the cluster model is refreshed by
/// re-running the cheap phase 2 on the updated sub-clusters. At any time
/// the model equals what non-incremental BIRCH would produce on the
/// concatenation of all blocks added so far.
class BirchPlus {
 public:
  BirchPlus(size_t dim, const BirchOptions& options);

  /// Scans `block`, updating the sub-cluster set C_t -> C_{t+1}, then
  /// rebuilds the cluster model via phase 2.
  void AddBlock(const PointBlock& block);

  /// The current cluster model (phase-2 output after the last AddBlock).
  const ClusterModel& model() const { return model_; }

  /// The current sub-cluster set C_t.
  std::vector<ClusterFeature> Subclusters() const {
    return tree_.LeafEntries();
  }

  const CFTree& tree() const { return tree_; }
  /// Stats of the last AddBlock (phase 1 = incremental scan of the new
  /// block, phase 2 = global clustering; Figure 8 plots both).
  const BirchStats& last_stats() const { return last_stats_; }

  /// Serializes the CF-tree and the current cluster model (checkpointing;
  /// stats are instrumentation and not persisted).
  void SaveState(persistence::Writer& w) const;

  /// Restores state saved by SaveState into a freshly constructed BIRCH+
  /// of the same dim/options.
  [[nodiscard]] Status LoadState(persistence::Reader& r);

  /// Returns to the state of a freshly constructed BIRCH+ of the same
  /// dim/options (empty CF-tree and model), keeping the telemetry binding.
  void Reset();

  /// Binds `registry` for phase spans, the
  /// `birch/{phase1,phase2}_seconds` histograms, and — forwarded to the
  /// CF-tree — insert/rebuild instrumentation. BirchStats stays available
  /// in every build.
  void set_telemetry(telemetry::TelemetryRegistry* registry) {
    tree_.set_telemetry(registry);
    if constexpr (telemetry::kEnabled) {
      telemetry_ = registry;
      phase1_hist_ = registry == nullptr
                         ? nullptr
                         : registry->histogram("birch/phase1_seconds");
      phase2_hist_ = registry == nullptr
                         ? nullptr
                         : registry->histogram("birch/phase2_seconds");
    }
  }

 private:
  BirchOptions options_;
  CFTree tree_;
  ClusterModel model_;
  BirchStats last_stats_;
  /// All null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  telemetry::Histogram* phase1_hist_ = nullptr;
  telemetry::Histogram* phase2_hist_ = nullptr;
};

}  // namespace demon

#endif  // DEMON_CLUSTERING_BIRCH_H_
