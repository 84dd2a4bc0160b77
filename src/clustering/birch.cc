#include "clustering/birch.h"

#include "clustering/agglomerative.h"
#include "clustering/kmeans.h"
#include "common/check.h"
#include "common/telemetry.h"

namespace demon {

ClusterModel GlobalCluster(const std::vector<ClusterFeature>& subclusters,
                           const BirchOptions& options) {
  DEMON_CHECK(!subclusters.empty());
  const size_t k = std::min(options.num_clusters, subclusters.size());

  if (options.phase2 == Phase2Algorithm::kAgglomerative) {
    std::vector<ClusterFeature> clusters;
    AgglomerativeMerge(subclusters, k, &clusters);
    return ClusterModel(std::move(clusters));
  }

  // Weighted k-means over sub-cluster centroids; clusters are then exact
  // CF merges of their member sub-clusters.
  std::vector<Point> centroids;
  std::vector<double> weights;
  centroids.reserve(subclusters.size());
  weights.reserve(subclusters.size());
  for (const ClusterFeature& cf : subclusters) {
    centroids.push_back(cf.Centroid());
    weights.push_back(cf.n());
  }
  const KMeansResult result = WeightedKMeans(
      centroids, weights, k, options.seed, options.kmeans_max_iterations);

  const size_t dim = subclusters[0].dim();
  std::vector<ClusterFeature> merged(k, ClusterFeature(dim));
  for (size_t i = 0; i < subclusters.size(); ++i) {
    merged[result.assignments[i]].Merge(subclusters[i]);
  }
  // Drop clusters that received no sub-cluster (possible when k-means
  // leaves a seeded centroid empty).
  std::vector<ClusterFeature> nonempty;
  for (auto& cf : merged) {
    if (!cf.empty()) nonempty.push_back(std::move(cf));
  }
  return ClusterModel(std::move(nonempty));
}

ClusterModel RunBirch(
    const std::vector<std::shared_ptr<const PointBlock>>& blocks, size_t dim,
    const BirchOptions& options, BirchStats* stats) {
  telemetry::ScopedTimer phase1_timer;
  CFTree tree(dim, options.tree);
  size_t scanned = 0;
  for (const auto& block : blocks) {
    tree.InsertBlock(*block);
    scanned += block->size();
  }
  const std::vector<ClusterFeature> subclusters = tree.LeafEntries();
  if (stats != nullptr) {
    stats->phase1_seconds = phase1_timer.Stop();
    stats->num_subclusters = subclusters.size();
    stats->points_scanned = scanned;
  }

  telemetry::ScopedTimer phase2_timer;
  ClusterModel model = subclusters.empty()
                           ? ClusterModel()
                           : GlobalCluster(subclusters, options);
  if (stats != nullptr) stats->phase2_seconds = phase2_timer.Stop();
  return model;
}

BirchPlus::BirchPlus(size_t dim, const BirchOptions& options)
    : options_(options), tree_(dim, options.tree) {}

void BirchPlus::Reset() {
  CFTree fresh(tree_.dim(), options_.tree);
  fresh.set_telemetry(telemetry_);
  tree_ = std::move(fresh);
  model_ = ClusterModel();
  last_stats_ = BirchStats{};
}

void BirchPlus::AddBlock(const PointBlock& block) {
  last_stats_ = BirchStats{};
  {
    DEMON_TRACE_SPAN(span, telemetry_, "birch-phase1", "clustering");
    telemetry::ScopedTimer timer(phase1_hist_);
    // Resume phase 1: only the new block is scanned (paper §3.1.2).
    tree_.InsertBlock(block);
    last_stats_.phase1_seconds = timer.Stop();
    last_stats_.points_scanned = block.size();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "birch-phase2", "clustering");
  telemetry::ScopedTimer timer(phase2_hist_);
  const std::vector<ClusterFeature> subclusters = tree_.LeafEntries();
  last_stats_.num_subclusters = subclusters.size();
  if (!subclusters.empty()) {
    model_ = GlobalCluster(subclusters, options_);
  }
  last_stats_.phase2_seconds = timer.Stop();
}

void BirchPlus::SaveState(persistence::Writer& w) const {
  tree_.SaveState(w);
  // The model is a deterministic function of the sub-clusters, but
  // serializing it avoids re-running phase 2 on restore.
  w.WriteU64(model_.clusters().size());
  for (const ClusterFeature& cf : model_.clusters()) {
    w.WriteDouble(cf.n());
    w.WriteDoubleVector(cf.ls());
    w.WriteDouble(cf.ss());
  }
}

Status BirchPlus::LoadState(persistence::Reader& r) {
  tree_.LoadState(r);
  const size_t num_clusters = r.ReadLength(24);
  if (!r.ok()) return r.status();
  std::vector<ClusterFeature> clusters;
  clusters.reserve(num_clusters);
  for (size_t i = 0; i < num_clusters; ++i) {
    const double n = r.ReadDouble();
    std::vector<double> ls = r.ReadDoubleVector();
    const double ss = r.ReadDouble();
    if (!r.ok()) return r.status();
    clusters.push_back(ClusterFeature::FromRaw(n, std::move(ls), ss));
  }
  model_ = ClusterModel(std::move(clusters));
  return r.status();
}

}  // namespace demon
