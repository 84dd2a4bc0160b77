#include "deviation/focus.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"
#include "itemsets/apriori.h"
#include "itemsets/counting_context.h"

namespace demon {

DeviationResult SummarizeRegionCounts(const std::vector<double>& counts1,
                                      double n1,
                                      const std::vector<double>& counts2,
                                      double n2, bool scanned) {
  DeviationResult result;
  result.num_regions = counts1.size();
  result.scanned_blocks = scanned;
  if (counts1.empty() || n1 <= 0.0 || n2 <= 0.0) return result;

  // Normalized aggregate of absolute measure differences (FOCUS's
  // difference function f = |.|, aggregation = sum, scaled to [0, 1]).
  double diff = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < counts1.size(); ++i) {
    const double s1 = counts1[i] / n1;
    const double s2 = counts2[i] / n2;
    diff += std::abs(s1 - s2);
    total += s1 + s2;
  }
  result.deviation = total > 0.0 ? diff / total : 0.0;

  const ChiSquareTestResult test =
      ChiSquareHomogeneity(counts1, n1, counts2, n2);
  result.significance = 1.0 - test.p_value;
  return result;
}

ItemsetModel FocusItemsets::MineModel(const TransactionBlock& block) const {
  return AprioriOnBlock(block, options_.minsup, options_.num_items);
}

DeviationResult FocusItemsets::Compare(const TransactionBlock& d1,
                                       const TransactionBlock& d2) const {
  const ItemsetModel m1 = MineModel(d1);
  const ItemsetModel m2 = MineModel(d2);
  return CompareWithModels(d1, m1, d2, m2);
}

DeviationResult FocusItemsets::CompareWithModels(const TransactionBlock& d1,
                                                 const ItemsetModel& m1,
                                                 const TransactionBlock& d2,
                                                 const ItemsetModel& m2) const {
  // Greatest common refinement: the union of the frequent itemsets of the
  // two models ("interesting regions" of either dataset).
  std::vector<Itemset> regions = m1.FrequentItemsets();
  {
    ItemsetSet seen(regions.begin(), regions.end());
    for (Itemset& itemset : m2.FrequentItemsets()) {
      if (seen.insert(itemset).second) regions.push_back(std::move(itemset));
    }
  }
  std::sort(regions.begin(), regions.end(), ItemsetLess());

  // Measures: supports on each side. A region frequent on only one side
  // may still be *tracked* by the other model (negative border carries
  // counts); only truly untracked regions force a scan of that block.
  std::vector<double> counts1(regions.size(), 0.0);
  std::vector<double> counts2(regions.size(), 0.0);
  std::vector<size_t> missing1;
  std::vector<size_t> missing2;
  for (size_t i = 0; i < regions.size(); ++i) {
    if (m1.Contains(regions[i])) {
      counts1[i] = static_cast<double>(m1.CountOf(regions[i]));
    } else {
      missing1.push_back(i);
    }
    if (m2.Contains(regions[i])) {
      counts2[i] = static_cast<double>(m2.CountOf(regions[i]));
    } else {
      missing2.push_back(i);
    }
  }
  // Untracked regions are counted with one PT-Scan of their block.
  CountingContext counting;
  auto count_in = [&counting](const std::vector<Itemset>& itemsets,
                              const TransactionBlock& block) {
    auto alias = std::shared_ptr<const TransactionBlock>(
        std::shared_ptr<const TransactionBlock>(), &block);
    return counting.PtScan(itemsets, {alias});
  };
  bool scanned = false;
  if (!missing1.empty()) {
    std::vector<Itemset> todo;
    todo.reserve(missing1.size());
    for (size_t i : missing1) todo.push_back(regions[i]);
    const std::vector<uint64_t> counted = count_in(todo, d1);
    for (size_t j = 0; j < missing1.size(); ++j) {
      counts1[missing1[j]] = static_cast<double>(counted[j]);
    }
    scanned = true;
  }
  if (!missing2.empty()) {
    std::vector<Itemset> todo;
    todo.reserve(missing2.size());
    for (size_t i : missing2) todo.push_back(regions[i]);
    const std::vector<uint64_t> counted = count_in(todo, d2);
    for (size_t j = 0; j < missing2.size(); ++j) {
      counts2[missing2[j]] = static_cast<double>(counted[j]);
    }
    scanned = true;
  }

  return SummarizeRegionCounts(counts1, static_cast<double>(d1.size()), counts2,
                   static_cast<double>(d2.size()), scanned);
}

ClusterModel FocusClusters::MineModel(const PointBlock& block) const {
  auto alias = std::shared_ptr<const PointBlock>(
      std::shared_ptr<const PointBlock>(), &block);
  return RunBirch({alias}, options_.dim, options_.birch);
}

DeviationResult FocusClusters::Compare(const PointBlock& d1,
                                       const PointBlock& d2) const {
  const ClusterModel m1 = MineModel(d1);
  const ClusterModel m2 = MineModel(d2);
  return CompareWithModels(d1, m1, d2, m2);
}

DeviationResult FocusClusters::CompareWithModels(const PointBlock& d1,
                                                 const ClusterModel& m1,
                                                 const PointBlock& d2,
                                                 const ClusterModel& m2) const {
  // Common structural component: the union of both models' clusters,
  // interpreted as the Voronoi cells of their centroids. One scan of each
  // block measures the occupancy of every cell.
  std::vector<ClusterFeature> cells = m1.clusters();
  cells.insert(cells.end(), m2.clusters().begin(), m2.clusters().end());
  if (cells.empty()) return DeviationResult{};
  const ClusterModel refinement(std::move(cells));

  std::vector<double> counts1(refinement.NumClusters(), 0.0);
  std::vector<double> counts2(refinement.NumClusters(), 0.0);
  for (size_t i = 0; i < d1.size(); ++i) {
    counts1[refinement.Assign(d1.PointAt(i), d1.dim())] += 1.0;
  }
  for (size_t i = 0; i < d2.size(); ++i) {
    counts2[refinement.Assign(d2.PointAt(i), d2.dim())] += 1.0;
  }
  return SummarizeRegionCounts(counts1, static_cast<double>(d1.size()), counts2,
                   static_cast<double>(d2.size()), /*scanned=*/true);
}

}  // namespace demon
