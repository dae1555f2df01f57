#include "spatial/spatial_histogram.h"

#include <algorithm>

#include "core/privtree_params.h"
#include "core/simpletree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "dp/distributions.h"
#include "spatial/morton_index.h"

namespace privtree {

double SpatialHistogram::Query(const Box& q) const {
  if (tree.empty()) return 0.0;
  double ans = 0.0;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto& node = tree.node(v);
    const Box& dom = node.domain.box;
    if (!q.Intersects(dom)) continue;          // Case 1: disjoint.
    if (q.ContainsBox(dom)) {                  // Case 2: fully contained.
      ans += count[v];
      continue;
    }
    if (!node.is_leaf()) {                     // Case 3: partial, internal.
      for (NodeId child : node.children) stack.push_back(child);
      continue;
    }
    // Case 4: partial leaf — uniformity assumption.
    const double volume = dom.Volume();
    if (volume > 0.0) {
      ans += count[v] * (dom.IntersectionVolume(q) / volume);
    }
  }
  return ans;
}

void ReleaseLeafCounts(double scale, Rng& rng, SpatialHistogram* hist) {
  const auto& nodes = hist->tree.nodes();
  hist->count.assign(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_leaf()) continue;
    const SpatialCell& cell = nodes[i].domain;
    hist->count[i] = static_cast<double>(cell.end - cell.begin) +
                     SampleLaplace(rng, scale);
  }
  // Children have larger ids than their parents, so one reverse pass sums
  // every subtree.
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].is_leaf()) continue;
    double total = 0.0;
    for (NodeId child : nodes[i].children) total += hist->count[child];
    hist->count[i] = total;
  }
  ClearKeyRanges(&hist->tree);
}

SpatialHistogram BuildPrivTreeHistogram(const MortonIndex& index,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_GT(options.tree_budget_fraction, 0.0);
  PRIVTREE_CHECK_LT(options.tree_budget_fraction, 1.0);
  PRIVTREE_CHECK(index.root() == domain);
  const int dims_per_split =
      options.dims_per_split > 0 ? options.dims_per_split
                                 : static_cast<int>(domain.dim());

  QuadtreePolicy policy(index, domain, dims_per_split);

  PrivacyBudget budget(epsilon);
  const double tree_epsilon = budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();

  PrivTreeParams params =
      PrivTreeParams::ForEpsilon(tree_epsilon, policy.fanout());
  params.max_depth = options.max_depth;

  SpatialHistogram hist;
  hist.tree = RunPrivTree(policy, params, rng, &hist.stats);

  // Post-processing: noisy leaf counts with the remaining budget.  One point
  // lies in exactly one leaf, so the leaf-count vector has sensitivity 1.
  ReleaseLeafCounts(1.0 / count_epsilon, rng, &hist);
  return hist;
}

SpatialHistogram BuildPrivTreeHistogram(const PointSet& points,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng) {
  return BuildPrivTreeHistogram(MortonIndex(points, domain), domain, epsilon,
                                options, rng);
}

SpatialHistogram BuildSimpleTreeHistogram(
    const MortonIndex& index, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK(index.root() == domain);
  const int dims_per_split =
      options.dims_per_split > 0 ? options.dims_per_split
                                 : static_cast<int>(domain.dim());

  QuadtreePolicy policy(index, domain, dims_per_split);

  SimpleTreeParams params =
      SimpleTreeParams::ForEpsilon(epsilon, options.height);
  params.theta = options.theta;

  auto result = RunSimpleTree(policy, params, rng);
  SpatialHistogram hist;
  hist.tree = std::move(result.tree);
  hist.count = std::move(result.noisy_score);
  hist.count.resize(hist.tree.size(), 0.0);
  ClearKeyRanges(&hist.tree);
  hist.stats.nodes_visited = hist.tree.size();
  hist.stats.nodes_split = hist.tree.size() - hist.tree.LeafCount();
  hist.stats.height = hist.tree.Height();
  return hist;
}

SpatialHistogram BuildSimpleTreeHistogram(
    const PointSet& points, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng) {
  return BuildSimpleTreeHistogram(MortonIndex(points, domain), domain,
                                  epsilon, options, rng);
}

}  // namespace privtree
