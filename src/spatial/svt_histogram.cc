#include "spatial/svt_histogram.h"

#include "core/svt_tree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "spatial/morton_index.h"
#include "spatial/quadtree_policy.h"

namespace privtree {

SpatialHistogram BuildSvtTreeHistogram(const MortonIndex& index,
                                       const Box& domain, double epsilon,
                                       const SvtHistogramOptions& options,
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
  const double tree_epsilon =
      budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();

  // Sensitivity of the point-count queries is 1... per tree level, but the
  // improved SVT's guarantee is stated for a query *sequence*; one tuple
  // affects up to max_depth queries in the sequence, so a strictly ε-DP
  // deployment must scale by the depth cap.  Appendix A's comparison uses
  // sensitivity 1 to give SVT its best case; we follow that here and note
  // it in the bench output.
  SvtTreeParams params =
      SvtTreeParams::ForEpsilon(tree_epsilon, options.max_splits);
  params.theta = options.theta;

  SpatialHistogram hist;
  hist.tree = RunSvtTree(policy, params, rng);
  hist.stats.nodes_visited = hist.tree.size();
  hist.stats.nodes_split = hist.tree.size() - hist.tree.LeafCount();
  hist.stats.height = hist.tree.Height();

  ReleaseLeafCounts(1.0 / count_epsilon, rng, &hist);
  return hist;
}

SpatialHistogram BuildSvtTreeHistogram(const PointSet& points,
                                       const Box& domain, double epsilon,
                                       const SvtHistogramOptions& options,
                                       Rng& rng) {
  return BuildSvtTreeHistogram(MortonIndex(points, domain), domain, epsilon,
                               options, rng);
}

}  // namespace privtree
