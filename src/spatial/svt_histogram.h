// A spatial histogram whose tree shape is produced by the improved-SVT
// decomposition of core/svt_tree.h (the Appendix-A alternative), with the
// usual noisy-leaf-count post-processing on the remaining budget.
#ifndef PRIVTREE_SPATIAL_SVT_HISTOGRAM_H_
#define PRIVTREE_SPATIAL_SVT_HISTOGRAM_H_

#include <cstdint>

#include "dp/rng.h"
#include "spatial/morton_index.h"
#include "spatial/spatial_histogram.h"

namespace privtree {

/// Options for BuildSvtTreeHistogram.
struct SvtHistogramOptions {
  /// The split cap t (Appendix A: must be fixed a priori, which is the
  /// method's fundamental drawback).
  std::int32_t max_splits = 256;
  double tree_budget_fraction = 0.5;
  double theta = 0.0;
  int dims_per_split = 0;  ///< 0 = all dimensions (β = 2^d).
};

/// Builds an ε-DP spatial histogram with improved-SVT split decisions over
/// the points of `index`, which must have been built over `domain`.
SpatialHistogram BuildSvtTreeHistogram(const MortonIndex& index,
                                       const Box& domain, double epsilon,
                                       const SvtHistogramOptions& options,
                                       Rng& rng);

/// As above, building a private index over `points` first.
SpatialHistogram BuildSvtTreeHistogram(const PointSet& points,
                                       const Box& domain, double epsilon,
                                       const SvtHistogramOptions& options,
                                       Rng& rng);

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_SVT_HISTOGRAM_H_
