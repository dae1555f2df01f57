// Private spatial histograms: a decomposition tree over a point domain plus
// a noisy count per node, answering arbitrary range-count queries via the
// top-down traversal of Section 2.2 (with the uniformity assumption inside
// partially covered leaves).
//
// Two constructions are provided:
//   * BuildPrivTreeHistogram — the paper's method (Section 3.4): PrivTree on
//     ε/2 produces the tree shape, the remaining ε/2 buys Laplace noise of
//     scale 2/ε on each *leaf* count, and every intermediate count is the
//     sum of the noisy leaf counts below it.
//   * BuildSimpleTreeHistogram — the Algorithm 1 baseline: noisy counts of
//     scale h/ε are released for every node during construction and reused
//     as the query counts.
//
// These builders are the library API (examples, benches, the perfbench
// per-layer walk) and run the generic RunPrivTree / RunSimpleTree over a
// QuadtreePolicy into a DecompTree.  The served methods `privtree` and
// `simpletree` fit through FitPrivTreeFlat / FitSimpleTreeFlat
// (spatial/flat_fit.h) instead, which write the serving layout directly
// and release bit-identical trees and counts; these builders are that
// kernel's test oracle.
#ifndef PRIVTREE_SPATIAL_SPATIAL_HISTOGRAM_H_
#define PRIVTREE_SPATIAL_SPATIAL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "core/privtree.h"
#include "core/tree.h"
#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"
#include "spatial/quadtree_policy.h"

namespace privtree {

/// A decomposition tree with one released (noisy) count per node.
struct SpatialHistogram {
  DecompTree<SpatialCell> tree;
  /// Released count per node id.  Intermediate counts are consistent by
  /// construction (sum of descendant leaf counts) for the PrivTree build.
  std::vector<double> count;
  /// Construction diagnostics.
  DecompositionStats stats;

  /// Estimated number of points in `q` (Section 2.2 traversal; partial
  /// leaves contribute count · |q ∩ dom| / |dom|).
  double Query(const Box& q) const;
};

/// The count release shared by the builders whose tree shape is private
/// on its own (Section 3.4): every leaf gets its exact count, read from its
/// fit-time key range, plus Lap(`scale`) drawn in leaf-id order; every
/// internal count is the sum of the noisy leaf counts below it.  Clears the
/// key ranges, so `hist` is ready to release.
void ReleaseLeafCounts(double scale, Rng& rng, SpatialHistogram* hist);

/// Options for BuildPrivTreeHistogram.
struct PrivTreeHistogramOptions {
  /// Dimensions bisected per split; 0 means "all" (β = 2^d, the standard
  /// quadtree).  Values in [1, d) give the round-robin splits of Figure 8.
  int dims_per_split = 0;
  /// Fraction of ε spent on the tree shape (the paper uses 1/2).
  double tree_budget_fraction = 0.5;
  /// Structural depth cap forwarded to PrivTreeParams.
  std::int32_t max_depth = 512;
};

/// Builds the paper's ε-differentially private spatial histogram over the
/// points of `index`, which must have been built over `domain`.  The index
/// is only read, so one index can serve many fits (release::Dataset shares
/// one per dataset).
SpatialHistogram BuildPrivTreeHistogram(const MortonIndex& index,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng);

/// As above, building a private index over `points` first.
SpatialHistogram BuildPrivTreeHistogram(const PointSet& points,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng);

/// Options for BuildSimpleTreeHistogram.
struct SimpleTreeHistogramOptions {
  int dims_per_split = 0;       ///< As above.
  std::int32_t height = 6;      ///< The pre-defined h of Algorithm 1.
  double theta = 0.0;           ///< Split threshold.
};

/// Builds the Algorithm 1 baseline histogram (λ = h/ε) over the points of
/// `index`, which must have been built over `domain`.
SpatialHistogram BuildSimpleTreeHistogram(
    const MortonIndex& index, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng);

/// As above, building a private index over `points` first.
SpatialHistogram BuildSimpleTreeHistogram(
    const PointSet& points, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng);

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_SPATIAL_HISTOGRAM_H_
