// Hierarchy — multi-level decomposition-tree histograms (Qardaji et al.,
// PVLDB 2013, "Understanding hierarchical methods for differentially
// private histograms").
//
// A complete tree of height h is imposed over the domain with a per-
// dimension branching factor b (fanout β = b^d); every non-root node's count
// is released with Laplace noise of scale (h−1)/ε (one point affects one
// node on each of the h−1 noisy levels).  The heuristic of [42] for 2-d
// data is β = 64, h = 3.  Constrained inference (Hay et al., PVLDB 2010)
// post-processes the noisy counts to be consistent, which reduces variance.
#ifndef PRIVTREE_HIST_HIERARCHY_H_
#define PRIVTREE_HIST_HIERARCHY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dp/rng.h"
#include "hist/grid.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// Options for HierarchyHistogram.
struct HierarchyOptions {
  /// Tree height h (levels including the root); h >= 2.
  std::int32_t height = 3;
  /// Target per-dimension resolution of the leaf level.  The actual
  /// resolution is b^(h−1) with b = max(2, round(target^(1/(h−1)))), so the
  /// h = 3 default with target 64 gives the paper's β = 8^d, 64×64 leaves.
  std::int64_t target_leaf_resolution = 64;
  /// Apply Hay-style weighted averaging + mean consistency.
  bool constrained_inference = true;
};

/// A complete uniform tree of noisy grid counts.
class HierarchyHistogram {
 public:
  /// Builds the ε-DP hierarchy.
  HierarchyHistogram(const PointSet& points, const Box& domain, double epsilon,
                     const HierarchyOptions& options, Rng& rng);

  /// Restores a released hierarchy from its serialized parts (the
  /// synopsis payload — see release/serialization.h).  `level_counts[l]`
  /// holds the flat level-l counts for l = 1..height-1 (`level_counts[0]`
  /// is ignored: the root count is never released); persisted counts are
  /// already post-inference, so `consistent` only controls whether the
  /// leaf-level prefix-sum view used by QueryBatch is rebuilt.
  static HierarchyHistogram Restore(Box domain, std::int32_t height,
                                    std::int64_t branching,
                                    std::vector<std::vector<double>>
                                        level_counts,
                                    bool consistent);

  /// Estimated number of points in `q`, via greedy tree descent: fully
  /// covered nodes contribute their count, partially covered leaves
  /// contribute the uniform fraction.
  double Query(const Box& q) const;

  /// Answers many boxes at once.  With constrained inference the levels are
  /// mutually consistent, so the greedy descent equals the integral of the
  /// leaf-level density — answered here through the leaf prefix-sum lattice
  /// in O(2^d) per query instead of a b^d-way recursion.  Without
  /// constrained inference (no consistent flat view exists) this falls back
  /// to per-query descent.  Answers agree with Query up to floating-point
  /// summation order.
  std::vector<double> QueryBatch(std::span<const Box> queries) const;

  /// Per-dimension branching factor b.
  std::int64_t branching() const { return branching_; }
  /// Per-dimension resolution of the leaf level (b^(h−1)).
  std::int64_t leaf_resolution() const { return resolution_.back(); }
  /// Total number of released (noisy) counts.
  std::size_t TotalCounts() const;

  /// Released state, exposed for the synopsis codec.
  const Box& domain() const { return domain_; }
  std::int32_t height() const { return height_; }
  /// Whether constrained inference ran (and the flat leaf view exists).
  bool consistent() const { return leaf_view_.has_value(); }
  const std::vector<std::vector<double>>& level_counts() const {
    return counts_;
  }

 private:
  HierarchyHistogram() = default;

  std::size_t FlatIndex(std::int32_t level,
                        const std::vector<std::int64_t>& cell) const;
  Box CellBox(std::int32_t level,
              const std::vector<std::int64_t>& cell) const;
  double QueryNode(const Box& q, std::int32_t level,
                   const std::vector<std::int64_t>& cell) const;
  void ApplyConstrainedInference();

  Box domain_;
  std::int32_t height_;
  std::int64_t branching_;
  /// resolution_[l] = per-dim cells at level l (l = 0 is the root = 1).
  std::vector<std::int64_t> resolution_;
  /// counts_[l] = flat row-major counts of level l; counts_[0] is unused
  /// (the root count is not released).
  std::vector<std::vector<double>> counts_;
  /// Leaf-level counts as a grid with prefix sums, for QueryBatch; built
  /// only when constrained inference makes the levels consistent.
  std::optional<GridHistogram> leaf_view_;
};

}  // namespace privtree

#endif  // PRIVTREE_HIST_HIERARCHY_H_
