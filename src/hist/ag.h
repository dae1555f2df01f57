// AG — the adaptive-grid method for two-dimensional data (Qardaji et al.,
// ICDE 2013).
//
// A coarse level-1 grid (granularity m1) receives noisy counts with budget
// α·ε; each level-1 cell is then sub-divided adaptively — a cell whose noisy
// count is nc gets a level-2 sub-grid of granularity
//   m2 = ceil( sqrt( nc · (1−α)·ε / c2 ) )
// whose counts are released with the remaining (1−α)·ε budget.  A final
// constrained-inference step makes each sub-grid consistent with its parent
// cell count, which is where AG gains accuracy over UG.
#ifndef PRIVTREE_HIST_AG_H_
#define PRIVTREE_HIST_AG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dp/rng.h"
#include "hist/grid.h"
#include "hist/sat.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// Options for BuildAdaptiveGrid.
struct AdaptiveGridOptions {
  double alpha = 0.5;     ///< Budget fraction for the level-1 grid.
  double c1 = 10.0;       ///< Constant in the m1 heuristic.
  double c2 = 5.0;        ///< Constant in the m2 heuristic (c1 / 2 in [41]).
  /// Multiplies the cell counts of both levels by `cell_scale` (the r of
  /// Figure 10).
  double cell_scale = 1.0;
};

/// A two-level adaptive grid.
class AdaptiveGrid {
 public:
  /// Builds the ε-DP adaptive grid (the input must be 2-dimensional).
  AdaptiveGrid(const PointSet& points, const Box& domain, double epsilon,
               const AdaptiveGridOptions& options, Rng& rng);

  /// Restores a released grid from its serialized parts (the compressed AG
  /// body — see hist/grid_codec.h): `level1_counts` is the
  /// row-major m1 × m1 noisy level-1 lattice and `level2` one sub-grid per
  /// level-1 cell, already constrained (sub-grid counts are persisted
  /// post-inference).  The summed-area table is derived state and is
  /// rebuilt here, bit for bit.
  AdaptiveGrid(Box domain, std::int64_t m1, std::vector<double> level1_counts,
               std::vector<GridHistogram> level2);

  /// Estimated number of points in `q`.
  double Query(const Box& q) const;

  /// Answers many boxes at once.  Per query, the level-1 cells strictly
  /// inside the range are summed through a summed-area table of sub-grid
  /// totals in O(1) — Query iterates every overlapped cell — and only the
  /// O(perimeter) boundary cells fall back to per-sub-grid evaluation,
  /// which runs on precomputed flat kernel views (hist/grid_kernels.h)
  /// instead of re-entering GridHistogram::Query.  Answers agree with
  /// Query up to floating-point summation order and are bit-for-bit equal
  /// to QueryBatchReference.
  std::vector<double> QueryBatch(std::span<const Box> queries) const;

  /// The pre-kernel batch path (SAT interior + GridHistogram::Query on the
  /// boundary cells), kept as the parity oracle for QueryBatch.
  std::vector<double> QueryBatchReference(std::span<const Box> queries) const;

  /// Level-1 granularity per dimension.
  std::int64_t level1_granularity() const { return m1_; }
  /// Total number of released cells across both levels.
  std::size_t TotalCells() const;

  /// Released state, exposed for the synopsis codec.
  const Box& domain() const { return domain_; }
  const std::vector<double>& level1_counts() const { return level1_count_; }
  const std::vector<GridHistogram>& level2() const { return level2_; }

 private:
  std::int64_t m1_ = 1;
  Box domain_;
  /// Level-1 noisy counts, row-major m1 × m1.
  std::vector<double> level1_count_;
  /// One sub-grid per level-1 cell (granularity may be 1 = no refinement).
  std::vector<GridHistogram> level2_;
  /// Flat kernel view of every sub-grid, precomputed once per fit/restore
  /// so the batched boundary path touches no vectors or contract checks.
  std::vector<Grid2DView> level2_view_;
  /// Summed-area table of the (constrained) sub-grid totals, for the
  /// fully-covered interior of batched queries.
  SummedAreaTable2D cell_total_sat_;
};

}  // namespace privtree

#endif  // PRIVTREE_HIST_AG_H_
