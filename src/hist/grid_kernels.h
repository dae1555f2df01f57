// Specialized 2-d query kernels over a grid prefix-sum lattice.
//
// GridHistogram::QueryImpl is generic over the dimension: per query it runs
// 2^d-corner inclusion-exclusion with mask loops, per-dimension branches
// and a heap-held Box on every access.  Almost every served grid is 2-d
// (the paper's datasets, AG's sub-grids), so these kernels restructure that
// path into a flat structure-of-arrays view (Grid2DView: raw lattice
// pointer + unpacked domain scalars) with the d = 2 case fully unrolled.
// The batch is the one-shot kernel in a loop; there is no vector variant.
//
// Bit-for-bit contract: the one-shot kernel and the batch return answers
// identical to GridHistogram::QueryImpl on the same box, on every input
// (same operation order, no FMA, no reassociation), and
// tests/release/kernel_parity_test.cc fuzzes the equivalence.  This is
// what lets AG's summed-area-table boundary path and the grid family's
// QueryBatch adopt the kernels with unchanged released answers.
#ifndef PRIVTREE_HIST_GRID_KERNELS_H_
#define PRIVTREE_HIST_GRID_KERNELS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "spatial/box.h"

namespace privtree {

/// Flat, pointer-based view of a 2-d grid's query state: everything the
/// kernels need, with no vector indirection on the hot path.  Built by
/// GridHistogram::KernelView2D(); valid while the grid outlives it.
struct Grid2DView {
  const double* prefix = nullptr;  ///< (m0+1) × (m1+1) lattice, row-major.
  std::size_t stride0 = 0;         ///< Lattice row stride (= m1 + 1).
  double m0d = 0.0, m1d = 0.0;     ///< Cells per dimension, as doubles.
  double dlo0 = 0.0, dlo1 = 0.0;   ///< Domain lower bounds.
  double dhi0 = 0.0, dhi1 = 0.0;   ///< Domain upper bounds.
  double w0 = 0.0, w1 = 0.0;       ///< Domain widths.
};

/// One query against the view; bitwise equal to QueryImpl on the same box.
double GridQueryOne2D(const Grid2DView& g, const Box& q);

/// Scalar batch: GridQueryOne2D over the span, answers written in order.
void GridQueryBatch2DScalar(const Grid2DView& g, std::span<const Box> queries,
                            double* answers);

}  // namespace privtree

#endif  // PRIVTREE_HIST_GRID_KERNELS_H_
