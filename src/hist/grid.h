// A dense d-dimensional grid histogram with exact continuous range queries.
//
// Queries use the uniformity assumption inside each cell, i.e. they return
// the integral of the piecewise-constant density over the query box.  The
// integral is evaluated in O(4^d) per query via the inclusion-exclusion of
// the continuous CDF, which is the multilinear interpolation of the
// prefix-sum lattice — no per-cell iteration, so even 2^20-cell grids answer
// queries in sub-microsecond time.
#ifndef PRIVTREE_HIST_GRID_H_
#define PRIVTREE_HIST_GRID_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dp/rng.h"
#include "hist/grid_kernels.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// A dense grid of cell counts over a box domain.
class GridHistogram {
 public:
  /// Creates an all-zero grid; `cells_per_dim[j] >= 1` for every dimension.
  GridHistogram(Box domain, std::vector<std::int64_t> cells_per_dim);

  /// Builds the exact cell counts of `points` (clamped into the domain).
  static GridHistogram FromPoints(const PointSet& points, const Box& domain,
                                  std::vector<std::int64_t> cells_per_dim);

  std::size_t dim() const { return domain_.dim(); }
  const Box& domain() const { return domain_; }
  const std::vector<std::int64_t>& cells_per_dim() const {
    return cells_per_dim_;
  }
  std::size_t total_cells() const { return counts_.size(); }

  std::vector<double>& counts() { return counts_; }
  const std::vector<double>& counts() const { return counts_; }

  /// Flat row-major index of a cell (dimension 0 varies slowest).
  std::size_t FlatIndex(const std::vector<std::int64_t>& cell) const;

  /// The cell index of a point along dimension j, clamped into range.
  std::int64_t CellOf(double x, std::size_t j) const;

  /// The geometric box of a cell.
  Box CellBox(const std::vector<std::int64_t>& cell) const;

  /// Adds i.i.d. Lap(scale) noise to every cell count.
  void AddLaplaceNoise(double scale, Rng& rng);

  /// Recomputes the prefix-sum lattice.  Must be called after the counts
  /// change and before Query.
  void BuildPrefixSums();

  /// Integral of the histogram density over `q` (clipped to the domain).
  /// Requires BuildPrefixSums() to have been called.
  double Query(const Box& q) const;

  /// Answers many boxes in one allocation-free pass over the query list;
  /// each answer is bit-for-bit identical to Query on the same box.  On 2-d
  /// grids this runs the flat kernel (hist/grid_kernels.h).
  std::vector<double> QueryBatch(std::span<const Box> queries) const;

  /// The original generic-dimension batch path, kept as the parity oracle
  /// for the specialized kernels (tests compare the two bit-for-bit).
  std::vector<double> QueryBatchReference(std::span<const Box> queries) const;

  /// One query through the generic-dimension path (the pre-kernel scalar
  /// code), bit-for-bit equal to Query.  For parity tests and baseline
  /// timings; serving goes through Query/QueryBatch.
  double QueryReference(const Box& q) const;

  /// Flat kernel view of a 2-d grid (requires dim() == 2 and a valid prefix
  /// lattice); valid while this histogram is alive and unmodified.
  Grid2DView KernelView2D() const;

  /// Sum of all cell counts.
  double Total() const;

 private:
  /// Query body shared by Query and QueryBatch; callers have validated the
  /// dimension and prefix state.
  double QueryImpl(const Box& q) const;

  /// Continuous CDF at a domain point (an array of dim() coordinates), via
  /// multilinear interpolation of the prefix-sum lattice.
  double Cdf(const double* x) const;

  Box domain_;
  std::vector<std::int64_t> cells_per_dim_;
  std::vector<std::size_t> stride_;       // Row-major strides for counts_.
  std::vector<double> counts_;
  std::vector<std::size_t> lattice_stride_;  // Strides for prefix_ lattice.
  std::vector<double> prefix_;            // (m_j + 1)-sized per dimension.
  bool prefix_valid_ = false;
};

}  // namespace privtree

#endif  // PRIVTREE_HIST_GRID_H_
