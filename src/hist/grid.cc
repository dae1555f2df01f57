#include "hist/grid.h"

#include <algorithm>
#include <cmath>

#include "dp/check.h"
#include "dp/distributions.h"

namespace privtree {

GridHistogram::GridHistogram(Box domain,
                             std::vector<std::int64_t> cells_per_dim)
    : domain_(std::move(domain)), cells_per_dim_(std::move(cells_per_dim)) {
  PRIVTREE_CHECK_EQ(cells_per_dim_.size(), domain_.dim());
  std::size_t total = 1;
  for (std::int64_t m : cells_per_dim_) {
    PRIVTREE_CHECK_GE(m, 1);
    total *= static_cast<std::size_t>(m);
    PRIVTREE_CHECK_LE(total, std::size_t{1} << 28);  // 256M-cell sanity cap.
  }
  counts_.assign(total, 0.0);
  stride_.assign(dim(), 1);
  for (std::size_t j = dim() - 1; j > 0; --j) {
    stride_[j - 1] = stride_[j] * static_cast<std::size_t>(cells_per_dim_[j]);
  }
}

GridHistogram GridHistogram::FromPoints(
    const PointSet& points, const Box& domain,
    std::vector<std::int64_t> cells_per_dim) {
  GridHistogram grid(domain, std::move(cells_per_dim));
  const std::size_t d = grid.dim();
  std::vector<std::int64_t> cell(d);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = points.point(i);
    for (std::size_t j = 0; j < d; ++j) cell[j] = grid.CellOf(p[j], j);
    grid.counts_[grid.FlatIndex(cell)] += 1.0;
  }
  return grid;
}

std::size_t GridHistogram::FlatIndex(
    const std::vector<std::int64_t>& cell) const {
  PRIVTREE_CHECK_EQ(cell.size(), dim());
  std::size_t index = 0;
  for (std::size_t j = 0; j < dim(); ++j) {
    PRIVTREE_CHECK_GE(cell[j], 0);
    PRIVTREE_CHECK_LT(cell[j], cells_per_dim_[j]);
    index += static_cast<std::size_t>(cell[j]) * stride_[j];
  }
  return index;
}

std::int64_t GridHistogram::CellOf(double x, std::size_t j) const {
  const double t = (x - domain_.lo(j)) / domain_.Width(j) *
                   static_cast<double>(cells_per_dim_[j]);
  const auto cell = static_cast<std::int64_t>(std::floor(t));
  return std::clamp<std::int64_t>(cell, 0, cells_per_dim_[j] - 1);
}

Box GridHistogram::CellBox(const std::vector<std::int64_t>& cell) const {
  PRIVTREE_CHECK_EQ(cell.size(), dim());
  std::vector<double> lo(dim()), hi(dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    const double width =
        domain_.Width(j) / static_cast<double>(cells_per_dim_[j]);
    lo[j] = domain_.lo(j) + width * static_cast<double>(cell[j]);
    hi[j] = lo[j] + width;
  }
  return Box(std::move(lo), std::move(hi));
}

void GridHistogram::AddLaplaceNoise(double scale, Rng& rng) {
  for (double& c : counts_) c += SampleLaplace(rng, scale);
  prefix_valid_ = false;
}

void GridHistogram::BuildPrefixSums() {
  const std::size_t d = dim();
  std::vector<std::size_t> lattice_dims(d);
  std::size_t total = 1;
  for (std::size_t j = 0; j < d; ++j) {
    lattice_dims[j] = static_cast<std::size_t>(cells_per_dim_[j]) + 1;
    total *= lattice_dims[j];
  }
  lattice_stride_.assign(d, 1);
  for (std::size_t j = d - 1; j > 0; --j) {
    lattice_stride_[j - 1] = lattice_stride_[j] * lattice_dims[j];
  }
  prefix_.assign(total, 0.0);

  // Scatter the cell counts to lattice positions (i+1 per dimension), then
  // accumulate along each dimension in turn.
  std::vector<std::int64_t> cell(d, 0);
  for (std::size_t flat = 0; flat < counts_.size(); ++flat) {
    std::size_t lattice_index = 0;
    for (std::size_t j = 0; j < d; ++j) {
      lattice_index += (static_cast<std::size_t>(cell[j]) + 1) *
                       lattice_stride_[j];
    }
    prefix_[lattice_index] = counts_[flat];
    // Row-major increment (last dimension fastest).
    for (std::size_t j = d; j-- > 0;) {
      if (++cell[j] < cells_per_dim_[j]) break;
      cell[j] = 0;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t stride = lattice_stride_[j];
    const std::size_t extent = lattice_dims[j];
    // Accumulate along dimension j: for every line, prefix over positions.
    for (std::size_t base = 0; base < prefix_.size(); ++base) {
      // Process each line exactly once: only when the j-coordinate is 0.
      if ((base / stride) % extent != 0) continue;
      double running = 0.0;
      for (std::size_t t = 0; t < extent; ++t) {
        running += prefix_[base + t * stride];
        prefix_[base + t * stride] = running;
      }
    }
  }
  prefix_valid_ = true;
}

double GridHistogram::Cdf(const double* x) const {
  const std::size_t d = dim();
  // Fractional lattice coordinates, clamped to [0, m_j].
  std::size_t base_cell[8];
  double frac[8];
  for (std::size_t j = 0; j < d; ++j) {
    double t = (x[j] - domain_.lo(j)) / domain_.Width(j) *
               static_cast<double>(cells_per_dim_[j]);
    t = std::clamp(t, 0.0, static_cast<double>(cells_per_dim_[j]));
    double integral = std::floor(t);
    if (integral >= static_cast<double>(cells_per_dim_[j])) {
      integral = static_cast<double>(cells_per_dim_[j]) - 1.0;
    }
    base_cell[j] = static_cast<std::size_t>(integral);
    frac[j] = t - integral;
  }
  // Multilinear interpolation over the 2^d lattice corners.
  double value = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
    double weight = 1.0;
    std::size_t index = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const bool upper = (mask >> j) & 1u;
      weight *= upper ? frac[j] : (1.0 - frac[j]);
      index += (base_cell[j] + (upper ? 1 : 0)) * lattice_stride_[j];
    }
    if (weight != 0.0) value += weight * prefix_[index];
  }
  return value;
}

double GridHistogram::QueryImpl(const Box& q) const {
  const std::size_t d = dim();
  // Clip the query to the domain.
  double lo[8], hi[8];
  for (std::size_t j = 0; j < d; ++j) {
    lo[j] = std::max(q.lo(j), domain_.lo(j));
    hi[j] = std::min(q.hi(j), domain_.hi(j));
    if (lo[j] >= hi[j]) return 0.0;
  }
  // Inclusion-exclusion over the 2^d corners of the clipped box.
  double ans = 0.0;
  double corner[8];
  for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
    int ones = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const bool upper = (mask >> j) & 1u;
      corner[j] = upper ? hi[j] : lo[j];
      ones += upper ? 1 : 0;
    }
    const double sign = ((d - ones) % 2 == 0) ? 1.0 : -1.0;
    ans += sign * Cdf(corner);
  }
  return ans;
}

double GridHistogram::Query(const Box& q) const {
  PRIVTREE_CHECK(prefix_valid_);
  PRIVTREE_CHECK_EQ(q.dim(), dim());
  PRIVTREE_CHECK_LE(dim(), 8u);
  if (dim() == 2) return GridQueryOne2D(KernelView2D(), q);
  return QueryImpl(q);
}

std::vector<double> GridHistogram::QueryBatch(
    std::span<const Box> queries) const {
  PRIVTREE_CHECK(prefix_valid_);
  PRIVTREE_CHECK_LE(dim(), 8u);
  std::vector<double> answers(queries.size(), 0.0);
  for (const Box& q : queries) PRIVTREE_CHECK_EQ(q.dim(), dim());
  if (dim() == 2) {
    GridQueryBatch2DScalar(KernelView2D(), queries, answers.data());
    return answers;
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    answers[i] = QueryImpl(queries[i]);
  }
  return answers;
}

std::vector<double> GridHistogram::QueryBatchReference(
    std::span<const Box> queries) const {
  PRIVTREE_CHECK(prefix_valid_);
  PRIVTREE_CHECK_LE(dim(), 8u);
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const Box& q : queries) {
    PRIVTREE_CHECK_EQ(q.dim(), dim());
    answers.push_back(QueryImpl(q));
  }
  return answers;
}

double GridHistogram::QueryReference(const Box& q) const {
  PRIVTREE_CHECK(prefix_valid_);
  PRIVTREE_CHECK_EQ(q.dim(), dim());
  PRIVTREE_CHECK_LE(dim(), 8u);
  return QueryImpl(q);
}

Grid2DView GridHistogram::KernelView2D() const {
  PRIVTREE_CHECK(prefix_valid_);
  PRIVTREE_CHECK_EQ(dim(), 2u);
  Grid2DView view;
  view.prefix = prefix_.data();
  view.stride0 = lattice_stride_[0];
  view.m0d = static_cast<double>(cells_per_dim_[0]);
  view.m1d = static_cast<double>(cells_per_dim_[1]);
  view.dlo0 = domain_.lo(0);
  view.dlo1 = domain_.lo(1);
  view.dhi0 = domain_.hi(0);
  view.dhi1 = domain_.hi(1);
  view.w0 = domain_.Width(0);
  view.w1 = domain_.Width(1);
  return view;
}

double GridHistogram::Total() const {
  double total = 0.0;
  for (double c : counts_) total += c;
  return total;
}

}  // namespace privtree
