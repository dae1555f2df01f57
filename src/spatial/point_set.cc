#include "spatial/point_set.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dp/check.h"

namespace privtree {

PointSet::PointSet(std::size_t dim) : dim_(dim) { PRIVTREE_CHECK_GT(dim, 0u); }

PointSet::PointSet(std::size_t dim, std::vector<double> coords)
    : dim_(dim), coords_(std::move(coords)) {
  PRIVTREE_CHECK_GT(dim, 0u);
  PRIVTREE_CHECK_EQ(coords_.size() % dim, 0u);
  CheckFinite(coords_);
}

void PointSet::CheckFinite(std::span<const double> coords) {
  // Non-finite coordinates would propagate into undefined behaviour in the
  // Morton discretization (a NaN cast to an integer); reject them at the
  // boundary.
  for (double x : coords) {
    PRIVTREE_CHECK(std::isfinite(x));
  }
}

void PointSet::Add(std::span<const double> point) {
  PRIVTREE_CHECK_EQ(point.size(), dim_);
  CheckFinite(point);
  coords_.insert(coords_.end(), point.begin(), point.end());
}

std::size_t PointSet::ExactRangeCount(const Box& box) const {
  PRIVTREE_CHECK_EQ(box.dim(), dim_);
  std::size_t count = 0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (box.Contains(point(i))) ++count;
  }
  return count;
}

Box PointSet::BoundingBox() const {
  PRIVTREE_CHECK(!empty());
  std::vector<double> lo(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim_, -std::numeric_limits<double>::infinity());
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = point(i);
    for (std::size_t j = 0; j < dim_; ++j) {
      lo[j] = std::min(lo[j], p[j]);
      hi[j] = std::max(hi[j], p[j]);
    }
  }
  // Expand the upper bound so every point passes the half-open test.
  for (std::size_t j = 0; j < dim_; ++j) {
    const double width = hi[j] - lo[j];
    hi[j] += (width > 0.0 ? width : 1.0) * 1e-9 +
             std::numeric_limits<double>::min();
  }
  return Box(std::move(lo), std::move(hi));
}

}  // namespace privtree
