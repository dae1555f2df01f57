#include "release/tree_batch.h"

#include <algorithm>
#include <utility>

namespace privtree::release {

namespace {

// The three Box predicates of the descent on raw bound arrays.  Each
// mirrors its Box member operand for operand: the query is the receiver of
// Intersects and ContainsBox, the node of IntersectionVolume, exactly as
// SpatialHistogram::Query calls them.  Descend<D> inlines them with `dim`
// a compile-time constant for D > 0, so the loops unroll.

inline bool QueryIntersectsNode(const double* qlo, const double* qhi,
                                const double* lo, const double* hi,
                                std::size_t dim) {
  for (std::size_t j = 0; j < dim; ++j) {
    if (std::min(qhi[j], hi[j]) <= std::max(qlo[j], lo[j])) return false;
  }
  return true;
}

inline bool QueryContainsNode(const double* qlo, const double* qhi,
                              const double* lo, const double* hi,
                              std::size_t dim) {
  for (std::size_t j = 0; j < dim; ++j) {
    if (lo[j] < qlo[j] || hi[j] > qhi[j]) return false;
  }
  return true;
}

inline double NodeIntersectionVolume(const double* lo, const double* hi,
                                     const double* qlo, const double* qhi,
                                     std::size_t dim) {
  double volume = 1.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double width = std::min(hi[j], qhi[j]) - std::max(lo[j], qlo[j]);
    if (width <= 0.0) return 0.0;
    volume *= width;
  }
  return volume;
}

}  // namespace

TreeBatchIndex::TreeBatchIndex(std::size_t dim,
                               std::span<const NodeId> parents,
                               std::vector<double> bounds,
                               std::vector<double> counts)
    : n_(parents.size()) {
  if (n_ == 0) return;
  dim_ = dim;
  bounds_ = std::move(bounds);
  count_ = std::move(counts);
  PRIVTREE_CHECK_EQ(bounds_.size(), 2 * dim_ * n_);
  PRIVTREE_CHECK_EQ(count_.size(), n_);
  PRIVTREE_CHECK_EQ(parents[0], kInvalidNode);
  volume_.resize(n_);
  std::vector<std::int32_t> depth(n_, 0);
  child_offset_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    const double* lo = &bounds_[2 * dim_ * v];
    double volume = 1.0;  // Box::Volume, factor for factor.
    for (std::size_t j = 0; j < dim_; ++j) volume *= lo[dim_ + j] - lo[j];
    volume_[v] = volume;
    if (v == 0) continue;
    const NodeId p = parents[v];
    PRIVTREE_CHECK(p >= 0 && static_cast<std::size_t>(p) < v);
    // Non-decreasing parents make each node's children one id range.
    PRIVTREE_CHECK(v == 1 || p >= parents[v - 1]);
    depth[v] = depth[p] + 1;
    height_ = std::max(height_, depth[v]);
    ++child_offset_[p + 1];
  }
  std::uint32_t max_children = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    max_children = std::max(max_children, child_offset_[v + 1]);
    child_offset_[v + 1] += child_offset_[v];
  }
  // A node at depth k is popped with at most k * (max_children - 1)
  // siblings of its ancestors still pending, and internal nodes sit at
  // depth < height.
  stack_bound_ = static_cast<std::size_t>(height_) *
                     (std::max<std::uint32_t>(max_children, 1) - 1) +
                 1;
}

std::vector<double> TreeBatchIndex::Query(std::span<const Box> queries) const {
  std::vector<double> answers(queries.size(), 0.0);
  if (n_ == 0 || queries.empty()) return answers;
  switch (dim_) {
    case 1: Descend<1>(queries, answers.data()); break;
    case 2: Descend<2>(queries, answers.data()); break;
    case 3: Descend<3>(queries, answers.data()); break;
    case 4: Descend<4>(queries, answers.data()); break;
    case 5: Descend<5>(queries, answers.data()); break;
    case 6: Descend<6>(queries, answers.data()); break;
    case 7: Descend<7>(queries, answers.data()); break;
    case 8: Descend<8>(queries, answers.data()); break;
    default: Descend<0>(queries, answers.data()); break;
  }
  return answers;
}

template <std::size_t D>
void TreeBatchIndex::Descend(std::span<const Box> queries,
                             double* answers) const {
  const std::size_t dim = D == 0 ? dim_ : D;
  const std::size_t stride = 2 * dim;
  const double* bounds = bounds_.data();
  std::vector<NodeId> stack(stack_bound_);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Box& q = queries[i];
    PRIVTREE_CHECK_EQ(q.dim(), dim_);
    const double* qlo = q.lo().data();
    const double* qhi = q.hi().data();
    // Only cells that intersect the box are ever pushed, so a popped node
    // is never disjoint.
    if (!QueryIntersectsNode(qlo, qhi, bounds, bounds + dim, dim)) continue;
    double ans = 0.0;
    std::size_t top = 0;
    stack[top++] = 0;  // The root.
    while (top > 0) {
      const auto v = static_cast<std::size_t>(stack[--top]);
      const double* lo = bounds + stride * v;
      const double* hi = lo + dim;
      if (QueryContainsNode(qlo, qhi, lo, hi, dim)) {  // Fully contained.
        ans += count_[v];
        continue;
      }
      const std::size_t first = child_offset_[v] + 1;
      const std::size_t last = child_offset_[v + 1] + 1;
      if (first != last) {  // Partial, internal: push the children it meets.
        for (std::size_t c = first; c < last; ++c) {
          const double* clo = bounds + stride * c;
          if (QueryIntersectsNode(qlo, qhi, clo, clo + dim, dim)) {
            stack[top++] = static_cast<NodeId>(c);
          }
        }
        continue;
      }
      // Partial leaf: uniformity assumption inside the cell.
      const double volume = volume_[v];
      if (volume > 0.0) {
        ans += count_[v] *
               (NodeIntersectionVolume(lo, hi, qlo, qhi, dim) / volume);
      }
    }
    answers[i] = ans;
  }
}

}  // namespace privtree::release
