#include "release/tree_batch.h"

#include <algorithm>
#include <utility>

namespace privtree::release {

namespace {

// The three Box predicates of the descent on raw bound arrays.  Each
// mirrors its Box member operand for operand: the query is the receiver of
// Intersects and ContainsBox, the node of IntersectionVolume, exactly as
// SpatialHistogram::Query calls them.

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
    depth[v] = depth[p] + 1;
    height_ = std::max(height_, depth[v]);
    ++child_offset_[p + 1];
  }
  std::uint32_t max_children = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    max_children = std::max(max_children, child_offset_[v + 1]);
    child_offset_[v + 1] += child_offset_[v];
  }
  // Ascending v keeps each node's children in id order.
  child_ids_.resize(n_ - 1);
  std::vector<std::uint32_t> next(child_offset_.begin(),
                                  child_offset_.end() - 1);
  for (std::size_t v = 1; v < n_; ++v) {
    child_ids_[next[parents[v]]++] = static_cast<NodeId>(v);
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
  std::vector<NodeId> stack(stack_bound_);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    PRIVTREE_CHECK_EQ(queries[i].dim(), dim_);
    answers[i] = Descend(queries[i], stack.data());
  }
  return answers;
}

double TreeBatchIndex::Descend(const Box& q, NodeId* stack) const {
  const double* qlo = q.lo().data();
  const double* qhi = q.hi().data();
  double ans = 0.0;
  std::size_t top = 0;
  stack[top++] = 0;  // The root.
  while (top > 0) {
    const auto v = static_cast<std::size_t>(stack[--top]);
    const double* lo = &bounds_[2 * dim_ * v];
    const double* hi = lo + dim_;
    if (!QueryIntersectsNode(qlo, qhi, lo, hi, dim_)) continue;  // Disjoint.
    if (QueryContainsNode(qlo, qhi, lo, hi, dim_)) {  // Fully contained.
      ans += count_[v];
      continue;
    }
    const std::uint32_t first = child_offset_[v];
    const std::uint32_t last = child_offset_[v + 1];
    if (first != last) {  // Partial, internal.
      for (std::uint32_t c = first; c < last; ++c) stack[top++] = child_ids_[c];
      continue;
    }
    // Partial leaf: uniformity assumption inside the cell.
    const double volume = volume_[v];
    if (volume > 0.0) {
      ans += count_[v] *
             (NodeIntersectionVolume(lo, hi, qlo, qhi, dim_) / volume);
    }
  }
  return ans;
}

}  // namespace privtree::release
