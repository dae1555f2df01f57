#include "release/tree_batch.h"

#include <algorithm>

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
