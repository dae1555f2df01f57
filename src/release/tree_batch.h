// The range-count kernel of the tree-backed release methods.
//
// PrivTree answers a box by descending from the root and stopping at every
// cell that is disjoint from the box or inside it (Section 2.2 of the
// paper); a partial leaf contributes under the uniformity assumption.  A
// box therefore costs O(cells touched), not O(tree).
//
// TreeBatchIndex runs that descent over a copy of the tree flattened once,
// at fit/load time: node-major bounds (lo[0..d) then hi[0..d) for each
// node, so one node's box is one contiguous run of doubles), the released
// counts, precomputed leaf volumes and CSR child lists.  Query reuses one
// explicit stack, sized from the tree's shape, for every box of the batch.
//
// The descent mirrors SpatialHistogram::Query and KdTreeHistogram::Query
// step for step: children are pushed in CSR (AddChild) order and the last
// one is popped first, and the Box predicates run with the same operands in
// the same order.  The answers are therefore bit-identical to those
// single-query descents, which stay as the library API and are the
// kernel's test oracle.
#ifndef PRIVTREE_RELEASE_TREE_BATCH_H_
#define PRIVTREE_RELEASE_TREE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/check.h"
#include "spatial/box.h"

namespace privtree::release {

/// Flattened snapshot of a decomposition tree with released counts, built
/// once per synopsis and reused by every Query call.
class TreeBatchIndex {
 public:
  /// An empty index answers every query with 0.
  TreeBatchIndex() = default;

  /// Flattens `tree` (`box_of` maps a node's Domain to its geometric Box)
  /// and takes ownership of the released counts, indexed by node id.
  template <typename Domain, typename BoxOf>
  TreeBatchIndex(const DecompTree<Domain>& tree, std::vector<double> count,
                 BoxOf&& box_of)
      : n_(tree.size()), count_(std::move(count)) {
    if (n_ == 0) {
      count_.clear();
      return;
    }
    PRIVTREE_CHECK_EQ(count_.size(), n_);
    dim_ = box_of(tree.node(tree.root()).domain).dim();
    bounds_.resize(2 * dim_ * n_);
    volume_.resize(n_);
    child_offset_.assign(n_ + 1, 0);
    std::size_t height = 0;
    std::size_t max_children = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      const auto& node = tree.node(static_cast<NodeId>(v));
      const Box& box = box_of(node.domain);
      PRIVTREE_CHECK_EQ(box.dim(), dim_);
      double* lo = &bounds_[2 * dim_ * v];
      std::copy(box.lo().begin(), box.lo().end(), lo);
      std::copy(box.hi().begin(), box.hi().end(), lo + dim_);
      volume_[v] = box.Volume();
      child_offset_[v + 1] =
          child_offset_[v] + static_cast<std::uint32_t>(node.children.size());
      child_ids_.insert(child_ids_.end(), node.children.begin(),
                        node.children.end());
      height = std::max(height, static_cast<std::size_t>(node.depth));
      max_children = std::max(max_children, node.children.size());
    }
    // A node at depth k is popped with at most k * (max_children - 1)
    // siblings of its ancestors still pending, and internal nodes sit at
    // depth < height.
    stack_bound_ = height * (std::max<std::size_t>(max_children, 1) - 1) + 1;
  }

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }

  /// One estimate per query, in input order; bit-for-bit equal to
  /// SpatialHistogram::Query / KdTreeHistogram::Query on the source tree
  /// and counts.  Every query must have dim() dimensions (unless the index
  /// is empty).
  std::vector<double> Query(std::span<const Box> queries) const;

 private:
  double Descend(const Box& q, NodeId* stack) const;

  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::size_t stack_bound_ = 0;  // Deepest the descent stack can get.
  std::vector<double> bounds_;  // Node-major: lo at [2*dim*v], hi after it.
  std::vector<double> count_;   // Released count per node id.
  std::vector<double> volume_;  // Precomputed Box::Volume per node.
  std::vector<std::uint32_t> child_offset_;  // CSR offsets, n_ + 1 entries.
  std::vector<NodeId> child_ids_;            // Children in AddChild order.
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_BATCH_H_
