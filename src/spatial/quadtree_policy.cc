#include "spatial/quadtree_policy.h"

#include "dp/check.h"

namespace privtree {

QuadtreePolicy::QuadtreePolicy(const MortonIndex& index, Box root,
                               int dims_per_split)
    : index_(index), root_(std::move(root)), dims_per_split_(dims_per_split) {
  PRIVTREE_CHECK_GE(dims_per_split, 1);
  PRIVTREE_CHECK_LE(static_cast<std::size_t>(dims_per_split), root_.dim());
  PRIVTREE_CHECK_EQ(root_.dim(), index.dim());
}

QuadtreePolicy::Domain QuadtreePolicy::Root() const {
  return SpatialCell{root_, 0, 0, 0,
                     static_cast<std::uint32_t>(index_.size())};
}

bool QuadtreePolicy::CanSplit(const Domain& cell) const {
  return cell.bits + dims_per_split_ <= index_.max_prefix_bits();
}

std::vector<QuadtreePolicy::Domain> QuadtreePolicy::Split(
    const Domain& cell) const {
  PRIVTREE_CHECK(CanSplit(cell));
  const std::size_t dim = root_.dim();
  const int fanout = 1 << dims_per_split_;
  const int bits = cell.bits + dims_per_split_;
  std::vector<Domain> children;
  children.reserve(fanout);
  std::uint32_t begin = cell.begin;
  for (int c = 0; c < fanout; ++c) {
    const MortonKey prefix = (cell.prefix << dims_per_split_) | c;
    Domain child{cell.box, prefix, bits};
    // Appended bit `step` (most significant first) picks the half of the
    // step-th bisected dimension, which follows the global round-robin bit
    // order: after `cell.bits + step` consumed bits, it is that mod d.
    for (int step = 0; step < dims_per_split_; ++step) {
      child.box.Halve((cell.bits + step) % dim,
                      (c >> (dims_per_split_ - 1 - step)) & 1);
    }
    // Children come in ascending prefix order, so their key ranges tile the
    // parent's: each ends where the next prefix's keys start, found by a
    // search inside the parent's range only.
    child.begin = begin;
    child.end = c + 1 == fanout
                    ? cell.end
                    : index_.LowerBound(prefix + 1, bits, begin, cell.end);
    begin = child.end;
    children.push_back(std::move(child));
  }
  return children;
}

double QuadtreePolicy::Score(const Domain& cell) const {
  return static_cast<double>(cell.end - cell.begin);
}

void ClearKeyRanges(DecompTree<SpatialCell>* tree) {
  for (std::size_t i = 0; i < tree->size(); ++i) {
    SpatialCell& cell = tree->mutable_domain(static_cast<NodeId>(i));
    cell.begin = 0;
    cell.end = 0;
  }
}

}  // namespace privtree
