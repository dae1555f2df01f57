// The range-count kernel of the tree-backed release methods.
//
// PrivTree answers a box by descending from the root and stopping at every
// cell that is disjoint from the box or inside it (Section 2.2 of the
// paper); a partial leaf contributes under the uniformity assumption.  A
// box therefore costs O(cells touched), not O(tree).
//
// TreeBatchIndex runs that descent over the tree's flat layout:
// node-major bounds (lo[0..d) then hi[0..d) for each node, so one node's
// box is one contiguous run of doubles), the released counts, precomputed
// leaf volumes and CSR child offsets.  Query reuses one explicit stack,
// sized from the tree's shape, for every box of the batch.
//
// Every producer writes nodes breadth-first, so parent ids are
// non-decreasing (the flat constructor checks it, and the payload decoder
// refuses a body that breaks it) and node v's children are the contiguous
// ids child_offset[v] + 1 .. child_offset[v + 1]: no child id list.
//
// Every served tree release (privtree, simpletree, kdtree) reaches the
// index through the flat constructor: its fit (spatial/flat_fit.h, or
// FlattenTree on kdtree's transient DecompTree) and its payload decoder
// (spatial/serialization.h) produce the parent links, bounds and counts,
// and the constructor moves them in.  The DecompTree constructor is an
// adapter onto it that only tests and bench_micro use, for the library
// histograms, whose FIFO builders also number nodes breadth-first.
//
// The descent mirrors SpatialHistogram::Query and KdTreeHistogram::Query
// with one filter: a child disjoint from the box is never pushed (the root
// is tested once before the loop), where the library pushes it and drops
// it when popped.  A disjoint cell adds nothing, and the children that are
// pushed keep CSR order (id order, which is AddChild order) with the last
// one popped first, so the cells that add to the answer are added in the
// same order, and the Box predicates run with the same operands.  The
// answers are therefore bit-identical to those single-query descents,
// which stay as the library API and are the kernel's test oracle.
//
// The descent is one template over the dimension D, dispatched on dim()
// for D = 1..8 so the box tests unroll; D = 0 reads the dimension at run
// time (kdtree releases above 8 dims).
#ifndef PRIVTREE_RELEASE_TREE_BATCH_H_
#define PRIVTREE_RELEASE_TREE_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/tree.h"
#include "dp/check.h"
#include "spatial/box.h"
#include "spatial/flat_fit.h"

namespace privtree::release {

/// Flattened snapshot of a decomposition tree with released counts, built
/// once per synopsis and reused by every Query call.
class TreeBatchIndex {
 public:
  /// An empty index answers every query with 0.
  TreeBatchIndex() = default;

  /// Takes a tree in the flat layout: `parents[v]` is node v's parent
  /// (kInvalidNode for the root, node 0; otherwise a smaller id),
  /// `bounds` holds each node's lo[0..dim) then hi[0..dim), node-major, and
  /// `counts` the released count per node.  Bounds and counts are moved
  /// in; the leaf volumes, CSR child offsets and the descent's stack bound
  /// are derived from them.  The parents must be non-decreasing from node 1
  /// on (breadth-first order), so each node's children are consecutive
  /// ids.  No parents means an empty index.
  TreeBatchIndex(std::size_t dim, std::span<const NodeId> parents,
                 std::vector<double> bounds, std::vector<double> counts);

  /// Flattens `tree` (`box_of` maps a node's Domain to its geometric Box)
  /// and takes ownership of the released counts, indexed by node id.  Only
  /// tests and bench_micro index a library DecompTree this way.
  template <typename Domain, typename BoxOf>
  TreeBatchIndex(const DecompTree<Domain>& tree, std::vector<double> count,
                 BoxOf&& box_of) {
    FlatSpatialTree flat = FlattenTree(tree, std::move(count), box_of);
    *this = TreeBatchIndex(flat.dim, flat.parent, std::move(flat.bounds),
                           std::move(flat.count));
  }

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  /// Largest node depth; 0 for a root-only (or empty) tree.
  std::int32_t height() const { return height_; }

  /// One estimate per query, in input order; bit-for-bit equal to
  /// SpatialHistogram::Query / KdTreeHistogram::Query on the source tree
  /// and counts.  Every query must have dim() dimensions (unless the index
  /// is empty).
  std::vector<double> Query(std::span<const Box> queries) const;

 private:
  /// Writes the answer to each of `queries` to `answers`; D is dim(), or
  /// 0 to read dim() at run time.
  template <std::size_t D>
  void Descend(std::span<const Box> queries, double* answers) const;

  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::int32_t height_ = 0;
  std::size_t stack_bound_ = 0;  // Deepest the descent stack can get.
  std::vector<double> bounds_;  // Node-major: lo at [2*dim*v], hi after it.
  std::vector<double> count_;   // Released count per node id.
  std::vector<double> volume_;  // Precomputed Box::Volume per node.
  // CSR offsets, n_ + 1 entries: node v's children are the ids
  // child_offset_[v] + 1 .. child_offset_[v + 1].
  std::vector<std::uint32_t> child_offset_;
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_BATCH_H_
