// The served fit of the spatial tree family: PrivTree (Section 3.4) and
// SimpleTree (Algorithm 1) over a MortonIndex, written straight into the
// flat layout that serving reads — parent links, node-major bounds and
// released counts — with no DecompTree in between.
//
// The kernel works one breadth-first level at a time.  A split decision
// needs only a node's count and depth, so the nodes of a level decide in id
// order, each split appending its children's ids contiguously, and the
// children's key ranges are then found by branchless binary searches run
// in lockstep groups (MortonIndex::LowerBoundGroup), whose cache misses
// overlap.  Fit-time state is the exact key ranges of the current level
// and the next one; a node's Morton prefix is read off its first key, and
// an empty node needs no search.  The bounds are written once the node
// count is known, and PrivTree's counts are released through the parent
// links.  The exact counts never reach a release.
//
// The kernel makes the same Laplace draws in the same order as the library
// builders BuildPrivTreeHistogram / BuildSimpleTreeHistogram
// (spatial/spatial_histogram.h) — PrivTree: one per visited node, then one
// per leaf in id order; SimpleTree: one per node — halves bounds with
// Box::Halve's expression and sums internal counts in the same order.  Its
// releases are therefore bit-identical to theirs; those builders stay as
// the library API and are the kernel's test oracle.
#ifndef PRIVTREE_SPATIAL_FLAT_FIT_H_
#define PRIVTREE_SPATIAL_FLAT_FIT_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/privtree.h"
#include "core/tree.h"
#include "dp/check.h"
#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/spatial_histogram.h"

namespace privtree {

/// A released spatial tree in the serving layout.  Node 0 is the root;
/// every other node's parent has a smaller id, and the children of a node
/// have consecutive ids in Morton (Split) order.
struct FlatSpatialTree {
  std::size_t dim = 0;
  /// Parent id per node; kInvalidNode for the root.
  std::vector<NodeId> parent;
  /// Node-major boxes: node v's lo[0..dim) at bounds[2·dim·v], then its
  /// hi[0..dim).
  std::vector<double> bounds;
  /// Released (noisy) count per node.
  std::vector<double> count;
  DecompositionStats stats;

  std::size_t size() const { return parent.size(); }
};

/// The flat layout of a box-domain DecompTree (`box_of` maps a node's
/// Domain to its Box) with `counts`, its count per node; stats stay empty.
/// The adapter through which a DecompTree reaches the flat codec and query
/// index: kdtree's served fit (its DecompTree lives only inside the fit)
/// and, in tests and bench_micro, the library histograms.
template <typename Domain, typename BoxOf>
FlatSpatialTree FlattenTree(const DecompTree<Domain>& tree,
                            std::vector<double> counts, BoxOf&& box_of) {
  FlatSpatialTree flat;
  flat.count = std::move(counts);
  if (tree.empty()) return flat;
  const std::size_t dim = box_of(tree.node(0).domain).dim();
  flat.dim = dim;
  flat.parent.resize(tree.size());
  flat.bounds.resize(2 * dim * tree.size());
  for (std::size_t v = 0; v < tree.size(); ++v) {
    const auto& node = tree.node(static_cast<NodeId>(v));
    const Box& box = box_of(node.domain);
    PRIVTREE_CHECK_EQ(box.dim(), dim);
    flat.parent[v] = node.parent;
    double* lo = flat.bounds.data() + 2 * dim * v;
    std::copy(box.lo().begin(), box.lo().end(), lo);
    std::copy(box.hi().begin(), box.hi().end(), lo + dim);
  }
  return flat;
}

/// The release of BuildPrivTreeHistogram(index, domain, epsilon, options,
/// rng), bit for bit, in the flat layout.
FlatSpatialTree FitPrivTreeFlat(const MortonIndex& index, const Box& domain,
                                double epsilon,
                                const PrivTreeHistogramOptions& options,
                                Rng& rng);

/// The release of BuildSimpleTreeHistogram(index, domain, epsilon, options,
/// rng), bit for bit, in the flat layout.
FlatSpatialTree FitSimpleTreeFlat(const MortonIndex& index, const Box& domain,
                                  double epsilon,
                                  const SimpleTreeHistogramOptions& options,
                                  Rng& rng);

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_FLAT_FIT_H_
