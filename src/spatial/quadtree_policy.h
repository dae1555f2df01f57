// Spatial decomposition policies: the quadtree-style splits used by the
// paper (Section 3: β = 2^d full bisection) and the round-robin lower-fanout
// variants of Appendix C / Figure 8 (β = 2^i with i < d, bisecting i
// dimensions per split, cycled round-robin).
#ifndef PRIVTREE_SPATIAL_QUADTREE_POLICY_H_
#define PRIVTREE_SPATIAL_QUADTREE_POLICY_H_

#include <cstdint>
#include <vector>

#include "core/tree.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"

namespace privtree {

/// The sub-domain descriptor used by spatial decompositions: the geometric
/// box plus its dyadic address (Morton prefix).
struct SpatialCell {
  Box box;
  MortonKey prefix = 0;  ///< Low `bits` bits hold the dyadic address.
  int bits = 0;          ///< Number of meaningful bits in `prefix`.
  /// Fit-time only: the cell's keys are MortonIndex::keys()[begin, end).
  /// These are exact counts, so every builder clears them (ClearKeyRanges)
  /// before it releases a tree; released cells hold begin == end == 0.
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};
// The range fields sit in the padding after `bits`: cells stay 80 bytes.
static_assert(sizeof(SpatialCell) == 80);

/// Zeroes every node's fit-time key range.
void ClearKeyRanges(DecompTree<SpatialCell>* tree);

/// DecompositionPolicy over boxes; Score is the exact point count of the
/// cell, read from the key range its parent's Split assigned it.
class QuadtreePolicy {
 public:
  using Domain = SpatialCell;

  /// `index` must outlive the policy.  `dims_per_split` (the i of β = 2^i)
  /// must be in [1, dim]; dims_per_split == dim is the standard quadtree.
  QuadtreePolicy(const MortonIndex& index, Box root, int dims_per_split);

  Domain Root() const;

  /// Structural splittability: enough Morton bits remain for one more
  /// split.  With 126 total bits this allows depth 63 for 2-d data —
  /// unreachable in practice (see PrivTreeParams::max_depth).
  bool CanSplit(const Domain& cell) const;

  /// 2^i children: all sign combinations of bisecting the next i
  /// round-robin dimensions.  Child order matches Morton bit order, and the
  /// children's key ranges tile the parent's.
  std::vector<Domain> Split(const Domain& cell) const;

  /// Exact point count c(v) of the cell (sensitivity 1, monotonic).
  double Score(const Domain& cell) const;

  int fanout() const { return 1 << dims_per_split_; }
  int dims_per_split() const { return dims_per_split_; }

 private:
  const MortonIndex& index_;
  Box root_;
  int dims_per_split_;
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_QUADTREE_POLICY_H_
