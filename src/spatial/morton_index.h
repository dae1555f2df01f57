// A Morton-order (bit-interleaved) index for counting points in dyadic
// cells.
//
// Every point is mapped to a 128-bit key by interleaving the bits of its
// per-dimension integer coordinates in *round-robin* order (level-major,
// dimension-minor): bit k of the key is bit (L-1-k/d) of dimension (k mod d).
// A cell produced by recursively bisecting the root box in the same
// round-robin dimension order corresponds to a key prefix, so the keys of
// its points form one contiguous run of the sorted key array.
//
// This is exactly the family of cells PrivTree's spatial policies generate
// (both the full 2^d bisection and the lower-fanout round-robin splits of
// Figure 8).  The build is linear plus a radix sort: keys are interleaved
// with a byte-wide spread table (one lookup per coordinate byte) and sorted
// in place by an MSD radix sort on 8-bit digits, so the index holds nothing
// but the n keys.  A decomposition then never searches the whole array:
// each cell carries its run [begin, end) (see SpatialCell), and a split
// finds its children's runs by binary search inside the parent's run — the
// cell's point count is end - begin.  The library builders search one
// boundary at a time (LowerBound); the served flat fit searches a whole
// level's boundaries in lockstep groups (LowerBoundGroup), so their cache
// misses overlap.  The runs are exact, data-dependent counts that exist
// only while a tree is being fitted; the builders clear them before
// returning a release.
//
// Memory: the index is the sorted key array alone — 16 B per point, no
// permutation back to the points (counts never need it).  It depends only
// on (points, root), so release::Dataset builds one lazily on the first
// tree fit and shares it with every later fit of the same dataset (see
// release/dataset.h); the builders' PointSet overloads build a private one
// per call.  An index is immutable once built and may be read from many
// threads at once.
#ifndef PRIVTREE_SPATIAL_MORTON_INDEX_H_
#define PRIVTREE_SPATIAL_MORTON_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// 128-bit Morton key.
using MortonKey = unsigned __int128;

/// Sorted Morton keys over a point set, supporting dyadic-prefix counting.
class MortonIndex {
 public:
  /// Builds the index.  Points are discretized to L = kTotalBits/dim bits
  /// per dimension (at most 63); points outside the root box are clamped to
  /// it.  Requires fewer than 2^32 points, and dim <= kMaxDim unless there
  /// are none.
  MortonIndex(const PointSet& points, const Box& root);

  /// Largest dimensionality the key interleave supports.
  static constexpr std::size_t kMaxDim = 8;

  /// Total bit budget across dimensions.  126 instead of 128 keeps
  /// (prefix + 1) << shift from overflowing.
  static constexpr int kTotalBits = 126;

  std::size_t dim() const { return dim_; }
  /// The root box the keys were discretized in.
  const Box& root() const { return root_; }
  /// Bits per dimension (L).
  int levels_per_dim() const { return levels_per_dim_; }
  /// Total usable prefix bits (d · L).
  int max_prefix_bits() const { return max_prefix_bits_; }
  std::size_t size() const { return keys_.size(); }
  /// The keys, sorted ascending.
  const std::vector<MortonKey>& keys() const { return keys_; }

  /// Position of the first key in [begin, end) that is not below the
  /// smallest key starting with the low `bits` bits of `prefix`.  `prefix`
  /// may also be 2^bits, the end of the key space.
  std::uint32_t LowerBound(MortonKey prefix, int bits, std::uint32_t begin,
                           std::uint32_t end) const;

  /// One question for LowerBoundGroup: the position of the first key in
  /// [begin, begin + length) that is not below `key`, or begin + length
  /// when there is none.  `length` must be at least 1.
  struct Probe {
    MortonKey key = 0;
    std::uint32_t begin = 0;
    std::uint32_t length = 1;
  };

  /// How many probes LowerBoundGroup runs together.  Their loads do not
  /// depend on each other, so their cache misses overlap and a group costs
  /// about as much as its longest search; 16 was the best of 8, 16 and 32
  /// for the flat fit (spatial/flat_fit.h, bench_micro BM_FitPrivTreeFlat).
  static constexpr std::size_t kProbeGroup = 16;

  /// Answers `probes` (at most kProbeGroup of them) into out[0..size) with
  /// branchless binary searches that take one step each per round, for as
  /// many rounds as the longest range needs.  Ranges of any lengths mix.
  void LowerBoundGroup(std::span<const Probe> probes,
                       std::uint32_t* out) const;

  /// Number of points whose key starts with the low `bits` bits of
  /// `prefix`, searched over the whole index.  bits == 0 returns size().
  std::size_t CountPrefix(MortonKey prefix, int bits) const;

  /// Computes the key of a single point.
  MortonKey KeyOf(std::span<const double> point) const;

 private:
  // Writes the keys of the n points stored flat at `coords`.
  void Interleave(const double* coords, std::size_t n, MortonKey* keys) const;
  // Interleave for dim() == D: a compile-time dimension lets the per-point
  // loops unroll.  Every d in [1, 8] runs this one function.
  template <int D>
  void InterleaveDim(const double* coords, std::size_t n,
                     MortonKey* keys) const;

  std::size_t dim_;
  int levels_per_dim_;
  int max_prefix_bits_;
  double cells_;               // 2^L.
  std::uint64_t max_coord_;    // 2^L - 1.
  Box root_;
  std::vector<double> inv_width_;  // 1 / side length per dimension.
  std::vector<MortonKey> keys_;    // Sorted ascending.
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_MORTON_INDEX_H_
