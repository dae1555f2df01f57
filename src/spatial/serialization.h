// Binary codecs for released spatial synopses, used inside the synopsis
// envelope (see release/serialization.h for the envelope spec).
//
// A SpatialHistogram is the *output* of the privacy mechanism; persisting
// and re-loading it is pure post-processing.  Morton metadata is
// intentionally not persisted: a loaded synopsis can answer queries but is
// decoupled from the (sensitive) source data.
#ifndef PRIVTREE_SPATIAL_SERIALIZATION_H_
#define PRIVTREE_SPATIAL_SERIALIZATION_H_

#include <span>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "core/tree.h"
#include "dp/status.h"
#include "spatial/spatial_histogram.h"

namespace privtree {

/// Appends a box as dim() (lo, hi) pairs; the dimension is carried by the
/// enclosing record.
void WriteBox(ByteWriter& out, const Box& box);

/// Reads a `dim`-dimensional box; returns false (with `*error` set) on
/// truncation or bounds with !(lo <= hi) — NaNs fail that check too.
bool ReadBox(ByteReader& in, std::size_t dim, Box* out, std::string* error);

/// The compressed tree body of the tree-family envelopes.  Decomposition
/// trees are highly redundant: every child bound either equals the parent's
/// bound or the parent's midpoint (`0.5 * (lo + hi)`, the BisectDim
/// expression), so boxes shrink to a 2-bit code per bound (0 = inherit,
/// 1 = midpoint, 2 = explicit f64 — matched *bitwise*, so decoding is exact
/// by construction) on top of delta-bit-packed parent links (core/codec.h).
/// Layout:
///
///   u64  node count n
///   str  packed parent ids            (PackDeltaI32, id order, root = -1)
///   box  root box                     (raw f64 pairs)
///   str  bound codes                  (nodes 1..n-1 × dim × {lo, hi},
///                                      2 bits each, LSB-first)
///   u64  explicit bound count
///   f64… explicit bounds              (in code-stream order)
///   u32  counts mode                  (0 = raw, 1 = quantized)
///   mode 0:  f64 × n  released counts
///   mode 1:  f64 quantum, str packed counts (PackVarintGB of
///            zigzag(count / quantum)); written only when every count is
///            *bitwise* reproducible as multiple × quantum (the
///            `count_quantum` knob quantized them at Fit), else mode 0
///
/// Reading validates everything (parents, code stream size, bound
/// finiteness and ordering, count sections) and returns bounds and counts
/// bit-for-bit equal to what was written.
///
/// The codec works on the flat layout of release::TreeBatchIndex:
/// `parents[v]` (kInvalidNode for the root, node 0; otherwise a smaller
/// id, and non-decreasing in v: breadth-first order, so each node's
/// children are consecutive ids; reading refuses any other order),
/// node-major `bounds` (lo[0..dim) then hi[0..dim) per node) and one
/// count per node.  Writing requires at least one node.  On an error the
/// read leaves its outputs in an unspecified state.
void WriteTreeBodyCompressed(ByteWriter& out, std::size_t dim,
                             std::span<const NodeId> parents,
                             std::span<const double> bounds,
                             std::span<const double> counts,
                             double count_quantum = 0.0);
Status ReadTreeBodyCompressed(ByteReader& in, std::size_t dim,
                              std::vector<NodeId>* parents,
                              std::vector<double>* bounds,
                              std::vector<double>* counts);

/// Adapter for the library's SpatialHistogram, the tests' reference
/// encoder: the same bytes as the flat codec on the flattened tree.  Every
/// served release, kdtree's included, is encoded flat at fit.
void WriteSpatialTreeBodyCompressed(ByteWriter& out,
                                    const DecompTree<SpatialCell>& tree,
                                    const std::vector<double>& counts,
                                    double count_quantum = 0.0);

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_SERIALIZATION_H_
