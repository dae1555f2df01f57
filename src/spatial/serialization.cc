#include "spatial/serialization.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "dp/check.h"
#include "spatial/flat_fit.h"

namespace privtree {

void WriteBox(ByteWriter& out, const Box& box) {
  for (std::size_t j = 0; j < box.dim(); ++j) {
    out.F64(box.lo(j));
    out.F64(box.hi(j));
  }
}

bool ReadBox(ByteReader& in, std::size_t dim, Box* out, std::string* error) {
  std::vector<double> lo(dim), hi(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    if (!in.F64(&lo[j]) || !in.F64(&hi[j])) {
      *error = "truncated box";
      return false;
    }
    if (!(lo[j] <= hi[j])) {  // Also rejects NaN bounds.
      *error = "box with lo > hi";
      return false;
    }
  }
  *out = Box(std::move(lo), std::move(hi));
  return true;
}

namespace {

/// Bitwise double equality: the bound codes must survive ±0 and round-trip
/// exactly, so value comparison (`==`) is not enough.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// 2-bit bound codes of the compressed tree body.
constexpr std::uint32_t kBoundInherit = 0;   // Equals the parent's bound.
constexpr std::uint32_t kBoundMidpoint = 1;  // Equals the parent's midpoint.
constexpr std::uint32_t kBoundExplicit = 2;  // Stored as a raw f64.

// Counts-section modes.
constexpr std::uint32_t kCountsRaw = 0;
constexpr std::uint32_t kCountsQuantized = 1;

/// Appends the counts section: quantized (group-varint multiples) when
/// `quantum` reproduces every count bitwise, raw doubles otherwise.
void WriteCountsSection(ByteWriter& out, std::span<const double> counts,
                        double quantum) {
  if (quantum > 0.0 && std::isfinite(quantum)) {
    std::vector<std::uint64_t> multiples;
    multiples.reserve(counts.size());
    bool exact = true;
    for (const double c : counts) {
      if (!std::isfinite(c)) {
        exact = false;
        break;
      }
      const double k = std::nearbyint(c / quantum);
      if (!(std::fabs(k) < 9007199254740992.0) /* 2^53 */ ||
          !SameBits(k * quantum, c)) {
        exact = false;
        break;
      }
      multiples.push_back(ZigZag64(static_cast<std::int64_t>(k)));
    }
    if (exact) {
      out.U32(kCountsQuantized);
      out.F64(quantum);
      out.Str(PackVarintGB(multiples));
      return;
    }
  }
  out.U32(kCountsRaw);
  out.F64Span(counts);
}

/// Reads either counts-section mode; `n` counts exactly.
Status ReadCountsSection(ByteReader& in, std::uint64_t n,
                         std::vector<double>* counts) {
  std::uint32_t mode = 0;
  if (!in.U32(&mode)) {
    return Status::InvalidArgument("tree body: truncated counts mode");
  }
  if (mode == kCountsRaw) {
    if (n > in.remaining() / 8 || !in.F64Vec(n, counts)) {
      return Status::InvalidArgument("tree body: truncated counts");
    }
    return Status::OK();
  }
  if (mode != kCountsQuantized) {
    return Status::InvalidArgument("tree body: unknown counts mode");
  }
  double quantum = 0.0;
  std::string packed;
  if (!in.F64(&quantum) || !in.Str(&packed)) {
    return Status::InvalidArgument("tree body: truncated quantized counts");
  }
  if (!(quantum > 0.0) || !std::isfinite(quantum)) {
    return Status::InvalidArgument("tree body: bad count quantum");
  }
  std::vector<std::uint64_t> multiples;
  if (!UnpackVarintGB(packed, n, &multiples)) {
    return Status::InvalidArgument("tree body: bad quantized counts");
  }
  counts->reserve(n);
  for (const std::uint64_t zz : multiples) {
    // double(k) is exact (the encoder bounded |k| < 2^53), and k * quantum
    // is the very multiply the encoder verified bitwise.
    counts->push_back(static_cast<double>(UnZigZag64(zz)) * quantum);
  }
  return Status::OK();
}

}  // namespace

void WriteTreeBodyCompressed(ByteWriter& out, std::size_t dim,
                             std::span<const NodeId> parents,
                             std::span<const double> bounds,
                             std::span<const double> counts,
                             double count_quantum) {
  const std::size_t n = parents.size();
  const std::size_t stride = 2 * dim;
  PRIVTREE_CHECK_GT(n, 0u);
  PRIVTREE_CHECK_EQ(bounds.size(), stride * n);
  PRIVTREE_CHECK_EQ(counts.size(), n);
  out.U64(n);
  out.Str(PackDeltaI32(parents));
  for (std::size_t j = 0; j < dim; ++j) {  // The root box, as WriteBox.
    out.F64(bounds[j]);
    out.F64(bounds[dim + j]);
  }

  std::string codes;
  BitWriter bits(&codes);
  std::vector<double> explicit_bounds;
  const auto encode_bound = [&](double v, double inherited, double mid) {
    if (SameBits(v, inherited)) {
      bits.Put(kBoundInherit, 2);
    } else if (SameBits(v, mid)) {
      bits.Put(kBoundMidpoint, 2);
    } else {
      bits.Put(kBoundExplicit, 2);
      explicit_bounds.push_back(v);
    }
  };
  for (std::size_t i = 1; i < n; ++i) {
    const double* lo = bounds.data() + stride * i;
    const double* hi = lo + dim;
    const double* parent_lo = bounds.data() + stride * parents[i];
    const double* parent_hi = parent_lo + dim;
    for (std::size_t j = 0; j < dim; ++j) {
      // The midpoint expression matches Box::BisectDim bit for bit, so
      // bisection trees (all of PrivTree/SimpleTree, the kd-tree's
      // non-split dims) need no explicit bounds at all.
      const double mid = 0.5 * (parent_lo[j] + parent_hi[j]);
      encode_bound(lo[j], parent_lo[j], mid);
      encode_bound(hi[j], parent_hi[j], mid);
    }
  }
  bits.Finish();
  out.Str(codes);
  out.U64(explicit_bounds.size());
  out.F64Span(explicit_bounds);

  WriteCountsSection(out, counts, count_quantum);
}

Status ReadTreeBodyCompressed(ByteReader& in, std::size_t dim,
                              std::vector<NodeId>* parents,
                              std::vector<double>* bounds,
                              std::vector<double>* counts) {
  std::uint64_t nodes = 0;
  if (!in.U64(&nodes) || nodes == 0) {
    return Status::InvalidArgument("tree body: bad node count");
  }
  // Packed parents cost at least one width byte per 128 nodes; reject node
  // counts the remaining payload cannot possibly describe before any
  // count-sized allocation happens.
  if (nodes / 128 + 1 > in.remaining()) {
    return Status::InvalidArgument("tree body: node count exceeds payload");
  }
  std::string packed_parents;
  if (!in.Str(&packed_parents)) {
    return Status::InvalidArgument("tree body: truncated parent links");
  }
  if (!UnpackDeltaI32(packed_parents, nodes, parents)) {
    return Status::InvalidArgument("tree body: bad parent links");
  }
  if ((*parents)[0] != kInvalidNode) {
    return Status::InvalidArgument("tree body: root must have parent -1");
  }
  // Breadth-first order: each parent precedes its node, and parents never
  // decrease, so every node's children are one contiguous id range (the
  // invariant TreeBatchIndex reads the tree by).
  for (std::uint64_t i = 1; i < nodes; ++i) {
    if ((*parents)[i] < 0 || static_cast<std::uint64_t>((*parents)[i]) >= i ||
        (i > 1 && (*parents)[i] < (*parents)[i - 1])) {
      return Status::InvalidArgument("tree body: bad parent at node " +
                                     std::to_string(i));
    }
  }

  Box root_box;
  std::string box_error;
  if (!ReadBox(in, dim, &root_box, &box_error)) {
    return Status::InvalidArgument("tree body: root box: " + box_error);
  }
  for (std::size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(root_box.lo(j)) || !std::isfinite(root_box.hi(j))) {
      return Status::InvalidArgument("tree body: non-finite root bound");
    }
  }

  std::string codes;
  if (!in.Str(&codes)) {
    return Status::InvalidArgument("tree body: truncated bound codes");
  }
  const std::uint64_t code_bits = (nodes - 1) * dim * 2 * 2;
  if (codes.size() != (code_bits + 7) / 8) {
    return Status::InvalidArgument("tree body: bound code size mismatch");
  }
  std::uint64_t explicit_count = 0;
  if (!in.U64(&explicit_count) || explicit_count > in.remaining() / 8) {
    return Status::InvalidArgument("tree body: bad explicit bound count");
  }
  std::vector<double> explicit_bounds;
  if (!in.F64Vec(explicit_count, &explicit_bounds)) {
    return Status::InvalidArgument("tree body: truncated explicit bounds");
  }

  const std::size_t stride = 2 * dim;
  bounds->assign(stride * nodes, 0.0);
  std::copy(root_box.lo().begin(), root_box.lo().end(), bounds->begin());
  std::copy(root_box.hi().begin(), root_box.hi().end(),
            bounds->begin() + dim);
  BitReader bits(codes);
  std::size_t next_explicit = 0;
  for (std::uint64_t i = 1; i < nodes; ++i) {
    double* lo = bounds->data() + stride * i;
    double* hi = lo + dim;
    const double* parent_lo = bounds->data() + stride * (*parents)[i];
    const double* parent_hi = parent_lo + dim;
    for (std::size_t j = 0; j < dim; ++j) {
      const double mid = 0.5 * (parent_lo[j] + parent_hi[j]);
      double* const bound[2] = {&lo[j], &hi[j]};
      const double inherited[2] = {parent_lo[j], parent_hi[j]};
      for (int side = 0; side < 2; ++side) {
        std::uint32_t code = 0;
        if (!bits.Get(2, &code)) {
          return Status::InvalidArgument("tree body: truncated bound codes");
        }
        switch (code) {
          case kBoundInherit:
            *bound[side] = inherited[side];
            break;
          case kBoundMidpoint:
            *bound[side] = mid;
            break;
          case kBoundExplicit:
            if (next_explicit >= explicit_bounds.size()) {
              return Status::InvalidArgument(
                  "tree body: missing explicit bound");
            }
            *bound[side] = explicit_bounds[next_explicit++];
            break;
          default:
            return Status::InvalidArgument("tree body: bad bound code");
        }
      }
      // Every decoded box must be one Box's constructor would accept; a
      // corrupt or crafted file fails with a Status instead.
      if (!std::isfinite(lo[j]) || !std::isfinite(hi[j]) ||
          !(lo[j] <= hi[j])) {
        return Status::InvalidArgument("tree body: bad bounds at node " +
                                       std::to_string(i));
      }
    }
  }
  if (next_explicit != explicit_bounds.size()) {
    return Status::InvalidArgument("tree body: unused explicit bounds");
  }

  return ReadCountsSection(in, nodes, counts);
}

void WriteSpatialTreeBodyCompressed(ByteWriter& out,
                                    const DecompTree<SpatialCell>& tree,
                                    const std::vector<double>& counts,
                                    double count_quantum) {
  const FlatSpatialTree flat = FlattenTree(
      tree, counts, [](const SpatialCell& c) -> const Box& { return c.box; });
  WriteTreeBodyCompressed(out, flat.dim, flat.parent, flat.bounds, flat.count,
                          count_quantum);
}

}  // namespace privtree
