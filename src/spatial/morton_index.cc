#include "spatial/morton_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "dp/check.h"

namespace privtree {
namespace {

// kSpread[d][b] moves bit i of the byte b to bit i·d, so one lookup places
// eight coordinate bits on their stride-d key positions.
using SpreadTable = std::array<std::uint64_t, 256>;
using SpreadTables = std::array<SpreadTable, MortonIndex::kMaxDim + 1>;

constexpr SpreadTables MakeSpreadTables() {
  SpreadTables tables{};
  for (std::size_t d = 1; d <= MortonIndex::kMaxDim; ++d) {
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t i = 0; i < 8; ++i) {
        if ((b >> i) & 1) tables[d][b] |= std::uint64_t{1} << (i * d);
      }
    }
  }
  return tables;
}

constexpr SpreadTables kSpread = MakeSpreadTables();

// Buckets this small are finished with a comparison sort.
constexpr std::size_t kRadixCutoff = 64;

// The 8-bit digit of `key` whose lowest bit is key bit `shift`.  The last
// digit of a key whose width is not a multiple of 8 starts below bit 0
// (shift < 0) and is padded with zeros.
inline unsigned Digit(MortonKey key, int shift) {
  return static_cast<std::uint8_t>(shift >= 0 ? key >> shift : key << -shift);
}

// In-place MSD radix sort (American flag sort) of [first, last) on the
// digit at `shift`, then recursively on the lower digits of each bucket.
// Needs no buffer beyond a few 256-entry tables per recursion level.
void RadixSort(MortonKey* first, MortonKey* last, int shift) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n <= kRadixCutoff) {
    std::sort(first, last);
    return;
  }
  std::array<std::uint32_t, 256> count{};
  for (const MortonKey* p = first; p != last; ++p) ++count[Digit(*p, shift)];

  // Clustered data often shares the whole digit: nothing to permute.
  if (count[Digit(*first, shift)] != n) {
    std::array<std::uint32_t, 256> head{};  // Next unfilled slot per bucket.
    std::array<std::uint32_t, 256> tail{};  // One past each bucket.
    std::array<std::uint8_t, 256> unfilled{};  // Buckets with open slots.
    std::size_t num_unfilled = 0;
    std::uint32_t offset = 0;
    for (unsigned b = 0; b < 256; ++b) {
      head[b] = offset;
      offset += count[b];
      tail[b] = offset;
      if (count[b] != 0) {
        unfilled[num_unfilled++] = static_cast<std::uint8_t>(b);
      }
    }
    // Sweep the open slots of every unfilled bucket, swapping each key into
    // the next open slot of its own bucket; every swap fills one slot for
    // good.  Unlike following one displacement cycle at a time, consecutive
    // swaps rarely depend on each other, so they overlap in the pipeline.
    // Once a single bucket is left unfilled, its keys are all in place.
    while (num_unfilled > 1) {
      std::size_t kept = 0;
      for (std::size_t k = 0; k < num_unfilled; ++k) {
        const std::uint8_t b = unfilled[k];
        if (head[b] != tail[b]) unfilled[kept++] = b;
      }
      num_unfilled = kept;
      for (std::size_t k = 0; k < num_unfilled; ++k) {
        const unsigned b = unfilled[k];
        for (std::uint32_t i = head[b], end = tail[b]; i < end; ++i) {
          std::swap(first[i], first[head[Digit(first[i], shift)]++]);
        }
      }
    }
  }

  if (shift <= 0) return;  // Bit 0 was in this digit.
  MortonKey* bucket = first;
  for (unsigned b = 0; b < 256; ++b) {
    if (count[b] > 1) RadixSort(bucket, bucket + count[b], shift - 8);
    bucket += count[b];
  }
}

}  // namespace

MortonIndex::MortonIndex(const PointSet& points, const Box& root)
    : dim_(points.dim()) {
  PRIVTREE_CHECK_EQ(root.dim(), dim_);
  // Key ranges are stored as uint32 positions (SpatialCell::begin/end).
  PRIVTREE_CHECK_LE(points.size(), std::numeric_limits<std::uint32_t>::max());
  levels_per_dim_ = kTotalBits / static_cast<int>(dim_);
  // Ceiling at 63 so per-dimension integer coordinates fit in uint64.
  levels_per_dim_ = std::min(levels_per_dim_, 63);
  max_prefix_bits_ = levels_per_dim_ * static_cast<int>(dim_);
  cells_ = std::ldexp(1.0, levels_per_dim_);
  max_coord_ = (std::uint64_t{1} << levels_per_dim_) - 1;

  root_lo_ = root.lo();
  inv_width_.resize(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    const double width = root.Width(j);
    PRIVTREE_CHECK_GT(width, 0.0);
    inv_width_[j] = 1.0 / width;
  }

  keys_.resize(points.size());
  Interleave(points.coords().data(), keys_.size(), keys_.data());
  // The first digit is the top 8 of the d·L key bits.
  RadixSort(keys_.data(), keys_.data() + keys_.size(), max_prefix_bits_ - 8);
}

MortonKey MortonIndex::KeyOf(std::span<const double> point) const {
  PRIVTREE_CHECK_EQ(point.size(), dim_);
  MortonKey key = 0;
  Interleave(point.data(), 1, &key);
  return key;
}

void MortonIndex::Interleave(const double* coords, std::size_t n,
                             MortonKey* keys) const {
  if (n == 0) return;
  switch (dim_) {
    case 1: return InterleaveDim<1>(coords, n, keys);
    case 2: return InterleaveDim<2>(coords, n, keys);
    case 3: return InterleaveDim<3>(coords, n, keys);
    case 4: return InterleaveDim<4>(coords, n, keys);
    case 5: return InterleaveDim<5>(coords, n, keys);
    case 6: return InterleaveDim<6>(coords, n, keys);
    case 7: return InterleaveDim<7>(coords, n, keys);
    case 8: return InterleaveDim<8>(coords, n, keys);
  }
  PRIVTREE_CHECK_LE(dim_, kMaxDim);
}

template <int D>
void MortonIndex::InterleaveDim(const double* coords, std::size_t n,
                                MortonKey* keys) const {
  const SpreadTable& spread = kSpread[D];
  const int bytes = (levels_per_dim_ + 7) / 8;
  const double* root_lo = root_lo_.data();
  const double* inv_width = inv_width_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* point = coords + i * D;
    std::uint64_t coord[D] = {};
    for (int j = 0; j < D; ++j) {
      double normalized = (point[j] - root_lo[j]) * inv_width[j];
      normalized = std::clamp(normalized, 0.0, 1.0);
      const double scaled = normalized * cells_;
      // Integer-side clamp: `cells - 1` is not representable as a double at
      // 63 bits, so a floating-point clamp would let coord reach 2^L (on the
      // upper face) and set a bit the interleaving never reads.
      std::uint64_t c = static_cast<std::uint64_t>(scaled);
      if (c > max_coord_) c = max_coord_;
      coord[j] = c;
    }
    // Interleave level-major, dimension-minor: coordinate bit b of
    // dimension j is key bit b·D + (D-1-j), so the first D key bits are the
    // most significant bit of each dimension, and so on.  Byte k of every
    // coordinate fills key bits [8k·D, 8(k+1)·D), at most 64 of them:
    // spread each byte, merge the D of them, and append from the top byte
    // down.
    MortonKey key = 0;
    for (int byte = bytes; byte-- > 0;) {
      std::uint64_t chunk = 0;
      for (int j = 0; j < D; ++j) {
        chunk |= spread[(coord[j] >> (8 * byte)) & 0xFF] << (D - 1 - j);
      }
      key = (key << (8 * D)) | chunk;
    }
    keys[i] = key;
  }
}

std::uint32_t MortonIndex::LowerBound(MortonKey prefix, int bits,
                                      std::uint32_t begin,
                                      std::uint32_t end) const {
  PRIVTREE_CHECK_GE(bits, 0);
  PRIVTREE_CHECK_LE(bits, max_prefix_bits_);
  PRIVTREE_CHECK_LE(begin, end);
  PRIVTREE_CHECK_LE(end, keys_.size());
  const MortonKey lo = prefix << (max_prefix_bits_ - bits);
  const auto it =
      std::lower_bound(keys_.begin() + begin, keys_.begin() + end, lo);
  return static_cast<std::uint32_t>(it - keys_.begin());
}

std::size_t MortonIndex::CountPrefix(MortonKey prefix, int bits) const {
  const auto n = static_cast<std::uint32_t>(keys_.size());
  return LowerBound(prefix + 1, bits, 0, n) - LowerBound(prefix, bits, 0, n);
}

}  // namespace privtree
