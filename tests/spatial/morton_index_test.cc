#include "spatial/morton_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {
namespace {

PointSet RandomPoints(std::size_t n, std::size_t dim, Rng& rng) {
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

TEST(MortonIndexTest, EmptyPrefixCountsEverything) {
  Rng rng(1);
  const PointSet points = RandomPoints(1000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  EXPECT_EQ(index.CountPrefix(0, 0), 1000u);
}

TEST(MortonIndexTest, FirstLevelPartitions2D) {
  Rng rng(2);
  const PointSet points = RandomPoints(5000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  // The four depth-1 quadrants (2 bits) partition the points.
  std::size_t total = 0;
  for (MortonKey q = 0; q < 4; ++q) total += index.CountPrefix(q, 2);
  EXPECT_EQ(total, 5000u);
}

TEST(MortonIndexTest, PrefixCountsMatchExactBoxCounts2D) {
  Rng rng(3);
  const PointSet points = RandomPoints(20000, 2, rng);
  const Box root = Box::UnitCube(2);
  const MortonIndex index(points, root);
  // Check a concrete depth-2 cell: first split x (bit 1 of prefix level 1),
  // then y.  Bit order is level-major, dim-minor: bits = (x1, y1, x2, y2).
  // Prefix 0b1010 (x1=1, y1=0, x2=1, y2=0) = x ∈ [0.75,1.0), y ∈ [0,0.25).
  const std::size_t morton = index.CountPrefix(0b1010, 4);
  const std::size_t exact =
      points.ExactRangeCount(Box({0.75, 0.0}, {1.0, 0.25}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, PrefixCountsMatchExactBoxCounts4D) {
  Rng rng(4);
  const PointSet points = RandomPoints(30000, 4, rng);
  const MortonIndex index(points, Box::UnitCube(4));
  // Depth-1 cell (4 bits): lower half in dims 0 and 2, upper in 1 and 3.
  // Bit order: (d0, d1, d2, d3) → prefix 0b0101.
  const std::size_t morton = index.CountPrefix(0b0101, 4);
  const std::size_t exact = points.ExactRangeCount(
      Box({0.0, 0.5, 0.0, 0.5}, {0.5, 1.0, 0.5, 1.0}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, ChildrenPartitionParent) {
  Rng rng(5);
  const PointSet points = RandomPoints(10000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  // For a few random prefixes, the two one-bit extensions partition.
  for (int bits = 0; bits <= 20; bits += 4) {
    const MortonKey prefix = 0b1001 & ((MortonKey{1} << bits) - 1);
    const std::size_t parent = index.CountPrefix(prefix, bits);
    const std::size_t left = index.CountPrefix(prefix << 1, bits + 1);
    const std::size_t right =
        index.CountPrefix((prefix << 1) | 1, bits + 1);
    EXPECT_EQ(parent, left + right) << "bits=" << bits;
  }
}

TEST(MortonIndexTest, PointsOutsideRootAreClamped) {
  PointSet points(2);
  const std::vector<double> out_low = {-5.0, -5.0};
  const std::vector<double> out_high = {7.0, 7.0};
  points.Add(out_low);
  points.Add(out_high);
  const MortonIndex index(points, Box::UnitCube(2));
  EXPECT_EQ(index.CountPrefix(0, 0), 2u);
  // Clamped to the corners: prefix 00 (lower-left) and 11 (upper-right).
  EXPECT_EQ(index.CountPrefix(0b00, 2), 1u);
  EXPECT_EQ(index.CountPrefix(0b11, 2), 1u);
}

TEST(MortonIndexTest, NonUnitRootBoxCountsMatchGeometry) {
  Rng rng(9);
  const Box root({-10.0, 5.0}, {30.0, 6.0});
  PointSet points(2);
  double p[2];
  for (int i = 0; i < 20000; ++i) {
    p[0] = -10.0 + 40.0 * rng.NextDouble();
    p[1] = 5.0 + 1.0 * rng.NextDouble();
    points.Add(p);
  }
  const MortonIndex index(points, root);
  // Depth-2 cell: x-upper then y-lower halves → prefix 0b10 over the
  // first split of x, then y.  Verify against the geometric box
  // [10, 30) x [5, 5.5).
  const std::size_t morton = index.CountPrefix(0b10, 2);
  const std::size_t exact =
      points.ExactRangeCount(Box({10.0, 5.0}, {30.0, 5.5}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, LevelsPerDimBudget) {
  Rng rng(6);
  const PointSet p2 = RandomPoints(10, 2, rng);
  const MortonIndex i2(p2, Box::UnitCube(2));
  EXPECT_EQ(i2.levels_per_dim(), 63);
  EXPECT_EQ(i2.max_prefix_bits(), 126);
  const PointSet p4 = RandomPoints(10, 4, rng);
  const MortonIndex i4(p4, Box::UnitCube(4));
  EXPECT_EQ(i4.levels_per_dim(), 31);
  EXPECT_EQ(i4.max_prefix_bits(), 124);
}

TEST(MortonIndexTest, DeepPrefixOfTightClusterKeepsCount) {
  // 1000 identical points stay together arbitrarily deep.
  PointSet points(2);
  const std::vector<double> p = {0.3, 0.3};
  for (int i = 0; i < 1000; ++i) points.Add(p);
  const MortonIndex index(points, Box::UnitCube(2));
  const MortonKey key = index.KeyOf(p);
  for (int bits = 0; bits <= index.max_prefix_bits(); bits += 6) {
    const MortonKey prefix = key >> (index.max_prefix_bits() - bits);
    EXPECT_EQ(index.CountPrefix(prefix, bits), 1000u) << bits;
  }
}

// Reference key: the same discretization as the index, interleaved one bit
// at a time (level-major, dimension-minor).
MortonKey ReferenceKey(std::span<const double> point, const Box& root,
                       int levels) {
  const std::size_t dim = root.dim();
  const double cells = std::ldexp(1.0, levels);
  const std::uint64_t max_coord = (std::uint64_t{1} << levels) - 1;
  std::vector<std::uint64_t> coord(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    const double normalized = std::clamp(
        (point[j] - root.lo(j)) * (1.0 / root.Width(j)), 0.0, 1.0);
    const double scaled = normalized * cells;
    std::uint64_t c = static_cast<std::uint64_t>(scaled);
    if (scaled >= cells || c > max_coord) c = max_coord;
    coord[j] = c;
  }
  MortonKey key = 0;
  for (int level = 0; level < levels; ++level) {
    for (std::size_t j = 0; j < dim; ++j) {
      key = (key << 1) | ((coord[j] >> (levels - 1 - level)) & 1u);
    }
  }
  return key;
}

// Random points plus the edge cases of the discretization: the lower and
// upper faces of the root, the largest double below each upper bound, and
// points outside the root on both sides.
PointSet EdgePoints(const Box& root, std::size_t n, Rng& rng) {
  const std::size_t dim = root.dim();
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double lo = root.lo(j);
      const double hi = root.hi(j);
      switch (rng.NextBounded(6)) {
        case 0: p[j] = lo; break;
        case 1: p[j] = hi; break;
        case 2: p[j] = std::nextafter(hi, lo); break;
        case 3: p[j] = lo - 1.0 - rng.NextDouble(); break;
        case 4: p[j] = hi + 1e6 * rng.NextDouble(); break;
        default: p[j] = lo + (hi - lo) * rng.NextDouble(); break;
      }
    }
    points.Add(p);
  }
  return points;
}

TEST(MortonIndexTest, KeyOfMatchesBitByBitReferenceForEveryDimension) {
  Rng rng(10);
  for (std::size_t dim = 1; dim <= 8; ++dim) {
    std::vector<double> lo(dim), hi(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = -3.0 + j;
      hi[j] = lo[j] + 0.5 + 2.0 * rng.NextDouble();
    }
    const Box root(lo, hi);
    const PointSet points = EdgePoints(root, 2000, rng);
    const MortonIndex index(points, root);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(index.KeyOf(points.point(i)),
                ReferenceKey(points.point(i), root, index.levels_per_dim()))
          << "dim=" << dim << " point " << i;
    }
  }
}

TEST(MortonIndexTest, SixtyThreeLevelCapKeepsTopCoordinatesInRange) {
  // d = 1 and d = 2 both hit the 63-level cap.  At 63 bits, points on the
  // upper face scale to 2^63 and must clamp to 2^63 - 1 (all key bits set);
  // the largest double below the face stays just under it.
  for (std::size_t dim : {1u, 2u}) {
    const Box root = Box::UnitCube(dim);
    PointSet points(dim);
    const std::vector<double> top(dim, std::nextafter(1.0, 0.0));
    const std::vector<double> face(dim, 1.0);
    points.Add(top);
    points.Add(face);
    const MortonIndex index(points, root);
    ASSERT_EQ(index.levels_per_dim(), 63);
    const MortonKey all_ones =
        (MortonKey{1} << index.max_prefix_bits()) - 1;
    EXPECT_EQ(index.KeyOf(face), all_ones) << dim;
    EXPECT_LT(index.KeyOf(top), all_ones) << dim;
    EXPECT_EQ(index.KeyOf(top), ReferenceKey(top, root, 63)) << dim;
    EXPECT_EQ(index.CountPrefix(1, 1), 2u) << dim;
  }
}

// The index's keys must be exactly the sorted keys of its points.
void ExpectSortedKeys(const PointSet& points, const Box& root) {
  const MortonIndex index(points, root);
  std::vector<MortonKey> expected;
  for (std::size_t i = 0; i < points.size(); ++i) {
    expected.push_back(index.KeyOf(points.point(i)));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_TRUE(index.keys() == expected) << "n=" << points.size();
}

TEST(MortonIndexTest, SortedKeysMatchComparisonSortOnAdversarialInputs) {
  Rng rng(11);
  // n = 0 and n = 1.
  ExpectSortedKeys(PointSet(2), Box::UnitCube(2));
  ExpectSortedKeys(RandomPoints(1, 2, rng), Box::UnitCube(2));
  // All-duplicate points: every digit of every key is shared.
  PointSet same(2);
  const std::vector<double> p = {0.123, 0.456};
  for (int i = 0; i < 5000; ++i) same.Add(p);
  ExpectSortedKeys(same, Box::UnitCube(2));
  // Every point clamped to one corner (all key bits set).
  PointSet corner(3);
  const std::vector<double> far = {9.0, 9.0, 9.0};
  for (int i = 0; i < 3000; ++i) corner.Add(far);
  ExpectSortedKeys(corner, Box::UnitCube(3));
  // d = 8: 15 levels, 120-bit keys.
  ExpectSortedKeys(RandomPoints(20000, 8, rng), Box::UnitCube(8));
  // More than 64 keys that differ only in their lowest bits: the sort must
  // recurse through every digit down to bit 0.
  for (std::size_t dim : {1u, 2u}) {
    PointSet low_bits(dim);
    std::vector<double> q(dim);
    for (int copy = 0; copy < 3; ++copy) {
      for (int k = 0; k < 64; ++k) {
        for (std::size_t j = 0; j < dim; ++j) {
          q[j] = std::ldexp(static_cast<double>((k >> (3 * j)) & 7), -63);
        }
        low_bits.Add(q);
      }
    }
    ExpectSortedKeys(low_bits, Box::UnitCube(dim));
  }
  // Bucket sizes on both sides of the comparison-sort cutoff.
  for (std::size_t n : {63u, 64u, 65u, 257u}) {
    ExpectSortedKeys(RandomPoints(n, 2, rng), Box::UnitCube(2));
  }
  // Every dimension, with clustered, clamped and boundary points mixed in.
  for (std::size_t dim = 1; dim <= 8; ++dim) {
    ExpectSortedKeys(EdgePoints(Box::UnitCube(dim), 4000, rng),
                     Box::UnitCube(dim));
  }
}

TEST(MortonIndexTest, SortedKeysMatchComparisonSortOnClusteredData) {
  // Tight clusters share long key prefixes, so the radix sort recurses
  // through many digits before buckets fall under the cutoff.
  Rng rng(12);
  PointSet points(2);
  std::vector<double> p(2);
  for (int i = 0; i < 100000; ++i) {
    const double spread = i % 3 == 0 ? 1e-9 : (i % 3 == 1 ? 1e-4 : 1.0);
    for (auto& x : p) x = 0.3 + spread * rng.NextDouble();
    points.Add(p);
  }
  ExpectSortedKeys(points, Box::UnitCube(2));
}

TEST(MortonIndexTest, LowerBoundSearchesOnlyTheGivenRange) {
  Rng rng(13);
  const PointSet points = RandomPoints(5000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  const auto n = static_cast<std::uint32_t>(index.size());
  // The quadrant boundaries over the whole index, then inside the range of
  // quadrant 0b01: the searches agree wherever the ranges overlap.
  const std::uint32_t q1 = index.LowerBound(0b01, 2, 0, n);
  const std::uint32_t q2 = index.LowerBound(0b10, 2, 0, n);
  EXPECT_EQ(index.LowerBound(0b0110, 4, q1, q2),
            index.LowerBound(0b0110, 4, 0, n));
  EXPECT_EQ(index.LowerBound(0b01, 2, q1, q2), q1);
  EXPECT_EQ(index.LowerBound(0b10, 2, q1, q2), q2);
  // A key beyond the range clamps to its end.
  EXPECT_EQ(index.LowerBound(0b11, 2, q1, q2), q2);
  // 2^bits is the end of the key space.
  EXPECT_EQ(index.LowerBound(0b100, 2, 0, n), n);
}

/// std::lower_bound over the probe's range: LowerBoundGroup's oracle.
std::uint32_t OracleLowerBound(const MortonIndex& index,
                               const MortonIndex::Probe& probe) {
  const auto first = index.keys().begin() + probe.begin;
  return static_cast<std::uint32_t>(
      std::lower_bound(first, first + probe.length, probe.key) -
      index.keys().begin());
}

void ExpectGroupMatchesOracle(const MortonIndex& index,
                              const std::vector<MortonIndex::Probe>& probes) {
  std::vector<std::uint32_t> found(probes.size());
  index.LowerBoundGroup(probes, found.data());
  for (std::size_t j = 0; j < probes.size(); ++j) {
    EXPECT_EQ(found[j], OracleLowerBound(index, probes[j]))
        << "probe " << j << " begin " << probes[j].begin << " length "
        << probes[j].length;
  }
}

TEST(MortonIndexTest, LowerBoundGroupMatchesStdLowerBound) {
  // Coarse coordinates give runs of equal keys.
  Rng rng(14);
  PointSet points(2);
  std::vector<double> p(2);
  for (int i = 0; i < 20000; ++i) {
    p[0] = std::floor(rng.NextDouble() * 64) / 64;
    p[1] = std::floor(rng.NextDouble() * 64) / 64;
    points.Add(p);
  }
  const MortonIndex index(points, Box::UnitCube(2));
  const std::vector<MortonKey>& keys = index.keys();
  const auto n = static_cast<std::uint32_t>(keys.size());
  const auto pick = [&](std::uint32_t bound) {
    return static_cast<std::uint32_t>(rng.NextDouble() * bound);
  };
  for (int group = 0; group < 2000; ++group) {
    std::vector<MortonIndex::Probe> probes(1 + pick(16));
    for (MortonIndex::Probe& probe : probes) {
      probe.begin = pick(n);
      // Every fourth range has length 1.
      probe.length = pick(4) == 0 ? 1 : 1 + pick(n - probe.begin);
      const MortonKey key = keys[pick(n)];
      switch (pick(5)) {
        case 0: probe.key = key; break;      // Equal to a key.
        case 1: probe.key = key + 1; break;  // Just above one.
        case 2: probe.key = keys[probe.begin]; break;
        case 3: probe.key = keys.back() + 1; break;  // Past the last key.
        default: probe.key = 0; break;
      }
    }
    ExpectGroupMatchesOracle(index, probes);
  }
}

TEST(MortonIndexTest, LowerBoundGroupMixesOneMillionKeysWithLengthOne) {
  Rng rng(15);
  const PointSet points = RandomPoints(1000000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  const std::vector<MortonKey>& keys = index.keys();
  const auto n = static_cast<std::uint32_t>(keys.size());
  for (const MortonKey key : {keys[0], keys[n / 3], keys[n / 3] + 1,
                              keys[n - 1], keys[n - 1] + 1}) {
    std::vector<MortonIndex::Probe> probes(MortonIndex::kProbeGroup);
    probes[0] = {key, 0, n};
    for (std::size_t j = 1; j < probes.size(); ++j) {
      // Length-1 ranges whose key is below, equal to or above the probe's.
      const auto begin = static_cast<std::uint32_t>(j * (n / 17));
      probes[j] = {keys[begin] + (j % 3) - 1, begin, 1};
    }
    probes.back() = {key, n - 1, 1};
    ExpectGroupMatchesOracle(index, probes);
  }
}

}  // namespace
}  // namespace privtree
