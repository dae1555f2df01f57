// The served fit kernels FitPrivTreeFlat / FitSimpleTreeFlat against their
// oracles, BuildPrivTreeHistogram (RunPrivTree<QuadtreePolicy> +
// ReleaseLeafCounts) and BuildSimpleTreeHistogram (RunSimpleTree): same
// parents, bounds, counts and stats, bit for bit, and the same payload
// bytes, over every dimensionality the index supports, every
// dims_per_split, and the degenerate inputs — no points, all points on one
// spot (the decomposition stops at QuadtreePolicy::CanSplit) and a depth
// cap of 1.  Both sides draw from copies of one Rng, so any difference in
// draw order shows as a different tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "dp/rng.h"
#include "obs/metrics.h"
#include "spatial/box.h"
#include "spatial/flat_fit.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

PointSet SkewedPoints(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = j % 2 == 0 ? rng.NextDouble() * rng.NextDouble()
                        : rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

PointSet DuplicatePoints(std::size_t n, std::size_t dim) {
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t j = 0; j < dim; ++j) p[j] = 0.3 + 0.05 * j;
  for (std::size_t i = 0; i < n; ++i) points.Add(p);
  return points;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The flat tree equals the oracle's tree, counts and stats bit for bit.
void ExpectSameRelease(const FlatSpatialTree& flat,
                       const SpatialHistogram& oracle) {
  ASSERT_EQ(flat.size(), oracle.tree.size());
  ASSERT_EQ(flat.count.size(), oracle.count.size());
  const std::size_t dim = oracle.tree.node(0).domain.box.dim();
  ASSERT_EQ(flat.dim, dim);
  ASSERT_EQ(flat.bounds.size(), 2 * dim * flat.size());
  for (std::size_t v = 0; v < flat.size(); ++v) {
    const auto& node = oracle.tree.node(static_cast<NodeId>(v));
    ASSERT_EQ(flat.parent[v], node.parent) << "node " << v;
    for (std::size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(Bits(flat.bounds[2 * dim * v + j]),
                Bits(node.domain.box.lo(j)))
          << "node " << v << " lo " << j;
      ASSERT_EQ(Bits(flat.bounds[2 * dim * v + dim + j]),
                Bits(node.domain.box.hi(j)))
          << "node " << v << " hi " << j;
    }
    ASSERT_EQ(Bits(flat.count[v]), Bits(oracle.count[v])) << "node " << v;
  }
  EXPECT_EQ(flat.stats.nodes_visited, oracle.stats.nodes_visited);
  EXPECT_EQ(flat.stats.nodes_split, oracle.stats.nodes_split);
  EXPECT_EQ(flat.stats.height, oracle.stats.height);
}

/// The flat codec on the kernel's arrays writes the adapter's bytes on the
/// oracle tree.
void ExpectSamePayload(const FlatSpatialTree& flat,
                       const SpatialHistogram& oracle, double quantum) {
  std::string from_flat, from_oracle;
  ByteWriter flat_writer(&from_flat);
  WriteTreeBodyCompressed(flat_writer, flat.dim, flat.parent, flat.bounds,
                          flat.count, quantum);
  ByteWriter oracle_writer(&from_oracle);
  WriteSpatialTreeBodyCompressed(oracle_writer, oracle.tree, oracle.count,
                                 quantum);
  EXPECT_EQ(from_flat, from_oracle);
}

void ExpectPrivTreeParity(const PointSet& points, double epsilon,
                          const PrivTreeHistogramOptions& options,
                          std::uint64_t seed) {
  const Box domain = Box::UnitCube(points.dim());
  const MortonIndex index(points, domain);
  Rng flat_rng(seed), oracle_rng(seed);
  const FlatSpatialTree flat =
      FitPrivTreeFlat(index, domain, epsilon, options, flat_rng);
  const SpatialHistogram oracle =
      BuildPrivTreeHistogram(index, domain, epsilon, options, oracle_rng);
  ExpectSameRelease(flat, oracle);
  ExpectSamePayload(flat, oracle, 0.0);
  // Both consumed the same draws.
  EXPECT_EQ(flat_rng.Next(), oracle_rng.Next());
}

void ExpectSimpleTreeParity(const PointSet& points, double epsilon,
                            const SimpleTreeHistogramOptions& options,
                            std::uint64_t seed) {
  const Box domain = Box::UnitCube(points.dim());
  const MortonIndex index(points, domain);
  Rng flat_rng(seed), oracle_rng(seed);
  const FlatSpatialTree flat =
      FitSimpleTreeFlat(index, domain, epsilon, options, flat_rng);
  const SpatialHistogram oracle =
      BuildSimpleTreeHistogram(index, domain, epsilon, options, oracle_rng);
  ExpectSameRelease(flat, oracle);
  ExpectSamePayload(flat, oracle, 0.0);
  EXPECT_EQ(flat_rng.Next(), oracle_rng.Next());
}

TEST(FlatFitTest, PrivTreeMatchesOracleForEveryDimAndSplitWidth) {
  for (const std::size_t dim : {1, 2, 3, 4, 8}) {
    const PointSet points = SkewedPoints(1500, dim, 100 + dim);
    for (int dims = 0; dims <= static_cast<int>(dim); ++dims) {
      for (const double epsilon : {0.3, 4.0}) {
        SCOPED_TRACE("dim=" + std::to_string(dim) +
                     " dims_per_split=" + std::to_string(dims) +
                     " eps=" + std::to_string(epsilon));
        PrivTreeHistogramOptions options;
        options.dims_per_split = dims;
        ExpectPrivTreeParity(points, epsilon, options, 7 * dim + dims);
      }
    }
  }
}

TEST(FlatFitTest, SimpleTreeMatchesOracleForEveryDimAndSplitWidth) {
  for (const std::size_t dim : {1, 2, 3, 4, 8}) {
    const PointSet points = SkewedPoints(1500, dim, 200 + dim);
    for (int dims = 0; dims <= static_cast<int>(dim); ++dims) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " dims_per_split=" + std::to_string(dims));
      SimpleTreeHistogramOptions options;
      options.dims_per_split = dims;
      // Keep the complete tree near 2^12 leaves at any fanout.
      const int bits = dims > 0 ? dims : static_cast<int>(dim);
      options.height = std::min(5, 1 + 12 / bits);
      options.theta = 5.0;
      ExpectSimpleTreeParity(points, 2.0, options, 11 * dim + dims);
    }
  }
}

/// One call of `fit` (returning its stats) moves each shape histogram's
/// count by exactly 1, by the value the stats report.
template <typename Fit>
void ExpectShapeObservedOnce(Fit fit) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram& nodes = registry.GetHistogram("spatial.tree_nodes");
  obs::Histogram& splits = registry.GetHistogram("spatial.nodes_split");
  obs::Histogram& height = registry.GetHistogram("spatial.tree_height");
  const std::uint64_t nodes_count = nodes.Count();
  const std::uint64_t nodes_sum = nodes.SumMicros();
  const std::uint64_t splits_count = splits.Count();
  const std::uint64_t splits_sum = splits.SumMicros();
  const std::uint64_t height_count = height.Count();
  const std::uint64_t height_sum = height.SumMicros();
  const DecompositionStats stats = fit();
  ASSERT_GT(stats.nodes_split, 0u);
  EXPECT_EQ(nodes.Count() - nodes_count, 1u);
  EXPECT_EQ(nodes.SumMicros() - nodes_sum, stats.nodes_visited);
  EXPECT_EQ(splits.Count() - splits_count, 1u);
  EXPECT_EQ(splits.SumMicros() - splits_sum, stats.nodes_split);
  EXPECT_EQ(height.Count() - height_count, 1u);
  EXPECT_EQ(height.SumMicros() - height_sum,
            static_cast<std::uint64_t>(stats.height));
}

TEST(FlatFitTest, EachFitObservesItsShapeOnce) {
  const PointSet points = SkewedPoints(3000, 2, 0x5A);
  const Box domain = Box::UnitCube(2);
  const MortonIndex index(points, domain);
  ExpectShapeObservedOnce([&] {
    Rng rng(0x5B);
    return FitPrivTreeFlat(index, domain, 1.0, {}, rng).stats;
  });
  ExpectShapeObservedOnce([&] {
    Rng rng(0x5C);
    return FitSimpleTreeFlat(index, domain, 1.0, {}, rng).stats;
  });
}

TEST(FlatFitTest, EmptyDatasetMatchesOracle) {
  for (const std::size_t dim : {1, 2, 3}) {
    const PointSet empty(dim);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ExpectPrivTreeParity(empty, 1.0, {}, seed);
      ExpectSimpleTreeParity(empty, 1.0, {}, seed);
    }
  }
}

TEST(FlatFitTest, DuplicatePointsStopAtCanSplit) {
  for (const std::size_t dim : {1, 2, 3}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const PointSet points = DuplicatePoints(500, dim);
    const MortonIndex index(points, Box::UnitCube(dim));
    const std::int32_t deepest =
        index.max_prefix_bits() / static_cast<int>(dim);
    // A large ε keeps the occupied chain splitting until no Morton bits
    // are left, so the tree ends at the structural limit.
    PrivTreeHistogramOptions priv;
    Rng rng(3);
    EXPECT_EQ(FitPrivTreeFlat(index, Box::UnitCube(dim), 60.0, priv, rng)
                  .stats.height,
              deepest);
    ExpectPrivTreeParity(points, 60.0, priv, 3);

    // θ between 0 and the count: only the occupied chain splits.
    SimpleTreeHistogramOptions simple;
    simple.height = 130;
    simple.theta = 400.0;
    Rng simple_rng(4);
    EXPECT_EQ(FitSimpleTreeFlat(index, Box::UnitCube(dim), 5000.0, simple,
                                simple_rng)
                  .stats.height,
              deepest);
    ExpectSimpleTreeParity(points, 5000.0, simple, 4);
  }
}

/// Whether some level of `flat` holds both a split node around the point
/// `cluster` and a split node with none of `points` in its box.
bool LevelMixesClusterWithSplitEmptyNode(const FlatSpatialTree& flat,
                                         const PointSet& points,
                                         const std::vector<double>& cluster) {
  const std::size_t dim = flat.dim;
  const auto contains = [&](std::size_t v, std::span<const double> p) {
    for (std::size_t j = 0; j < dim; ++j) {
      if (p[j] < flat.bounds[2 * dim * v + j] ||
          p[j] > flat.bounds[2 * dim * v + dim + j]) {
        return false;
      }
    }
    return true;
  };
  std::vector<int> depth(flat.size(), 0);
  std::vector<bool> split(flat.size(), false);
  for (std::size_t v = 1; v < flat.size(); ++v) {
    depth[v] = depth[static_cast<std::size_t>(flat.parent[v])] + 1;
    split[static_cast<std::size_t>(flat.parent[v])] = true;
  }
  std::vector<bool> cluster_split, empty_split;
  for (std::size_t v = 0; v < flat.size(); ++v) {
    if (!split[v]) continue;
    const auto d = static_cast<std::size_t>(depth[v]);
    cluster_split.resize(std::max(cluster_split.size(), d + 1));
    empty_split.resize(std::max(empty_split.size(), d + 1));
    if (contains(v, cluster)) cluster_split[d] = true;
    bool empty = true;
    for (std::size_t i = 0; i < points.size() && empty; ++i) {
      empty = !contains(v, points.point(i));
    }
    if (empty) empty_split[d] = true;
  }
  for (std::size_t d = 0; d < cluster_split.size(); ++d) {
    if (cluster_split[d] && empty_split[d]) return true;
  }
  return false;
}

TEST(FlatFitTest, LevelMixingDuplicateClusterAndSplitEmptyNodesMatchesOracle) {
  // 3000 copies of one point among 300 spread ones: the cluster's chain of
  // cells is deep, and its empty siblings sometimes split, so one level's
  // searches mix the cluster's long key range with nodes that need none.
  const std::vector<double> cluster = {0.3, 0.35};
  PointSet points = SkewedPoints(300, 2, 12);
  for (int i = 0; i < 3000; ++i) points.Add(cluster);
  const Box domain = Box::UnitCube(2);
  const MortonIndex index(points, domain);
  int priv_mixed = 0, simple_mixed = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectPrivTreeParity(points, 1.0, {}, seed);
    Rng priv_rng(seed);
    priv_mixed += LevelMixesClusterWithSplitEmptyNode(
        FitPrivTreeFlat(index, domain, 1.0, {}, priv_rng), points, cluster);

    // θ = 0: an empty node splits on about half of its draws.
    SimpleTreeHistogramOptions simple;
    simple.height = 9;
    simple.theta = 0.0;
    ExpectSimpleTreeParity(points, 1.0, simple, seed);
    Rng simple_rng(seed);
    simple_mixed += LevelMixesClusterWithSplitEmptyNode(
        FitSimpleTreeFlat(index, domain, 1.0, simple, simple_rng), points,
        cluster);
  }
  EXPECT_GT(priv_mixed, 0);
  EXPECT_GT(simple_mixed, 0);
}

TEST(FlatFitTest, MaxDepthOneMatchesOracle) {
  const PointSet points = SkewedPoints(3000, 2, 5);
  PrivTreeHistogramOptions options;
  options.max_depth = 1;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    ExpectPrivTreeParity(points, 2.0, options, seed);
  }
  const MortonIndex index(points, Box::UnitCube(2));
  Rng rng(0);
  EXPECT_LE(FitPrivTreeFlat(index, Box::UnitCube(2), 2.0, options, rng)
                .stats.height,
            1);
}

TEST(FlatFitTest, QuantizedPayloadMatchesOracle) {
  const PointSet points = SkewedPoints(4000, 2, 6);
  const Box domain = Box::UnitCube(2);
  const MortonIndex index(points, domain);
  for (const double quantum : {0.5, 4.0}) {
    Rng flat_rng(9), oracle_rng(9);
    FlatSpatialTree flat = FitPrivTreeFlat(index, domain, 1.0, {}, flat_rng);
    SpatialHistogram oracle =
        BuildPrivTreeHistogram(index, domain, 1.0, {}, oracle_rng);
    for (double& c : flat.count) c = QuantizeCount(c, quantum);
    for (double& c : oracle.count) c = QuantizeCount(c, quantum);
    ExpectSamePayload(flat, oracle, quantum);
  }
}

TEST(FlatFitTest, FlatCodecRoundTripsBitForBit) {
  const PointSet points = SkewedPoints(2000, 3, 8);
  const Box domain = Box::UnitCube(3);
  const MortonIndex index(points, domain);
  Rng rng(10);
  PrivTreeHistogramOptions options;
  options.dims_per_split = 2;
  const FlatSpatialTree flat =
      FitPrivTreeFlat(index, domain, 1.0, options, rng);
  std::string bytes;
  ByteWriter writer(&bytes);
  WriteTreeBodyCompressed(writer, flat.dim, flat.parent, flat.bounds,
                          flat.count);
  ByteReader reader(bytes);
  std::vector<NodeId> parents;
  std::vector<double> bounds, counts;
  ASSERT_TRUE(
      ReadTreeBodyCompressed(reader, 3, &parents, &bounds, &counts).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(parents, flat.parent);
  ASSERT_EQ(bounds.size(), flat.bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    ASSERT_EQ(Bits(bounds[i]), Bits(flat.bounds[i]));
  }
  ASSERT_EQ(counts.size(), flat.count.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(Bits(counts[i]), Bits(flat.count[i]));
  }
}

}  // namespace
}  // namespace privtree
