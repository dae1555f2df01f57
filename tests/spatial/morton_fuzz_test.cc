// Randomized consistency fuzz: Morton-prefix counts must equal exact box
// counts for every cell of random decomposition paths, across dimensions
// and fanouts; children's key ranges must tile their parent's; and no
// released histogram may keep the fit-time key ranges.
#include <gtest/gtest.h>

#include <vector>

#include "dp/rng.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"
#include "spatial/quadtree_policy.h"
#include "spatial/spatial_histogram.h"
#include "spatial/svt_histogram.h"

namespace privtree {
namespace {

struct FuzzCase {
  std::size_t dim;
  int dims_per_split;
  std::uint64_t seed;
};

class MortonFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

// Clustered data so deep cells still contain points.
PointSet ClusteredPoints(std::size_t dim, Rng& rng) {
  PointSet points(dim);
  std::vector<double> p(dim);
  std::vector<double> center(dim);
  for (auto& c : center) c = rng.NextDouble();
  for (int i = 0; i < 20000; ++i) {
    const bool clustered = rng.NextDouble() < 0.6;
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = clustered
                 ? std::min(0.999999, center[j] + 0.001 * rng.NextDouble())
                 : rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

TEST_P(MortonFuzzTest, RandomDescentCountsMatchGeometry) {
  const FuzzCase& config = GetParam();
  Rng rng(config.seed);
  const PointSet points = ClusteredPoints(config.dim, rng);
  const Box domain = Box::UnitCube(config.dim);
  const MortonIndex index(points, domain);
  const QuadtreePolicy policy(index, domain, config.dims_per_split);

  // 20 random root-to-depth-10 walks.
  for (int walk = 0; walk < 20; ++walk) {
    SpatialCell cell = policy.Root();
    for (int depth = 0; depth < 10 && policy.CanSplit(cell); ++depth) {
      auto children = policy.Split(cell);
      // Verify all children, then descend into a random one (biased toward
      // the cluster half the time so deep cells stay populated).
      double total = 0.0;
      // The children's key ranges tile the parent's, in child order.
      ASSERT_EQ(children.front().begin, cell.begin);
      ASSERT_EQ(children.back().end, cell.end);
      for (std::size_t c = 0; c + 1 < children.size(); ++c) {
        ASSERT_EQ(children[c].end, children[c + 1].begin);
      }
      for (const auto& child : children) {
        ASSERT_LE(child.begin, child.end);
        const double score = policy.Score(child);
        const std::size_t exact = points.ExactRangeCount(child.box);
        ASSERT_EQ(child.end - child.begin, exact)
            << "walk " << walk << " depth " << depth;
        ASSERT_EQ(score, static_cast<double>(exact));
        total += score;
      }
      ASSERT_EQ(total, policy.Score(cell));
      if (rng.NextDouble() < 0.5) {
        // Follow the cluster.
        std::size_t best = 0;
        for (std::size_t c = 1; c < children.size(); ++c) {
          if (policy.Score(children[c]) > policy.Score(children[best])) {
            best = c;
          }
        }
        cell = children[best];
      } else {
        cell = children[rng.NextBounded(children.size())];
      }
    }
  }
}

TEST_P(MortonFuzzTest, BuiltHistogramsHoldNoKeyRanges) {
  const FuzzCase& config = GetParam();
  Rng rng(config.seed);
  const PointSet points = ClusteredPoints(config.dim, rng);
  const Box domain = Box::UnitCube(config.dim);
  const auto expect_cleared = [](const SpatialHistogram& hist,
                                 const char* builder) {
    ASSERT_GT(hist.tree.size(), 1u) << builder;
    for (const auto& node : hist.tree.nodes()) {
      ASSERT_EQ(node.domain.begin, 0u) << builder;
      ASSERT_EQ(node.domain.end, 0u) << builder;
    }
  };
  PrivTreeHistogramOptions privtree_options;
  privtree_options.dims_per_split = config.dims_per_split;
  expect_cleared(
      BuildPrivTreeHistogram(points, domain, 1.0, privtree_options, rng),
      "privtree");
  SimpleTreeHistogramOptions simple_options;
  simple_options.dims_per_split = config.dims_per_split;
  expect_cleared(
      BuildSimpleTreeHistogram(points, domain, 1.0, simple_options, rng),
      "simpletree");
  SvtHistogramOptions svt_options;
  svt_options.dims_per_split = config.dims_per_split;
  expect_cleared(BuildSvtTreeHistogram(points, domain, 1.0, svt_options, rng),
                 "svt");
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndFanouts, MortonFuzzTest,
    ::testing::Values(FuzzCase{1, 1, 11}, FuzzCase{2, 2, 22},
                      FuzzCase{2, 1, 33}, FuzzCase{3, 3, 44},
                      FuzzCase{3, 2, 55}, FuzzCase{4, 4, 66},
                      FuzzCase{4, 2, 77}, FuzzCase{4, 1, 88}),
    [](const auto& info) {
      return "d" + std::to_string(info.param.dim) + "_i" +
             std::to_string(info.param.dims_per_split);
    });

}  // namespace
}  // namespace privtree
