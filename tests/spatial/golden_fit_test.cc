// Golden pins for the spatial fit path.  Each case fits one release on a
// fixed 50k-point road-like dataset with a fixed Rng and compares a digest
// of every node's (prefix, bits, depth) plus every released count (bit
// pattern) against a value recorded from the reference implementation.
//
// Unlike the method-parity tests, which compare two entry points that share
// the index and counting code, these digests pin the released bytes
// themselves: any change to key computation, sort order, tree shape or the
// order of noise draws shows up here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "data/spatial_gen.h"
#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/spatial_histogram.h"
#include "spatial/svt_histogram.h"

namespace privtree {
namespace {

constexpr std::uint64_t kDataSeed = 20160626;
constexpr std::uint64_t kFitSeed = 1607;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t HistogramDigest(const SpatialHistogram& hist) {
  Digest digest;
  digest.Add(hist.tree.size());
  for (const auto& node : hist.tree.nodes()) {
    digest.Add(static_cast<std::uint64_t>(node.domain.prefix));
    digest.Add(static_cast<std::uint64_t>(node.domain.prefix >> 64));
    digest.Add(static_cast<std::uint64_t>(node.domain.bits));
    digest.Add(static_cast<std::uint64_t>(node.depth));
  }
  for (double count : hist.count) {
    digest.Add(std::bit_cast<std::uint64_t>(count));
  }
  return digest.value();
}

const PointSet& RoadPoints() {
  static const PointSet points = [] {
    Rng rng(kDataSeed);
    return GenerateRoadLike(50000, rng);
  }();
  return points;
}

struct PrivTreeCase {
  double epsilon;
  int dims_per_split;
  std::uint64_t digest;
};

class GoldenPrivTreeTest : public ::testing::TestWithParam<PrivTreeCase> {};

TEST_P(GoldenPrivTreeTest, ReleaseMatchesRecordedDigest) {
  const PrivTreeCase& config = GetParam();
  PrivTreeHistogramOptions options;
  options.dims_per_split = config.dims_per_split;
  Rng rng(kFitSeed);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      RoadPoints(), Box::UnitCube(2), config.epsilon, options, rng);
  EXPECT_EQ(HistogramDigest(hist), config.digest)
      << "nodes=" << hist.tree.size()
      << " visited=" << hist.stats.nodes_visited;
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonsAndFanouts, GoldenPrivTreeTest,
    ::testing::Values(PrivTreeCase{0.1, 2, 0x6ebff2f80f4ad4c6ULL},
                      PrivTreeCase{0.1, 1, 0x686af6dffd78f441ULL},
                      PrivTreeCase{1.6, 2, 0x64cad1dbc0e7ba2eULL},
                      PrivTreeCase{1.6, 1, 0xe3b60fc00fcd3439ULL}),
    [](const auto& info) {
      return std::string(info.param.epsilon < 1.0 ? "eps0_1" : "eps1_6") +
             "_i" + std::to_string(info.param.dims_per_split);
    });

TEST(GoldenFitTest, SimpleTreeReleaseMatchesRecordedDigest) {
  Rng rng(kFitSeed);
  const SpatialHistogram hist = BuildSimpleTreeHistogram(
      RoadPoints(), Box::UnitCube(2), 1.0, SimpleTreeHistogramOptions{}, rng);
  EXPECT_EQ(HistogramDigest(hist), 0x4bfada1a6deab1a9ULL)
      << "nodes=" << hist.tree.size();
}

TEST(GoldenFitTest, SvtTreeReleaseMatchesRecordedDigest) {
  Rng rng(kFitSeed);
  const SpatialHistogram hist = BuildSvtTreeHistogram(
      RoadPoints(), Box::UnitCube(2), 1.0, SvtHistogramOptions{}, rng);
  EXPECT_EQ(HistogramDigest(hist), 0x4a0a7481fca96ab5ULL)
      << "nodes=" << hist.tree.size();
}

}  // namespace
}  // namespace privtree
