// The bit-for-bit contract of the batch-query kernels.  Every specialized
// path — the flat 2-d grid kernels (one-shot and batch), the flattened tree
// descent (TreeBatchIndex, against SpatialHistogram::Query and
// KdTreeHistogram::Query, in every dimension it is compiled for and the
// run-time one), AG's kernel-view boundary path — must answer
// exactly like its reference implementation on every input, including
// degenerate and adversarial boxes, and must stay deterministic under
// concurrent callers.  Parity is EXPECT_EQ on doubles throughout: "close"
// is a bug here, because the serving layer promises compressed/flattened
// answers indistinguishable from the originals.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid.h"
#include "hist/grid_kernels.h"
#include "hist/kdtree.h"
#include "release/tree_batch.h"
#include "serve/thread_pool.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

PointSet TestPoints(std::size_t n, std::uint64_t seed, std::size_t dim = 2) {
  Rng rng(seed);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = j == 0 ? rng.NextDouble() * rng.NextDouble() : rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

/// Random boxes plus the degenerate shapes the kernels must not special-case
/// differently from the reference: empty intersections, zero-width slabs,
/// exact domain covers, boxes straddling or outside the domain.
std::vector<Box> AdversarialQueries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
  queries.push_back(Box::UnitCube(2));                    // Full cover.
  queries.push_back(Box({0.0, 0.0}, {0.0, 0.0}));         // A point.
  queries.push_back(Box({0.3, 0.3}, {0.3, 0.9}));         // Zero width.
  queries.push_back(Box({0.25, 0.9}, {0.75, 0.9}));       // Zero height.
  queries.push_back(Box({-2.0, -2.0}, {-1.0, -1.0}));     // Disjoint.
  queries.push_back(Box({-1.0, -1.0}, {2.0, 2.0}));       // Superset.
  queries.push_back(Box({0.5, -1.0}, {2.0, 0.5}));        // Corner overlap.
  queries.push_back(Box({0.0, 0.4}, {1.0, 0.6}));         // Full-width band.
  queries.push_back(Box({1.0, 0.0}, {1.0, 1.0}));         // Upper boundary.
  return queries;
}

GridHistogram NoisyGrid(std::int64_t m0, std::int64_t m1, std::uint64_t seed) {
  GridHistogram grid = GridHistogram::FromPoints(
      TestPoints(3000, seed), Box::UnitCube(2), {m0, m1});
  Rng rng(seed ^ 0xF00D);
  grid.AddLaplaceNoise(2.0, rng);
  grid.BuildPrefixSums();
  return grid;
}

TEST(GridKernelParityTest, ScalarMatchesQueryAndReferenceBitwise) {
  const std::vector<Box> queries = AdversarialQueries(300, 0xA11CE);
  // Odd and tiny granularities (1..5 cells an axis) and large grids.
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {1, 1}, {2, 3}, {4, 4}, {5, 7}, {16, 16}, {64, 64}, {128, 32}};
  std::uint64_t seed = 1;
  for (const auto& [m0, m1] : shapes) {
    SCOPED_TRACE(testing::Message() << "grid " << m0 << "x" << m1);
    const GridHistogram grid = NoisyGrid(m0, m1, seed++);
    const Grid2DView view = grid.KernelView2D();

    const std::vector<double> reference = grid.QueryBatchReference(queries);
    const std::vector<double> batch = grid.QueryBatch(queries);
    std::vector<double> scalar(queries.size());
    GridQueryBatch2DScalar(view, queries, scalar.data());

    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double want = grid.Query(queries[i]);
      EXPECT_EQ(reference[i], want) << "query " << i;
      EXPECT_EQ(batch[i], want) << "query " << i;
      EXPECT_EQ(scalar[i], want) << "query " << i;
      EXPECT_EQ(GridQueryOne2D(view, queries[i]), want) << "query " << i;
    }
  }
}

TEST(GridKernelParityTest, NonTwoDimensionalGridsKeepTheGenericPath) {
  // 3-d grids take the generic QueryImpl everywhere; QueryBatch must still
  // equal Query and the reference bitwise.
  GridHistogram grid = GridHistogram::FromPoints(
      TestPoints(2000, 0x3D, 3), Box::UnitCube(3), {8, 4, 6});
  Rng noise(0x3D1);
  grid.AddLaplaceNoise(1.5, noise);
  grid.BuildPrefixSums();
  Rng rng(0x3D2);
  const std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(3), 120, kMediumQueries, rng);
  const std::vector<double> batch = grid.QueryBatch(queries);
  const std::vector<double> reference = grid.QueryBatchReference(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], grid.Query(queries[i])) << "query " << i;
    EXPECT_EQ(reference[i], batch[i]) << "query " << i;
  }
}

const Box& CellBox(const SpatialCell& c) { return c.box; }

/// Boxes cut from the tree's own cell boundaries: every `stride`-th cell
/// itself, the cell's upper neighbour that only touches it, a box from the
/// cell's lower corner past its upper corner, and the zero-volume slab on
/// its lower face.
std::vector<Box> CellBoundaryQueries(const SpatialHistogram& hist,
                                     std::size_t stride) {
  std::vector<Box> out;
  for (std::size_t v = 0; v < hist.tree.size(); v += stride) {
    const Box& cell = hist.tree.node(static_cast<NodeId>(v)).domain.box;
    std::vector<double> lo = cell.lo();
    std::vector<double> hi = cell.hi();
    out.push_back(cell);
    std::vector<double> touch_lo = lo, touch_hi = hi;
    touch_lo[0] = hi[0];
    touch_hi[0] = hi[0] + cell.Width(0);
    out.emplace_back(touch_lo, touch_hi);
    std::vector<double> past = hi;
    for (std::size_t j = 0; j < past.size(); ++j) past[j] += cell.Width(j) / 2;
    out.emplace_back(lo, past);
    std::vector<double> face = hi;
    face[0] = lo[0];
    out.emplace_back(lo, face);
  }
  return out;
}

/// Random boxes in [0,1)^dim plus the zero-volume and boundary shapes, in
/// any dimension.
std::vector<Box> MixedQueries(std::size_t dim, std::size_t n,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(dim), n, kMediumQueries, rng);
  const std::vector<double> zero(dim, 0.0), one(dim, 1.0), half(dim, 0.5);
  queries.push_back(Box::UnitCube(dim));            // Full cover.
  queries.emplace_back(zero, zero);                 // A point at the corner.
  queries.emplace_back(half, half);                 // A point on a split.
  queries.emplace_back(one, std::vector<double>(dim, 2.0));  // Touches hi.
  std::vector<double> slab_hi = one;
  slab_hi[0] = 0.25;
  queries.emplace_back(std::vector<double>(dim, 0.25), slab_hi);  // Slab.
  return queries;
}

/// The kernel equals SpatialHistogram::Query bit for bit on every box.
void ExpectTreeKernelMatchesDescent(const SpatialHistogram& hist,
                                    const std::vector<Box>& queries) {
  const release::TreeBatchIndex index(hist.tree, hist.count, CellBox);
  ASSERT_EQ(index.size(), hist.tree.size());
  const std::vector<double> got = index.Query(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], hist.Query(queries[i])) << "query " << i;
  }
}

void ExpectTreeKernelMatchesDescentOnMixedQueries(const SpatialHistogram& hist,
                                                  std::size_t dim,
                                                  std::uint64_t seed) {
  std::vector<Box> queries = MixedQueries(dim, 300, seed);
  const std::vector<Box> cells = CellBoundaryQueries(hist, 7);
  queries.insert(queries.end(), cells.begin(), cells.end());
  ExpectTreeKernelMatchesDescent(hist, queries);
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnTwoDimensionalTrees) {
  const PointSet points = TestPoints(4000, 0x7EE);
  Rng privtree_rng(5);
  const SpatialHistogram privtree = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), 1.0, {}, privtree_rng);
  Rng simple_rng(6);
  SimpleTreeHistogramOptions simple_options;
  simple_options.height = 6;
  const SpatialHistogram simple = BuildSimpleTreeHistogram(
      points, Box::UnitCube(2), 1.0, simple_options, simple_rng);

  std::vector<Box> queries = AdversarialQueries(250, 0x7EE1);
  for (const SpatialHistogram* hist : {&privtree, &simple}) {
    const std::vector<Box> cells = CellBoundaryQueries(*hist, 5);
    std::vector<Box> all = queries;
    all.insert(all.end(), cells.begin(), cells.end());
    ExpectTreeKernelMatchesDescent(*hist, all);
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnAOneDimensionalTree) {
  Rng rng(0x1D7);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      TestPoints(3000, 0x1D6, 1), Box::UnitCube(1), 1.0, {}, rng);
  ASSERT_GT(hist.tree.size(), 3u);
  ExpectTreeKernelMatchesDescentOnMixedQueries(hist, 1, 0x1D8);
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnThreeDimensionalTrees) {
  const PointSet points = TestPoints(4000, 0x3D7, 3);
  for (const int dims_per_split : {0, 1}) {  // Fanout 8, then fanout 2.
    SCOPED_TRACE(testing::Message() << "dims_per_split " << dims_per_split);
    PrivTreeHistogramOptions options;
    options.dims_per_split = dims_per_split;
    Rng rng(0x3D8);
    const SpatialHistogram hist =
        BuildPrivTreeHistogram(points, Box::UnitCube(3), 1.0, options, rng);
    ASSERT_EQ(hist.tree.node(hist.tree.root()).children.size(),
              dims_per_split == 0 ? 8u : 2u);
    ExpectTreeKernelMatchesDescentOnMixedQueries(hist, 3, 0x3D9);
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentInEveryCompiledDimension) {
  // The descent is compiled per dimension for d = 1..8; d = 4..8 here,
  // each as a full quadtree (fanout 2^d) and a binary round-robin tree,
  // with boundary boxes from about 100 of each tree's cells.
  for (std::size_t dim = 4; dim <= 8; ++dim) {
    const PointSet points = TestPoints(1000, 0x4D0 + dim, dim);
    for (const int dims_per_split : {0, 1}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << ", dims_per_split "
                                      << dims_per_split);
      PrivTreeHistogramOptions options;
      options.dims_per_split = dims_per_split;
      Rng rng(0x4D1 + dim);
      const SpatialHistogram hist = BuildPrivTreeHistogram(
          points, Box::UnitCube(dim), 1.0, options, rng);
      ASSERT_GE(hist.tree.Height(), 1);
      std::vector<Box> queries = MixedQueries(dim, 300, 0x4D2 + dim);
      const std::vector<Box> cells =
          CellBoundaryQueries(hist, hist.tree.size() / 100 + 1);
      queries.insert(queries.end(), cells.begin(), cells.end());
      ExpectTreeKernelMatchesDescent(hist, queries);
    }
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnARootOnlyTree) {
  Rng rng(0x2071);
  SimpleTreeHistogramOptions options;
  options.height = 1;  // The root is the only level.
  const SpatialHistogram hist = BuildSimpleTreeHistogram(
      TestPoints(500, 0x2070), Box::UnitCube(2), 1.0, options, rng);
  ASSERT_EQ(hist.tree.size(), 1u);
  ExpectTreeKernelMatchesDescentOnMixedQueries(hist, 2, 0x2072);
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentAtEveryBatchSize) {
  // One stack serves every box of a batch; no box may see state left over
  // from the one before it, at any batch size.
  Rng rng(0xB5);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      TestPoints(20000, 0xB4), Box::UnitCube(2), 1.0, {}, rng);
  const release::TreeBatchIndex index(hist.tree, hist.count, CellBox);
  Rng query_rng(0xB6);
  const std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), 8192, kMediumQueries, query_rng);
  for (const std::size_t batch : {0u, 1u, 64u, 8192u}) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    const std::vector<double> got =
        index.Query(std::span<const Box>(queries.data(), batch));
    ASSERT_EQ(got.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(got[i], hist.Query(queries[i])) << "query " << i;
    }
  }
}

/// The kernel equals KdTreeHistogram::Query bit for bit on `queries` and
/// on every `stride`-th cell of the tree.
void ExpectKdKernelMatchesDescent(const KdTreeHistogram& kd,
                                  std::vector<Box> queries,
                                  std::size_t stride) {
  for (std::size_t v = 0; v < kd.tree().size(); v += stride) {
    queries.push_back(kd.tree().node(static_cast<NodeId>(v)).domain);
  }
  const auto box_of = [](const Box& b) -> const Box& { return b; };
  const release::TreeBatchIndex index(kd.tree(), kd.counts(), box_of);
  const std::vector<double> got = index.Query(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], kd.Query(queries[i])) << "query " << i;
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnKdTrees) {
  const PointSet points = TestPoints(3000, 0x1D);
  Rng rng(0x1D1);
  KdTreeOptions options;
  options.height = 6;
  const KdTreeHistogram kd(points, Box::UnitCube(2), 1.0, options, rng);
  ExpectKdKernelMatchesDescent(kd, AdversarialQueries(250, 0x1D2), 3);
}

TEST(TreeBatchIndexParityTest, MatchesTheDescentOnATenDimensionalKdTree) {
  // Above 8 dims the descent reads the dimension at run time.
  constexpr std::size_t kDim = 10;
  Rng rng(0x10D1);
  KdTreeOptions options;
  options.height = 9;
  const KdTreeHistogram kd(TestPoints(4000, 0x10D0, kDim),
                           Box::UnitCube(kDim), 1.0, options, rng);
  ExpectKdKernelMatchesDescent(kd, MixedQueries(kDim, 300, 0x10D2), 5);
}

TEST(TreeBatchIndexParityTest, EmptyIndexAnswersZero) {
  const release::TreeBatchIndex index;
  const std::vector<Box> queries = {Box::UnitCube(2)};
  const std::vector<double> got = index.Query(queries);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0.0);
}

TEST(TreeBatchIndexDeathTest, RejectsABoxOfTheWrongDimension) {
  Rng rng(0xD1);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      TestPoints(500, 0xD0), Box::UnitCube(2), 1.0, {}, rng);
  const release::TreeBatchIndex index(hist.tree, hist.count, CellBox);
  const std::vector<Box> narrow = {Box::UnitCube(1)};
  const std::vector<Box> wide = {Box::UnitCube(3)};
  EXPECT_DEATH((void)index.Query(narrow), "PRIVTREE_CHECK");
  EXPECT_DEATH((void)index.Query(wide), "PRIVTREE_CHECK");
}

TEST(TreeBatchIndexDeathTest, RejectsParentsOutOfBreadthFirstOrder) {
  // Each parent precedes its node, but node 3's parent (0) comes after
  // node 2's (1), so node 0's children are not one id range.
  const std::vector<NodeId> parents = {kInvalidNode, 0, 1, 0};
  EXPECT_DEATH(release::TreeBatchIndex(
                   1, parents, {0.0, 1.0, 0.0, 0.5, 0.0, 0.25, 0.5, 1.0},
                   {10.0, 6.0, 2.0, 4.0}),
               "PRIVTREE_CHECK");
}

TEST(AdaptiveGridParityTest, QueryBatchMatchesReferenceBitwise) {
  const PointSet points = TestPoints(5000, 0xA6);
  Rng fit_rng(0xA61);
  const AdaptiveGrid grid(points, Box::UnitCube(2), 1.0, {}, fit_rng);
  const std::vector<Box> queries = AdversarialQueries(300, 0xA62);
  const std::vector<double> got = grid.QueryBatch(queries);
  const std::vector<double> want = grid.QueryBatchReference(queries);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST(KernelConcurrencyTest, EightThreadsReproduceSerialAnswersBitwise) {
  // The kernels hold no mutable state, so concurrent batches over one
  // synopsis must equal the serial run exactly — at every thread count.
  const GridHistogram grid = NoisyGrid(32, 32, 0xC0);
  const PointSet points = TestPoints(3000, 0xC1);
  Rng tree_rng(0xC2);
  const SpatialHistogram tree = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), 1.0, {}, tree_rng);
  const release::TreeBatchIndex index(tree.tree, tree.count, CellBox);

  const std::vector<Box> queries = AdversarialQueries(400, 0xC3);
  const std::vector<double> grid_serial = grid.QueryBatch(queries);
  const std::vector<double> tree_serial = index.Query(queries);

  serve::ThreadPool pool(8);
  std::vector<std::vector<double>> grid_runs(16), tree_runs(16);
  pool.ParallelFor(grid_runs.size(), [&](std::size_t i) {
    grid_runs[i] = grid.QueryBatch(queries);
    tree_runs[i] = index.Query(queries);
  });
  for (std::size_t r = 0; r < grid_runs.size(); ++r) {
    ASSERT_EQ(grid_runs[r].size(), grid_serial.size());
    ASSERT_EQ(tree_runs[r].size(), tree_serial.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(grid_runs[r][i], grid_serial[i]) << "run " << r;
      EXPECT_EQ(tree_runs[r][i], tree_serial[i]) << "run " << r;
    }
  }
}

}  // namespace
}  // namespace privtree
