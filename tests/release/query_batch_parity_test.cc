// QueryBatch must agree with repeated Query for every backend.  The
// tree-backed methods answer both through one kernel (exact equality), as
// do the flat grids' allocation-free one-pass batch (same arithmetic); AG's
// summed-area-table interior + boundary evaluation and Hierarchy's
// consistent leaf view equal Query up to floating-point summation order,
// checked at 1e-9.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "hist/grid.h"
#include "release/options.h"
#include "release/registry.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {
namespace {

PointSet TestPoints(std::size_t n = 1500) {
  Rng rng(0x6A7C4);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    // Two clusters plus a uniform background, so adaptive methods refine.
    const double u = rng.NextDouble();
    if (u < 0.4) {
      p[0] = 0.2 + 0.05 * rng.NextDouble();
      p[1] = 0.3 + 0.05 * rng.NextDouble();
    } else if (u < 0.8) {
      p[0] = 0.7 + 0.1 * rng.NextDouble();
      p[1] = 0.6 + 0.1 * rng.NextDouble();
    } else {
      p[0] = rng.NextDouble();
      p[1] = rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

/// A workload that exercises every classification path: tiny boxes inside
/// one cell, wide boxes spanning many cells, slivers, the full domain, and
/// boxes reaching past the domain boundary.
std::vector<Box> TestQueries() {
  std::vector<Box> queries;
  Rng rng(0x0B0E5);
  for (int i = 0; i < 120; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    const double w = std::pow(10.0, -3.0 * rng.NextDouble());  // 1e-3 .. 1.
    const double h = std::pow(10.0, -3.0 * rng.NextDouble());
    queries.emplace_back(std::vector<double>{x, y},
                         std::vector<double>{std::min(x + w, 1.0),
                                             std::min(y + h, 1.0)});
  }
  // Degenerate and boundary-crossing cases.
  queries.emplace_back(std::vector<double>{0.0, 0.0},
                       std::vector<double>{1.0, 1.0});  // Whole domain.
  queries.emplace_back(std::vector<double>{0.5, 0.5},
                       std::vector<double>{0.5, 0.5});  // Zero volume.
  queries.emplace_back(std::vector<double>{-0.5, -0.5},
                       std::vector<double>{0.25, 1.5});  // Past the edges.
  queries.emplace_back(std::vector<double>{1.0, 1.0},
                       std::vector<double>{2.0, 2.0});  // Fully outside.
  queries.emplace_back(std::vector<double>{0.1, -1.0},
                       std::vector<double>{0.11, 2.0});  // Thin full column.
  return queries;
}

void ExpectBatchMatchesLoop(const std::string& name,
                            const release::MethodOptions& options) {
  auto method = release::GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(1.0);
  Rng rng(0xFEED);
  method->Fit(TestPoints(), Box::UnitCube(2), budget, rng);
  const std::vector<Box> queries = TestQueries();
  const std::vector<double> batch = method->QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  // Query on the tree methods is a batch of one through the same kernel.
  const bool one_kernel =
      name == "privtree" || name == "simpletree" || name == "kdtree";
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double single = method->Query(queries[q]);
    if (one_kernel) {
      EXPECT_EQ(batch[q], single) << name << " query " << q;
    } else {
      EXPECT_NEAR(batch[q], single, 1e-9 * std::max(1.0, std::fabs(single)))
          << name << " query " << q;
    }
  }
}

TEST(QueryBatchParityTest, EveryRegisteredMethod) {
  // Box-batch parity is a spatial-kind property; the sequence methods'
  // batch path is covered by sequence_methods_test.cc.
  for (const std::string& name : release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    ExpectBatchMatchesLoop(name, {});
  }
}

TEST(QueryBatchParityTest, HierarchyWithoutConstrainedInference) {
  // No consistent leaf view exists; the batch path must fall back to the
  // greedy descent and still agree.
  ExpectBatchMatchesLoop("hierarchy", {{"constrained_inference", "false"}});
}

TEST(QueryBatchParityTest, HierarchyTallTree) {
  ExpectBatchMatchesLoop("hierarchy", {{"height", "5"}});
}

TEST(QueryBatchParityTest, AdaptiveGridCoarseAndFine) {
  ExpectBatchMatchesLoop("ag", {{"cell_scale", "0.2"}});
  ExpectBatchMatchesLoop("ag", {{"cell_scale", "4"}});
}

TEST(QueryBatchParityTest, FlatGridBatchIsBitIdentical) {
  // ug/dawa/wavelet share GridHistogram::QueryBatch, which runs the exact
  // same arithmetic as Query — no tolerance needed.
  Rng rng(0x9B1D);
  GridHistogram grid = GridHistogram::FromPoints(TestPoints(),
                                                 Box::UnitCube(2), {37, 23});
  grid.AddLaplaceNoise(0.7, rng);
  grid.BuildPrefixSums();
  const std::vector<Box> queries = TestQueries();
  const std::vector<double> batch = grid.QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[q], grid.Query(queries[q])) << "query " << q;
  }
}

}  // namespace
}  // namespace privtree
