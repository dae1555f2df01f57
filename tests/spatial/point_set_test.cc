#include "spatial/point_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace privtree {
namespace {

TEST(PointSetTest, AddAndAccess) {
  PointSet points(2);
  EXPECT_TRUE(points.empty());
  const std::vector<double> p1 = {0.1, 0.2};
  const std::vector<double> p2 = {0.3, 0.4};
  points.Add(p1);
  points.Add(p2);
  EXPECT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points.point(0)[0], 0.1);
  EXPECT_DOUBLE_EQ(points.point(1)[1], 0.4);
}

TEST(PointSetTest, WrapExistingCoords) {
  PointSet points(3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  EXPECT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points.point(1)[2], 6.0);
}

TEST(PointSetTest, ExactRangeCount) {
  PointSet points(2);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> p = {0.1 * i, 0.1 * i};
    points.Add(p);
  }
  // [0, 0.35)² contains points at 0.0, 0.1, 0.2, 0.3.
  EXPECT_EQ(points.ExactRangeCount(Box({0.0, 0.0}, {0.35, 0.35})), 4u);
  EXPECT_EQ(points.ExactRangeCount(Box({0.0, 0.0}, {1.0, 1.0})), 10u);
  EXPECT_EQ(points.ExactRangeCount(Box({2.0, 2.0}, {3.0, 3.0})), 0u);
}

TEST(PointSetTest, ExactRangeCountIsHalfOpen) {
  PointSet points(1);
  const std::vector<double> p = {0.5};
  points.Add(p);
  EXPECT_EQ(points.ExactRangeCount(Box({0.5}, {0.6})), 1u);
  EXPECT_EQ(points.ExactRangeCount(Box({0.4}, {0.5})), 0u);
}

TEST(PointSetTest, BoundingBoxContainsEveryPoint) {
  PointSet points(2);
  const std::vector<std::vector<double>> data = {
      {0.5, -1.0}, {2.0, 3.0}, {-0.5, 0.0}};
  for (const auto& p : data) points.Add(p);
  const Box bounds = points.BoundingBox();
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(bounds.Contains(points.point(i))) << i;
  }
}

TEST(PointSetTest, BoundingBoxOfSinglePointIsNonDegenerate) {
  PointSet points(2);
  const std::vector<double> p = {0.5, 0.5};
  points.Add(p);
  const Box bounds = points.BoundingBox();
  EXPECT_TRUE(bounds.Contains(points.point(0)));
  EXPECT_GT(bounds.Volume(), 0.0);
}

TEST(PointSetDeathTest, NonFiniteCoordinatesAbort) {
  PointSet points(2);
  const std::vector<double> with_nan = {0.5, std::nan("")};
  EXPECT_DEATH(points.Add(with_nan), "PRIVTREE_CHECK");
  const std::vector<double> with_inf = {
      std::numeric_limits<double>::infinity(), 0.5};
  EXPECT_DEATH(points.Add(with_inf), "PRIVTREE_CHECK");
  // The bulk constructor enforces the same invariant.
  EXPECT_DEATH(PointSet(2, {0.5, 0.5, std::nan(""), 0.5}), "PRIVTREE_CHECK");
  EXPECT_DEATH(PointSet(2, {0.5, -std::numeric_limits<double>::infinity()}),
               "PRIVTREE_CHECK");
}

TEST(PointSetDeathTest, WrongDimensionAborts) {
  PointSet points(2);
  const std::vector<double> p = {0.1};
  EXPECT_DEATH(points.Add(p), "PRIVTREE_CHECK");
  EXPECT_DEATH(PointSet(2, {1.0, 2.0, 3.0}), "PRIVTREE_CHECK");
  EXPECT_DEATH(PointSet(0), "PRIVTREE_CHECK");
}

}  // namespace
}  // namespace privtree
