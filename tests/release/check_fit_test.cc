// MethodRegistry::CheckFit, the one screen every user-facing surface (the
// serving engine's Prepare, privtree_cli) runs on a fit spec before any
// fitter sees it.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dp/status.h"
#include "release/dataset.h"
#include "release/options.h"
#include "release/registry.h"

namespace privtree::release {
namespace {

constexpr double kEpsilon = 0.5;

StatusCode Check(const std::string& method, const std::string& options,
                 double epsilon = kEpsilon,
                 DatasetKind kind = DatasetKind::kSpatial,
                 std::size_t dim = 2) {
  return GlobalMethodRegistry()
      .CheckFit(method, MethodOptions::Parse(options), epsilon, kind, dim)
      .code();
}

TEST(CheckFitTest, EveryMethodPassesWithDefaultsOnItsKind) {
  const MethodRegistry& registry = GlobalMethodRegistry();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(Check(name, "", kEpsilon, registry.Kind(name)),
              StatusCode::kOk);
  }
}

TEST(CheckFitTest, RefusesAnEpsilonThatIsNotFiniteAndPositive) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double bad[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                        0.0, -1.0};
  for (const char* method : {"ug", "privtree", "dawa", "kdtree"}) {
    for (const double epsilon : bad) {
      SCOPED_TRACE(std::string(method) + " eps=" + std::to_string(epsilon));
      EXPECT_EQ(Check(method, "", epsilon), StatusCode::kInvalidArgument);
    }
  }
  for (const double epsilon : bad) {
    EXPECT_EQ(Check("pst_privtree", "", epsilon, DatasetKind::kSequence, 6),
              StatusCode::kInvalidArgument);
  }
}

TEST(CheckFitTest, RefusesWhatTheEntryDoesNotAccept) {
  EXPECT_EQ(Check("nonsense", ""), StatusCode::kInvalidArgument);
  // Kind: a sequence method on points, a spatial one on sequences.
  EXPECT_EQ(Check("pst_privtree", ""), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("privtree", "", kEpsilon, DatasetKind::kSequence, 6),
            StatusCode::kInvalidArgument);
  // required_dim (ag is 2-d only) and max_dim (the Morton index's cap).
  EXPECT_EQ(Check("ag", "", kEpsilon, DatasetKind::kSpatial, 3),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("privtree", "", kEpsilon, DatasetKind::kSpatial, 9),
            StatusCode::kInvalidArgument);
  // Keys, types and declared ranges.
  EXPECT_EQ(Check("ug", "bogus_key=1"), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("ug", "cell_scale=abc"), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("hierarchy", "height=-3"), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("ngram", "n_max=99", kEpsilon, DatasetKind::kSequence, 6),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("hierarchy", "height=4"), StatusCode::kOk);
}

TEST(CheckFitTest, RefusesASplitOverMoreDimsThanTheDataHas) {
  EXPECT_EQ(Check("privtree", "dims_per_split=2"), StatusCode::kOk);
  EXPECT_EQ(Check("privtree", "dims_per_split=3"),
            StatusCode::kInvalidArgument);
  // Within the Morton index's cap (8), so only the data's dim refuses it.
  EXPECT_EQ(Check("privtree", "dims_per_split=5"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("simpletree", "dims_per_split=5"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("privtree", "dims_per_split=5", kEpsilon,
                  DatasetKind::kSpatial, 5),
            StatusCode::kOk);
}

TEST(CheckFitTest, FixedHeightTreesAreBoundedByTheirCompleteTree) {
  // A complete tree of at most 2^24 nodes is allowed, one level more is
  // not.  kdtree: 2^(h+1) − 1 nodes.
  EXPECT_EQ(Check("kdtree", "height=23"), StatusCode::kOk);
  EXPECT_EQ(Check("kdtree", "height=24"), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("kdtree", "height=64"), StatusCode::kInvalidArgument);
  // simpletree on 2-d data, β = 4 by default: (4^h − 1) / 3 nodes.
  EXPECT_EQ(Check("simpletree", "height=12"), StatusCode::kOk);
  EXPECT_EQ(Check("simpletree", "height=13"), StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("simpletree", "height=30"), StatusCode::kInvalidArgument);
  // β = 2 with one dimension per split: 2^h − 1 nodes.
  EXPECT_EQ(Check("simpletree", "dims_per_split=1,height=24"),
            StatusCode::kOk);
  EXPECT_EQ(Check("simpletree", "dims_per_split=1,height=25"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Check("simpletree", "height=64"), StatusCode::kInvalidArgument);
  // privtree's size is set by ε and the data, not by a height.
  EXPECT_EQ(Check("privtree", "max_depth=4096"), StatusCode::kOk);
}

}  // namespace
}  // namespace privtree::release
