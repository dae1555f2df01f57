// The served tree methods keep one flat body: `privtree` and `simpletree`
// fit through the flat kernel (spatial/flat_fit.h) and never build a
// DecompTree, and `kdtree` flattens the library KdTreeHistogram inside its
// fit.  Their releases must still be the library builders' releases bit
// for bit: the saved envelope equals one written around
// WriteSpatialTreeBodyCompressed on the oracle tree (count_quantum applied
// to its counts), the answers equal SpatialHistogram::Query (and
// KdTreeHistogram::Query), the metadata reports the oracle's size and
// height, and a release loaded back from the envelope answers, reports and
// saves exactly like the fitted one.  Each served privtree or simpletree
// fit records its size and sub-phase times in the spatial.* and
// release.encode_us histograms.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "hist/kdtree.h"
#include "obs/metrics.h"
#include "release/builtin_methods.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/serialization.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {
namespace {

constexpr double kEpsilon = 0.9;

PointSet TestPoints(std::size_t dim, std::size_t n = 5000) {
  Rng rng(0xF1A7 + dim);
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

std::vector<Box> TestQueries(std::size_t dim) {
  Rng rng(0x0B0E5);
  std::vector<Box> queries;
  for (int i = 0; i < 60; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = rng.NextDouble() * 0.8;
      hi[j] = lo[j] + 0.05 + rng.NextDouble() * 0.15;
    }
    queries.emplace_back(std::move(lo), std::move(hi));
  }
  queries.push_back(Box::UnitCube(dim));
  return queries;
}

std::string SaveToString(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return out.str();
}

struct Case {
  std::string method;
  MethodOptions options;
  std::size_t dim = 2;
};

/// `kd`'s tree and counts as a SpatialHistogram: the same boxes and
/// parent links.  Its Query is the same descent as KdTreeHistogram::Query,
/// and unlike that one it also runs over quantized counts.
SpatialHistogram AsSpatialHistogram(const KdTreeHistogram& kd) {
  SpatialHistogram hist;
  for (const DecompNode<Box>& node : kd.tree().nodes()) {
    if (node.parent == kInvalidNode) {
      hist.tree.AddRoot({node.domain});
    } else {
      hist.tree.AddChild(node.parent, {node.domain});
    }
  }
  hist.count = kd.counts();
  return hist;
}

struct Oracle {
  /// The library builder's release, with the method's count_quantum
  /// applied to its counts.
  SpatialHistogram hist;
  /// kdtree only: the library k-d tree itself, with unquantized counts.
  std::optional<KdTreeHistogram> kd;
};

Oracle OracleRelease(const Case& c, const PointSet& points,
                     std::uint64_t seed) {
  Rng rng(seed);
  const Box domain = Box::UnitCube(c.dim);
  Oracle oracle;
  if (c.method == "privtree") {
    oracle.hist =
        BuildPrivTreeHistogram(points, domain, kEpsilon,
                               ParsePrivTreeHistogramOptions(c.options), rng);
  } else if (c.method == "simpletree") {
    oracle.hist = BuildSimpleTreeHistogram(
        points, domain, kEpsilon, ParseSimpleTreeHistogramOptions(c.options),
        rng);
  } else {
    KdTreeOptions options;
    options.height = static_cast<std::int32_t>(
        c.options.GetInt("height", options.height));
    oracle.kd.emplace(points, domain, kEpsilon, options, rng);
    oracle.hist = AsSpatialHistogram(*oracle.kd);
  }
  const double quantum = c.options.GetDouble("count_quantum", 0.0);
  for (double& count : oracle.hist.count) {
    count = QuantizeCount(count, quantum);
  }
  return oracle;
}

TEST(FlatFitMethodTest, ServedFitsSaveAndAnswerLikeTheOracle) {
  const std::vector<Case> cases = {
      {"privtree", {}},
      {"privtree", {{"dims_per_split", "1"}}},
      {"privtree", {{"count_quantum", "0.5"}}},
      {"privtree", {{"max_depth", "1"}}},
      {"privtree", {{"dims_per_split", "2"}, {"count_quantum", "2"}}, 3},
      {"simpletree", {}},
      {"simpletree", {{"height", "5"}, {"count_quantum", "1"}}},
      {"simpletree", {{"dims_per_split", "1"}, {"height", "8"}}, 3},
      {"kdtree", {}},
      {"kdtree", {{"height", "6"}, {"count_quantum", "1"}}},
      {"kdtree", {}, 3},
      // Above 8 dims the descent reads the dimension at run time (D = 0).
      {"kdtree", {}, 10},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.method + " " + c.options.ToString() +
                 " dim=" + std::to_string(c.dim));
    const PointSet points = TestPoints(c.dim);
    const Box domain = Box::UnitCube(c.dim);
    for (const std::uint64_t seed : {1u, 2u}) {
      auto fitted = GlobalMethodRegistry().Create(c.method, c.options);
      PrivacyBudget budget(kEpsilon);
      Rng rng(seed);
      fitted->Fit(Dataset(points, domain), budget, rng);

      const Oracle release = OracleRelease(c, points, seed);
      const SpatialHistogram& oracle = release.hist;
      EXPECT_EQ(fitted->Metadata().synopsis_size, oracle.tree.size());
      EXPECT_EQ(fitted->Metadata().height, oracle.tree.Height());

      std::string payload;
      ByteWriter writer(&payload);
      WriteSpatialTreeBodyCompressed(
          writer, oracle.tree, oracle.count,
          c.options.GetDouble("count_quantum", 0.0));
      std::ostringstream expected;
      ASSERT_TRUE(WriteSynopsis(expected, fitted->Metadata(),
                                c.options.ToString(), payload)
                      .ok());
      const std::string saved = SaveToString(*fitted);
      EXPECT_EQ(saved, expected.str());

      const std::vector<Box> queries = TestQueries(c.dim);
      const std::vector<double> answers = fitted->QueryBatch(queries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(answers[i], oracle.Query(queries[i])) << "query " << i;
        if (release.kd && c.options.GetDouble("count_quantum", 0.0) == 0.0) {
          EXPECT_EQ(answers[i], release.kd->Query(queries[i]))
              << "query " << i;
        }
      }

      std::istringstream in(saved);
      auto loaded = LoadMethod(in);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.value()->QueryBatch(queries), answers);
      EXPECT_EQ(loaded.value()->Metadata().synopsis_size,
                fitted->Metadata().synopsis_size);
      EXPECT_EQ(loaded.value()->Metadata().height,
                fitted->Metadata().height);
      EXPECT_EQ(SaveToString(*loaded.value()), saved);
    }
  }
}

TEST(FlatFitMethodTest, ServedFitsRecordWhereTheTimeWent) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram& nodes = registry.GetHistogram("spatial.tree_nodes");
  obs::Histogram& decompose = registry.GetHistogram("spatial.decompose_us");
  obs::Histogram& counts = registry.GetHistogram("spatial.count_release_us");
  obs::Histogram& encode = registry.GetHistogram("release.encode_us");
  const std::uint64_t nodes_before = nodes.Count();
  const std::uint64_t node_sum_before = nodes.SumMicros();
  const std::uint64_t decompose_before = decompose.Count();
  const std::uint64_t counts_before = counts.Count();
  const std::uint64_t encode_before = encode.Count();

  const PointSet points = TestPoints(2);
  std::size_t fitted_nodes = 0;
  for (const std::string name : {"privtree", "simpletree"}) {
    auto fitted = GlobalMethodRegistry().Create(name);
    PrivacyBudget budget(kEpsilon);
    Rng rng(3);
    fitted->Fit(Dataset(points, Box::UnitCube(2)), budget, rng);
    fitted_nodes += fitted->Metadata().synopsis_size;
  }
  // One sample per fit; SimpleTree releases its counts while it
  // decomposes, so only PrivTree times a separate count release.
  EXPECT_EQ(nodes.Count() - nodes_before, 2u);
  EXPECT_EQ(nodes.SumMicros() - node_sum_before, fitted_nodes);
  EXPECT_EQ(decompose.Count() - decompose_before, 2u);
  EXPECT_EQ(counts.Count() - counts_before, 1u);
  EXPECT_EQ(encode.Count() - encode_before, 2u);
}

}  // namespace
}  // namespace privtree::release
