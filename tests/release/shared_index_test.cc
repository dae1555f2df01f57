// The per-dataset Morton index: release::Dataset builds it on the first
// tree fit and shares it with every copy and every later fit.  Sharing must
// not change a single released byte — a fit over the shared index saves
// exactly what a fit over a freshly built one saves — and the index must be
// built once however many fits race for it, and never for a method or a
// dataset kind that does not read it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "obs/metrics.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {
namespace {

constexpr double kEpsilon = 0.8;
constexpr std::uint64_t kSeed = 0x5A4ED;

PointSet ClusteredPoints(std::size_t n = 4000) {
  Rng rng(0x1DE);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();
    p[1] = 0.5 + 0.3 * (rng.NextDouble() - 0.5) * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::uint64_t IndexBuilds() {
  return obs::Registry::Global().GetCounter("spatial.index_builds").Value();
}

std::uint64_t IndexBytes() {
  return obs::Registry::Global().GetGauge("spatial.index_bytes").Value();
}

/// The saved bytes of `name` fitted over `data` under (kSeed, kEpsilon).
std::string FitAndSave(const std::string& name, const MethodOptions& options,
                       const Dataset& data) {
  auto method = GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(kEpsilon);
  Rng rng(kSeed);
  method->Fit(data, budget, rng);
  std::ostringstream out;
  EXPECT_TRUE(method->Save(out).ok());
  return out.str();
}

/// As FitAndSave, through the PointSet overload (a private index per fit).
std::string FitPointsAndSave(const std::string& name,
                             const MethodOptions& options,
                             const PointSet& points, const Box& domain) {
  auto method = GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(kEpsilon);
  Rng rng(kSeed);
  method->Fit(points, domain, budget, rng);
  std::ostringstream out;
  EXPECT_TRUE(method->Save(out).ok());
  return out.str();
}

TEST(SharedIndexTest, SharedIndexFitsSaveTheSameBytesAsPrivateIndexFits) {
  const PointSet points = ClusteredPoints();
  const Box domain = Box::UnitCube(2);
  const Dataset data(points, domain);
  MethodOptions round_robin;
  round_robin.Set("dims_per_split", "1");
  const struct {
    const char* name;
    MethodOptions options;
  } cases[] = {{"privtree", {}}, {"privtree", round_robin}, {"simpletree", {}}};
  for (const auto& c : cases) {
    const std::string expected =
        FitPointsAndSave(c.name, c.options, points, domain);
    // Twice over the shared index: the second fit reads the cached one.
    EXPECT_EQ(FitAndSave(c.name, c.options, data), expected)
        << c.name << " " << c.options.ToString();
    EXPECT_EQ(FitAndSave(c.name, c.options, data), expected)
        << c.name << " " << c.options.ToString();
  }
}

TEST(SharedIndexTest, CopiesShareOneIndexAndItsBytesAreAccounted) {
  const PointSet points = ClusteredPoints();
  const std::uint64_t bytes_before = IndexBytes();
  {
    const Dataset data(points, Box::UnitCube(2));
    // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
    const Dataset copy = data;
    const MortonIndex& index = copy.morton_index();
    EXPECT_EQ(&data.morton_index(), &index);
    EXPECT_EQ(index.size(), points.size());
    EXPECT_EQ(IndexBytes(), bytes_before + points.size() * sizeof(MortonKey));

    // A separately constructed view over the same points has its own slot.
    const Dataset other(points, Box::UnitCube(2));
    EXPECT_NE(&other.morton_index(), &index);
  }
  // The last copies are gone: so are their keys.
  EXPECT_EQ(IndexBytes(), bytes_before);
}

TEST(SharedIndexTest, ConcurrentFitsBuildTheIndexOnceAndAgree) {
  const PointSet points = ClusteredPoints(20000);
  const Dataset data(points, Box::UnitCube(2));
  const std::uint64_t builds_before = IndexBuilds();

  constexpr int kThreads = 8;
  std::vector<std::string> saved(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      saved[t] = FitAndSave("privtree", {}, data);
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(IndexBuilds(), builds_before + 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(saved[t], saved[0]) << "thread " << t;
  }
  EXPECT_EQ(saved[0], FitPointsAndSave("privtree", {}, points,
                                       Box::UnitCube(2)));
}

TEST(SharedIndexTest, GridFitsAndSequenceDatasetsNeverBuildAnIndex) {
  const PointSet points = ClusteredPoints();
  const Dataset spatial(points, Box::UnitCube(2));
  SequenceDataset sequences(3);
  const std::vector<Symbol> a = {0, 1, 2, 1};
  const std::vector<Symbol> b = {2, 2, 0};
  for (int i = 0; i < 50; ++i) sequences.Add(i % 2 == 0 ? a : b);
  const Dataset sequence(sequences);

  const std::uint64_t builds_before = IndexBuilds();
  const std::uint64_t bytes_before = IndexBytes();
  EXPECT_FALSE(FitAndSave("ug", {}, spatial).empty());
  EXPECT_FALSE(FitAndSave("ngram", {}, sequence).empty());
  EXPECT_EQ(IndexBuilds(), builds_before);
  EXPECT_EQ(IndexBytes(), bytes_before);
}

TEST(SharedIndexTest, KdTreeFitsNeverBuildAnIndex) {
  // kdtree serves from the same flat body as privtree, but its fit splits
  // on the points themselves; only the privtree fit builds the index.
  const PointSet points = ClusteredPoints();
  const Dataset data(points, Box::UnitCube(2));
  const std::uint64_t builds_before = IndexBuilds();
  EXPECT_FALSE(FitAndSave("kdtree", {}, data).empty());
  EXPECT_EQ(IndexBuilds(), builds_before);
  EXPECT_FALSE(FitAndSave("privtree", {}, data).empty());
  EXPECT_EQ(IndexBuilds(), builds_before + 1);
}

TEST(SharedIndexDeathTest, IndexOverAnotherDomainIsRefused) {
  const PointSet points = ClusteredPoints(100);
  const MortonIndex index(points, Box::UnitCube(2));
  const Box wider({0.0, 0.0}, {2.0, 2.0});
  Rng rng(kSeed);
  EXPECT_DEATH(BuildPrivTreeHistogram(index, wider, kEpsilon, {}, rng),
               "index.root\\(\\) == domain");
}

TEST(SharedIndexDeathTest, SequenceDatasetHasNoIndex) {
  SequenceDataset sequences(2);
  const std::vector<Symbol> s = {0, 1};
  sequences.Add(s);
  const Dataset data(sequences);
  EXPECT_DEATH(data.morton_index(), "is_spatial");
}

}  // namespace
}  // namespace privtree::release
