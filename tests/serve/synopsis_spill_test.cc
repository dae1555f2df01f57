// The SynopsisCache disk-spill tier: evicted synopses serialize to the
// spill directory, misses rehydrate from disk (single-flight, identical
// answers, no re-fit), the tier is capacity-bounded, survives a cache
// restart on the same directory, falls back to fitting on corruption, and
// Clear() removes the files.  Spill writes happen on a background writer
// (write-behind): the tests FlushSpill() before asserting on-disk state,
// and the write-behind buffer itself must serve misses without re-fitting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "release/registry.h"
#include "serve/synopsis_cache.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::serve {
namespace {

namespace fs = std::filesystem;

PointSet TestPoints(std::size_t n = 500, std::uint64_t seed = 0xDA7A) {
  Rng rng(seed);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

/// A real fitted synopsis; the spill tier serializes release::Method values.
std::shared_ptr<const release::Method> FitUg(const PointSet& points,
                                             std::uint64_t seed) {
  auto method = release::GlobalMethodRegistry().Create("ug");
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

SynopsisKey KeyFor(std::uint64_t rng_fingerprint) {
  return {/*dataset_fingerprint=*/42, "ug", "", 1.0, rng_fingerprint};
}

class SynopsisSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("privtree_spill_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(SynopsisSpillTest, EvictedEntriesSpillAndRehydrateIdentically) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 8});

  const auto original = cache.GetOrFit(KeyFor(1), [&] {
    return FitUg(points, 1);
  });
  // Fitting key 2 evicts key 1 from the 1-entry memory tier onto disk.
  cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.FlushSpill();  // The write happens behind the evicting caller.
  EXPECT_EQ(cache.stats().spill_writes, 1u);
  EXPECT_EQ(cache.stats().spill_pending, 0u);
  EXPECT_GE(cache.stats().spill_write_batches, 1u);
  EXPECT_EQ(cache.SpillFileCount(), 1u);

  // The miss on key 1 must rehydrate from disk — never re-fit.
  const auto rehydrated = cache.GetOrFit(KeyFor(1), [&] {
    ADD_FAILURE() << "rehydratable key was re-fitted";
    return FitUg(points, 1);
  });
  EXPECT_EQ(cache.stats().spill_hits, 1u);

  Rng query_rng(0xBEEF);
  const auto queries = GenerateRangeQueries(Box::UnitCube(2), 30,
                                            kMediumQueries, query_rng);
  const auto want = original->QueryBatch(queries);
  const auto got = rehydrated->QueryBatch(queries);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST_F(SynopsisSpillTest, SpillTierIsCapacityBounded) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 1});
  for (std::uint64_t k = 1; k <= 4; ++k) {
    cache.GetOrFit(KeyFor(k), [&] { return FitUg(points, k); });
  }
  cache.FlushSpill();
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.SpillFileCount(), 1u);
  EXPECT_EQ(cache.stats().spill_evictions, 2u);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(SynopsisSpillTest, SpillSurvivesCacheRestart) {
  const PointSet points = TestPoints();
  {
    SynopsisCache cache(1, SpillOptions{dir(), 8});
    cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
    cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  }
  // A fresh cache on the same directory adopts the spilled file and serves
  // the synopsis without re-fitting.
  SynopsisCache cache(1, SpillOptions{dir(), 8});
  EXPECT_EQ(cache.SpillFileCount(), 1u);
  const auto rehydrated = cache.GetOrFit(KeyFor(1), [&] {
    ADD_FAILURE() << "spilled key was re-fitted after restart";
    return FitUg(points, 1);
  });
  EXPECT_EQ(cache.stats().spill_hits, 1u);
  const auto fresh = FitUg(points, 1);
  const Box q({0.1, 0.2}, {0.6, 0.9});
  EXPECT_EQ(rehydrated->Query(q), fresh->Query(q));
}

TEST_F(SynopsisSpillTest, CorruptSpillFileFallsBackToFitting) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 8});
  cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
  cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  cache.FlushSpill();
  ASSERT_EQ(cache.SpillFileCount(), 1u);

  // Scribble over the spilled synopsis.
  for (const auto& entry : fs::directory_iterator(dir())) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "not a synopsis";
  }

  int fits = 0;
  const auto value = cache.GetOrFit(KeyFor(1), [&] {
    ++fits;
    return FitUg(points, 1);
  });
  EXPECT_EQ(fits, 1);
  EXPECT_EQ(cache.stats().spill_hits, 0u);
  EXPECT_EQ(cache.stats().spill_failures, 1u);
  // The broken file is dropped from the tier; re-fitting key 1 evicted
  // key 2 from the 1-entry memory tier, which wrote a fresh (valid) file.
  cache.FlushSpill();
  EXPECT_EQ(cache.SpillFileCount(), 1u);
  EXPECT_EQ(cache.stats().spill_writes, 2u);
  const auto fresh = FitUg(points, 1);
  const Box q({0.0, 0.0}, {0.5, 0.5});
  EXPECT_EQ(value->Query(q), fresh->Query(q));
}

TEST_F(SynopsisSpillTest, ClearRemovesSpillFiles) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 8});
  cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
  cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  cache.FlushSpill();
  ASSERT_EQ(cache.SpillFileCount(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.SpillFileCount(), 0u);
  for (const auto& entry : fs::directory_iterator(dir())) {
    ADD_FAILURE() << "leftover spill file " << entry.path();
  }
}

TEST_F(SynopsisSpillTest, ConcurrentRehydrationIsSingleFlight) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 8});
  cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
  cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  cache.FlushSpill();
  ASSERT_EQ(cache.SpillFileCount(), 1u);

  std::atomic<int> fits{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const release::Method>> got(8);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.GetOrFit(KeyFor(1), [&] {
        ++fits;
        return FitUg(points, 1);
      });
    });
  }
  for (auto& thread : threads) thread.join();
  // The spill load is single-flight: one thread rehydrates, everyone else
  // waits for it; nobody re-fits.
  EXPECT_EQ(fits.load(), 0);
  EXPECT_EQ(cache.stats().spill_hits, 1u);
  for (const auto& method : got) {
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method, got[0]);  // All callers share one instance.
  }
}

TEST_F(SynopsisSpillTest, WritebackBufferServesEvictionsWithoutRefit) {
  const PointSet points = TestPoints();
  SynopsisCache cache(1, SpillOptions{dir(), 8});
  const auto original =
      cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
  // Evict key 1 and immediately miss on it again.  Whether or not the
  // background writer has finished its file by then, the miss must be
  // served without a re-fit: either straight from the write-behind buffer
  // (writeback hit) or by rehydrating the already-written file.
  cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });
  const auto again = cache.GetOrFit(KeyFor(1), [&] {
    ADD_FAILURE() << "pending eviction was re-fitted";
    return FitUg(points, 1);
  });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.writeback_hits + stats.spill_hits, 1u);
  const Box q({0.2, 0.1}, {0.8, 0.7});
  EXPECT_EQ(again->Query(q), original->Query(q));
  cache.FlushSpill();
  EXPECT_EQ(cache.stats().spill_pending, 0u);
}

TEST_F(SynopsisSpillTest, KeyFingerprintsAreStableAndDistinct) {
  const std::string a = SynopsisKeyFingerprint(KeyFor(1));
  EXPECT_EQ(a, SynopsisKeyFingerprint(KeyFor(1)));
  EXPECT_NE(a, SynopsisKeyFingerprint(KeyFor(2)));
  EXPECT_EQ(a.size(), 16u);
}

}  // namespace
}  // namespace privtree::serve
