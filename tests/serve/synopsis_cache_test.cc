// SynopsisCache behavior: hit/miss/evict accounting, LRU order, key
// canonicalization (option spelling, dataset and RNG fingerprints),
// single-flight fitting under concurrency, and the byte-level accounting
// added with the compressed envelopes (resident_bytes, the
// max_resident_bytes cap, spill read/write byte counters).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "release/options.h"
#include "release/registry.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::serve {
namespace {

PointSet TestPoints(std::size_t n = 300, std::uint64_t seed = 0xDA7A) {
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

/// A real fitted synopsis (the cache stores release::Method values).
std::shared_ptr<const release::Method> FitUg(const PointSet& points,
                                             std::uint64_t seed) {
  auto method = release::GlobalMethodRegistry().Create("ug");
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

SynopsisKey KeyFor(std::uint64_t rng_fingerprint, double epsilon = 1.0) {
  return {/*dataset_fingerprint=*/42, "ug", "", epsilon, rng_fingerprint};
}

TEST(SynopsisCacheTest, MissFitsThenHitReuses) {
  const PointSet points = TestPoints();
  SynopsisCache cache(4);
  int fits = 0;
  const auto fit = [&] {
    ++fits;
    return FitUg(points, 1);
  };
  const auto first = cache.GetOrFit(KeyFor(1), fit);
  const auto second = cache.GetOrFit(KeyFor(1), fit);
  EXPECT_EQ(fits, 1);
  EXPECT_EQ(first.get(), second.get());  // Same shared synopsis.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SynopsisCacheTest, DistinctKeyComponentsAreDistinctEntries) {
  const PointSet points = TestPoints();
  SynopsisCache cache(16);
  int fits = 0;
  const auto fit = [&] {
    ++fits;
    return FitUg(points, 1);
  };
  cache.GetOrFit(KeyFor(1, 1.0), fit);
  cache.GetOrFit(KeyFor(2, 1.0), fit);        // Different randomness.
  cache.GetOrFit(KeyFor(1, 0.5), fit);        // Different ε.
  SynopsisKey other = KeyFor(1, 1.0);
  other.method = "privtree";                  // Different method.
  cache.GetOrFit(other, fit);
  SynopsisKey dataset = KeyFor(1, 1.0);
  dataset.dataset_fingerprint = 43;           // Different dataset.
  cache.GetOrFit(dataset, fit);
  EXPECT_EQ(fits, 5);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(SynopsisCacheTest, LruEvictsOldestFirst) {
  const PointSet points = TestPoints();
  SynopsisCache cache(2);
  const auto fit = [&] { return FitUg(points, 1); };
  cache.GetOrFit(KeyFor(1), fit);
  cache.GetOrFit(KeyFor(2), fit);
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  cache.GetOrFit(KeyFor(3), fit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SynopsisCacheTest, ZeroCapacityDisablesRetention) {
  const PointSet points = TestPoints();
  SynopsisCache cache(0);
  int fits = 0;
  const auto fit = [&] {
    ++fits;
    return FitUg(points, 1);
  };
  cache.GetOrFit(KeyFor(1), fit);
  cache.GetOrFit(KeyFor(1), fit);
  EXPECT_EQ(fits, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SynopsisCacheTest, ConcurrentSameKeyFitsOnce) {
  const PointSet points = TestPoints();
  SynopsisCache cache(8);
  std::atomic<int> fits{0};
  ThreadPool pool(8);
  std::vector<std::shared_ptr<const release::Method>> got(32);
  pool.ParallelFor(got.size(), [&](std::size_t i) {
    got[i] = cache.GetOrFit(KeyFor(7), [&] {
      fits.fetch_add(1);
      return FitUg(points, 7);
    });
  });
  EXPECT_EQ(fits.load(), 1);
  for (const auto& method : got) EXPECT_EQ(method.get(), got[0].get());
}

TEST(SynopsisCacheKeyTest, CanonicalOptionsCollapseSpellings) {
  using release::MethodOptions;
  EXPECT_EQ(CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "3"}}),
            CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "3.0"}}));
  EXPECT_EQ(
      CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "0.5"}}),
      CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "5e-1"}}));
  EXPECT_NE(
      CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "3"}}),
      CanonicalOptionsText("ug", MethodOptions{{"cell_scale", "4"}}));
  // Booleans: "1" and "true" are the same setting.
  EXPECT_EQ(CanonicalOptionsText(
                "hierarchy", MethodOptions{{"constrained_inference", "1"}}),
            CanonicalOptionsText(
                "hierarchy", MethodOptions{{"constrained_inference", "true"}}));
  // Key order in the text is sorted regardless of insertion order.
  MethodOptions a;
  a.Set("height", "4");
  a.Set("split_budget_fraction", "0.25");
  MethodOptions b;
  b.Set("split_budget_fraction", "0.250");
  b.Set("height", "4");
  EXPECT_EQ(CanonicalOptionsText("kdtree", a),
            CanonicalOptionsText("kdtree", b));
  EXPECT_EQ(CanonicalOptionsText("ug", {}), "");
}

TEST(SynopsisCacheBytesTest, ResidentBytesTrackInsertEvictAndClear) {
  const PointSet points = TestPoints();
  SynopsisCache cache(2);
  const auto fit = [&] { return FitUg(points, 1); };
  EXPECT_EQ(cache.stats().resident_bytes, 0u);

  cache.GetOrFit(KeyFor(1), fit);
  const std::size_t one = cache.stats().resident_bytes;
  // The serialized envelope size of one ug synopsis.
  std::ostringstream envelope;
  ASSERT_TRUE(fit()->Save(envelope).ok());
  EXPECT_EQ(one, envelope.str().size());

  cache.GetOrFit(KeyFor(2), fit);
  const std::size_t two = cache.stats().resident_bytes;
  EXPECT_GT(two, one);

  // Evicting key 1 releases exactly its contribution.
  cache.GetOrFit(KeyFor(3), fit);
  EXPECT_EQ(cache.stats().resident_bytes, two);  // Same-size synopses swap.
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.Clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(SynopsisCacheBytesTest, ByteCapEvictsPastCapacityButKeepsNewest) {
  const PointSet points = TestPoints();
  // Entry capacity 8, but a 1-byte budget: every insert overflows it, so
  // the cache holds exactly the most recent entry (never zero — the cap
  // must not turn the cache into a fit-every-time no-op).
  SynopsisCache cache(8, SpillOptions{}, /*max_resident_bytes=*/1);
  const auto fit = [&] { return FitUg(points, 1); };
  for (std::uint64_t k = 1; k <= 4; ++k) cache.GetOrFit(KeyFor(k), fit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_NE(cache.Lookup(KeyFor(4)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);

  // A generous budget holds everything the entry capacity allows.
  SynopsisCache roomy(8, SpillOptions{}, /*max_resident_bytes=*/1 << 30);
  for (std::uint64_t k = 1; k <= 4; ++k) roomy.GetOrFit(KeyFor(k), fit);
  EXPECT_EQ(roomy.size(), 4u);
  EXPECT_EQ(roomy.stats().evictions, 0u);
}

TEST(SynopsisCacheBytesTest, SpillByteCountersTrackWritesAndReads) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "privtree_cache_bytes";
  fs::remove_all(dir);
  const PointSet points = TestPoints();
  {
    SynopsisCache cache(1, SpillOptions{dir.string(), 16});
    cache.GetOrFit(KeyFor(1), [&] { return FitUg(points, 1); });
    cache.GetOrFit(KeyFor(2), [&] { return FitUg(points, 2); });  // Evicts 1.
    cache.FlushSpill();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.spill_writes, 1u);
    EXPECT_GT(stats.spill_bytes_written, 0u);
    EXPECT_EQ(stats.spill_bytes_read, 0u);
    // The counter is the real on-disk footprint.
    std::size_t on_disk = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      on_disk += static_cast<std::size_t>(fs::file_size(entry.path()));
    }
    EXPECT_EQ(stats.spill_bytes_written, on_disk);

    // Rehydrating key 1 reads those bytes back.
    cache.GetOrFit(KeyFor(1), [&] {
      ADD_FAILURE() << "spilled key was re-fitted";
      return FitUg(points, 1);
    });
    EXPECT_EQ(cache.stats().spill_hits, 1u);
    EXPECT_GT(cache.stats().spill_bytes_read, 0u);
    EXPECT_LE(cache.stats().spill_bytes_read,
              cache.stats().spill_bytes_written);
  }
  fs::remove_all(dir);
}

TEST(SynopsisCacheKeyTest, DatasetFingerprintSeparatesDatasets) {
  const PointSet a = TestPoints(300, 0xDA7A);
  const PointSet b = TestPoints(300, 0xDA7B);   // Different coordinates.
  const PointSet c = TestPoints(301, 0xDA7A);   // Extra point.
  const Box unit = Box::UnitCube(2);
  const std::uint64_t fa = DatasetFingerprint(a, unit);
  EXPECT_EQ(fa, DatasetFingerprint(a, unit));  // Deterministic.
  EXPECT_NE(fa, DatasetFingerprint(b, unit));
  EXPECT_NE(fa, DatasetFingerprint(c, unit));
  // The declared domain is part of the release's identity too.
  const Box wide({0.0, 0.0}, {2.0, 1.0});
  EXPECT_NE(fa, DatasetFingerprint(a, wide));
}

}  // namespace
}  // namespace privtree::serve
