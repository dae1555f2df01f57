// Warm-restart recovery of the spill tier: a fresh SynopsisCache pointed at
// a directory holding truncated, bit-flipped, and zero-length envelopes must
// quarantine every corrupt file (renamed `.quarantined`, never deleted —
// the evidence survives for postmortems), drop stale `.tmp` files from
// writes the previous run never finished, and serve the surviving healthy
// envelopes bit-for-bit identically to a fresh fit.  This is the on-disk
// half of the crash-safety contract: a crash mid-spill-write can never
// poison serving.
//
// The warm scan probes envelope *headers* only (v3 files carry a header
// checksum + body size, release/serialization.h), so structural damage —
// truncation, zero length, a torn header — is caught at startup, while a
// silently bit-flipped body passes the scan and is quarantined at its
// first load, when the body checksum fails.  Either way the corruption
// never serves; only the detection point moved.  Files in the retired
// formats (v1 text, v2 envelopes) are quarantined by the scan too: the
// spill tier is a cache, so an old file costs a refit, not data.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
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

std::shared_ptr<const release::Method> FitUg(const PointSet& points,
                                             std::uint64_t seed) {
  auto method = release::GlobalMethodRegistry().Create("ug");
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

/// The v2-header form of a v3 envelope: version 2 and no header checksum
/// (bytes [28, 36) dropped).  The ug grid payload is the same in both
/// versions, so this is byte-for-byte what a v2 writer produced.
std::string AsV2Envelope(const release::Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  std::string bytes = std::move(out).str();
  bytes[8] = 2;
  bytes.erase(28, 8);
  return bytes;
}

SynopsisKey KeyFor(std::uint64_t rng_fingerprint) {
  return {/*dataset_fingerprint=*/42, "ug", "", 1.0, rng_fingerprint};
}

class SpillRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("privtree_recovery_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path SpillFileFor(std::uint64_t key) const {
    return dir_ / (SynopsisKeyFingerprint(KeyFor(key)) + ".synopsis");
  }

  /// Seeds the spill directory with envelopes for keys 1..4 (capacity-1
  /// memory tier: fitting key k evicts key k-1 onto disk; key 5 keeps
  /// key 4's eviction flowing, then dies in memory).
  void SeedSpillDirectory(const PointSet& points) {
    SynopsisCache cache(1, SpillOptions{dir(), 16});
    for (std::uint64_t k = 1; k <= 5; ++k) {
      cache.GetOrFit(KeyFor(k), [&] { return FitUg(points, k); });
    }
    cache.FlushSpill();
    ASSERT_EQ(cache.SpillFileCount(), 4u);
  }

  fs::path dir_;
};

TEST_F(SpillRecoveryTest, CorruptEnvelopesAreQuarantinedHealthyOnesServed) {
  const PointSet points = TestPoints();
  SeedSpillDirectory(points);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ASSERT_TRUE(fs::exists(SpillFileFor(k))) << "seed file for key " << k;
  }

  // The corruption matrix: truncate key 1 to half (a torn write that made
  // it through rename), flip one body byte of key 2 (silent media error),
  // empty key 3 entirely.  Key 4 stays healthy.  Add a stale temp file and
  // an unrelated file the scan must leave alone.
  {
    const auto truncated = SpillFileFor(1);
    const auto size = fs::file_size(truncated);
    fs::resize_file(truncated, size / 2);

    const auto flipped = SpillFileFor(2);
    std::fstream f(flipped, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(mid);
    f.write(&byte, 1);

    std::ofstream(SpillFileFor(3), std::ios::binary | std::ios::trunc);

    std::ofstream(dir_ / "dead.synopsis.tmp", std::ios::binary) << "torn";
    std::ofstream(dir_ / "README.txt") << "not a synopsis";

    // Keys 6..8 hold files in the retired formats: a v1 spatial text file,
    // a v1 PST text file and a v2 envelope of the key's own release.
    std::ofstream(SpillFileFor(6), std::ios::binary)
        << "privtree-histogram v1\ndim 2\nnodes 1\n-1 10 0 1 0 1\n";
    std::ofstream(SpillFileFor(7), std::ios::binary)
        << "privtree-pst v1\nalphabet 1\nnodes 3\n-1 2 1\n0 1 0\n0 1 1\n";
    std::ofstream(SpillFileFor(8), std::ios::binary)
        << AsV2Envelope(*FitUg(points, 8));
  }

  SynopsisCache cache(1, SpillOptions{dir(), 16});

  // The scan's header probes reject the structurally damaged files (keys 1
  // and 3) and the retired formats (keys 6..8); the body bit-flip (key 2)
  // is invisible to a header check and stays adopted for now.  The probes
  // read headers only — a few dozen bytes per file, never the payloads.
  EXPECT_EQ(cache.stats().spill_quarantined, 5u);
  EXPECT_EQ(cache.SpillFileCount(), 2u);
  EXPECT_GT(cache.stats().spill_scan_bytes, 0u);
  EXPECT_LE(cache.stats().spill_scan_bytes, 64u * 7u);
  EXPECT_FALSE(fs::exists(dir_ / "dead.synopsis.tmp"));
  EXPECT_TRUE(fs::exists(dir_ / "README.txt"));
  for (const std::uint64_t k : {1u, 3u, 6u, 7u, 8u}) {
    EXPECT_FALSE(fs::exists(SpillFileFor(k))) << "key " << k;
    const fs::path aside = SpillFileFor(k).string() + ".quarantined";
    EXPECT_TRUE(fs::exists(aside)) << "key " << k;
  }
  EXPECT_TRUE(fs::exists(SpillFileFor(2)));

  // The bit-flipped body fails its checksum at first load: the file is
  // quarantined then, the key re-fits exactly once, and serving still
  // never sees the corrupt bytes.
  int flipped_fits = 0;
  cache.GetOrFit(KeyFor(2), [&] {
    ++flipped_fits;
    return FitUg(points, 2);
  });
  EXPECT_EQ(flipped_fits, 1);
  EXPECT_EQ(cache.stats().spill_quarantined, 6u);
  EXPECT_FALSE(fs::exists(SpillFileFor(2)));
  EXPECT_TRUE(fs::exists(fs::path(SpillFileFor(2).string() +
                                  ".quarantined")));

  // The healthy envelope serves bit-for-bit without a re-fit.
  const auto served = cache.GetOrFit(KeyFor(4), [&] {
    ADD_FAILURE() << "healthy spilled key was re-fitted";
    return FitUg(points, 4);
  });
  EXPECT_EQ(cache.stats().spill_hits, 1u);
  const auto oracle = FitUg(points, 4);
  Rng query_rng(0xBEEF);
  const auto queries = GenerateRangeQueries(Box::UnitCube(2), 40,
                                            kMediumQueries, query_rng);
  const auto want = oracle->QueryBatch(queries);
  const auto got = served->QueryBatch(queries);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }

  // A quarantined key is simply a miss: it re-fits exactly once and the
  // spill tier heals (the fresh eviction writes a new, valid file).
  int fits = 0;
  cache.GetOrFit(KeyFor(1), [&] {
    ++fits;
    return FitUg(points, 1);
  });
  EXPECT_EQ(fits, 1);
  cache.FlushSpill();
  EXPECT_TRUE(fs::exists(SpillFileFor(4)));  // Evicted by key 1's fit.

  // A key whose file was in a retired format refits exactly once and
  // answers bit-for-bit like a fresh fit.
  for (const std::uint64_t k : {6u, 7u, 8u}) {
    int refits = 0;
    const auto refit = cache.GetOrFit(KeyFor(k), [&] {
      ++refits;
      return FitUg(points, k);
    });
    EXPECT_EQ(refits, 1) << "key " << k;
    EXPECT_EQ(refit->QueryBatch(queries),
              FitUg(points, k)->QueryBatch(queries))
        << "key " << k;
  }
}

TEST_F(SpillRecoveryTest, QuarantineIsIdempotentAcrossRestarts) {
  const PointSet points = TestPoints();
  SeedSpillDirectory(points);
  std::ofstream(SpillFileFor(2), std::ios::binary | std::ios::trunc);

  {
    SynopsisCache first(1, SpillOptions{dir(), 16});
    EXPECT_EQ(first.stats().spill_quarantined, 1u);
    EXPECT_EQ(first.SpillFileCount(), 3u);
  }
  // A second restart over the already-quarantined directory finds nothing
  // new to reject and keeps serving the healthy files.
  SynopsisCache second(1, SpillOptions{dir(), 16});
  EXPECT_EQ(second.stats().spill_quarantined, 0u);
  EXPECT_EQ(second.SpillFileCount(), 3u);
  const auto served = second.GetOrFit(KeyFor(3), [&] {
    ADD_FAILURE() << "healthy spilled key was re-fitted";
    return FitUg(points, 3);
  });
  const auto oracle = FitUg(points, 3);
  const Box q({0.1, 0.2}, {0.7, 0.8});
  EXPECT_EQ(served->Query(q), oracle->Query(q));
}

}  // namespace
}  // namespace privtree::serve
