// The universal synopsis envelope: save → LoadMethod → QueryBatch must be
// bit-for-bit identical to the fitted in-memory synopsis for every registry
// method, loaded metadata must reproduce the fit's accounting exactly, and
// every corrupted or foreign input — truncation, bit flips, wrong magic,
// crafted headers, the retired v1 text and v2 envelope formats — must fail
// with a clean Status, never a crash or a partial synopsis.
#include "release/serialization.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "release/options.h"
#include "release/registry.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::release {
namespace {

PointSet TestPoints(std::size_t n = 4000, std::uint64_t seed = 0x5EED) {
  Rng rng(seed);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();  // Skewed, so trees split.
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

/// The retired v1 text formats, as their writers produced them.
constexpr char kV1HistogramText[] =
    "privtree-histogram v1\ndim 2\nnodes 3\n-1 10.5 0 1 0 1\n"
    "0 4.25 0 0.5 0 1\n0 6.25 0.5 1 0 1\n";
constexpr char kV1PstText[] =
    "privtree-pst v1\nalphabet 1\nnodes 3\n-1 2 1\n0 1 0\n0 1 1\n";

struct MethodCase {
  std::string name;
  MethodOptions options;
};

/// Every registry method, with small grids so the suite stays fast, plus
/// non-default-option variants that exercise the options round-trip.
std::vector<MethodCase> AllCases() {
  return {
      {"privtree", {}},
      {"privtree", {{"dims_per_split", "1"}}},
      {"simpletree", {{"height", "5"}}},
      {"ug", {{"cell_scale", "2"}}},
      {"ag", {}},
      {"kdtree", {{"height", "6"}}},
      {"dawa", {{"target_total_cells", "4096"}}},
      {"hierarchy", {}},
      {"hierarchy", {{"constrained_inference", "false"}}},
      {"wavelet", {{"target_total_cells", "4096"}}},
  };
}

std::unique_ptr<Method> FitCase(const MethodCase& c, const PointSet& points,
                                std::uint64_t seed) {
  auto method = GlobalMethodRegistry().Create(c.name, c.options);
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

std::string SaveToString(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return std::move(out).str();
}

Result<std::unique_ptr<Method>> LoadFromString(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadMethod(in);
}

TEST(SynopsisSerializationTest, EveryMethodRoundTripsBitForBit) {
  const PointSet points = TestPoints();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries = GenerateRangeQueries(
      Box::UnitCube(2), 60, kMediumQueries, query_rng);

  std::uint64_t seed = 17;
  for (const MethodCase& c : AllCases()) {
    SCOPED_TRACE(c.name + " [" + c.options.ToString() + "]");
    const auto fitted = FitCase(c, points, seed++);
    const std::string bytes = SaveToString(*fitted);

    auto loaded = LoadFromString(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // Accounting must be restored identically to the fresh fit.
    const MethodMetadata want = fitted->Metadata();
    const MethodMetadata got = loaded.value()->Metadata();
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.dim, want.dim);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.synopsis_size, want.synopsis_size);
    EXPECT_EQ(got.height, want.height);

    // And every served answer must match bit for bit — both the batch path
    // and the scalar path.
    const std::vector<double> want_batch = fitted->QueryBatch(queries);
    const std::vector<double> got_batch = loaded.value()->QueryBatch(queries);
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got_batch[i], want_batch[i]) << "query " << i;
    }
    EXPECT_EQ(loaded.value()->Query(queries.front()),
              fitted->Query(queries.front()));
  }
}

TEST(SynopsisSerializationTest, SaveBeforeFitIsRejected) {
  for (const std::string& name : GlobalMethodRegistry().Names()) {
    const auto method = GlobalMethodRegistry().Create(name);
    std::ostringstream out;
    EXPECT_FALSE(method->Save(out).ok()) << name;
  }
}

TEST(SynopsisSerializationTest, MissingFileIsIOError) {
  const auto loaded = LoadMethodFromFile("/nonexistent/synopsis.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SynopsisSerializationTest, LoadedSynopsisRoundTripsAgain) {
  // Save → load → save must reproduce the original bytes: nothing about
  // the release — tree structure, boxes, counts — is lost in a load.
  const PointSet points = TestPoints(2000);
  std::uint64_t seed = 29;
  for (const MethodCase& c : AllCases()) {
    SCOPED_TRACE(c.name + " [" + c.options.ToString() + "]");
    const std::string bytes = SaveToString(*FitCase(c, points, seed++));
    auto loaded = LoadFromString(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SaveToString(*loaded.value()), bytes);
  }
}

class SynopsisCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet points = TestPoints(1500);
    tree_bytes_ = SaveToString(*FitCase({"privtree", {}}, points, 7));
    grid_bytes_ = SaveToString(
        *FitCase({"dawa", {{"target_total_cells", "256"}}}, points, 7));
  }

  std::string tree_bytes_;
  std::string grid_bytes_;
};

TEST_F(SynopsisCorruptionTest, EveryTruncationFailsCleanly) {
  for (const std::string* bytes : {&tree_bytes_, &grid_bytes_}) {
    const std::size_t step = std::max<std::size_t>(1, bytes->size() / 211);
    for (std::size_t len = 0; len < bytes->size(); len += step) {
      auto loaded = LoadFromString(bytes->substr(0, len));
      EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    }
  }
}

TEST_F(SynopsisCorruptionTest, EveryBitFlipFailsCleanly) {
  // The body checksum (and the header field checks) must catch any single
  // bit flip; a flipped released count silently served would be a wrong
  // answer with no diagnostic.
  for (const std::string* original : {&tree_bytes_, &grid_bytes_}) {
    const std::size_t step = std::max<std::size_t>(1, original->size() / 149);
    for (std::size_t pos = 0; pos < original->size(); pos += step) {
      std::string flipped = *original;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (pos % 8)));
      auto loaded = LoadFromString(flipped);
      EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    }
  }
}

TEST_F(SynopsisCorruptionTest, WrongMagicAndGarbageAreRejected) {
  // Only v3 loads.  The retired formats are refused like any other foreign
  // bytes: the v1 text files (spatial tree and PST) and a v2-header
  // envelope (version 2, no header checksum: bytes [28, 36) of a v3 file
  // dropped; the grid payload is the same in both versions).
  std::string v2 = grid_bytes_;
  v2[8] = 2;
  v2.erase(28, 8);
  for (const std::string& bytes :
       {std::string(), std::string("PRIVTSYM"), std::string("garbage"),
        std::string(200, '\0'), std::string(200, '\xff'),
        std::string(kV1HistogramText), std::string(kV1PstText), v2}) {
    auto loaded = LoadFromString(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST_F(SynopsisCorruptionTest, TrailingBytesAreRejected) {
  auto loaded = LoadFromString(tree_bytes_ + "x");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SynopsisCorruptionTest, UnknownMethodIsRejected) {
  std::ostringstream out;
  MethodMetadata metadata;
  metadata.method = "nope";
  metadata.dim = 2;
  ASSERT_TRUE(WriteSynopsis(out, metadata, "", "").ok());
  auto loaded = LoadFromString(std::move(out).str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SynopsisCorruptionTest, UnknownOptionKeyIsRejected) {
  std::ostringstream out;
  MethodMetadata metadata;
  metadata.method = "ug";
  metadata.dim = 2;
  ASSERT_TRUE(WriteSynopsis(out, metadata, "no_such_key=1", "").ok());
  auto loaded = LoadFromString(std::move(out).str());
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace privtree::release
