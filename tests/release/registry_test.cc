#include "release/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dp/budget.h"
#include "dp/rng.h"
#include "release/builtin_methods.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"

namespace privtree {
namespace {

PointSet MakePoints(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    // Mildly skewed so tree methods actually split.
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.NextDouble() * rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

TEST(RegistryTest, AllBuiltinsAreRegistered) {
  const auto names = release::GlobalMethodRegistry().Names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> want = {
      "privtree",  "simpletree", "ug",    "ag",           "kdtree",
      "dawa",      "hierarchy",  "wavelet",
      // The sequence pipeline (Sections 4–5) registers alongside.
      "pst_privtree", "ngram"};
  EXPECT_EQ(got, want);
}

TEST(RegistryTest, NamesFilterByKind) {
  auto& registry = release::GlobalMethodRegistry();
  const auto sequence = registry.Names(release::DatasetKind::kSequence);
  EXPECT_EQ(sequence,
            (std::vector<std::string>{"ngram", "pst_privtree"}));
  EXPECT_EQ(registry.Names(release::DatasetKind::kSpatial).size(), 8u);
  EXPECT_EQ(registry.Kind("privtree"), release::DatasetKind::kSpatial);
  EXPECT_EQ(registry.Kind("pst_privtree"),
            release::DatasetKind::kSequence);
  EXPECT_EQ(registry.Kind("ngram"), release::DatasetKind::kSequence);
}

TEST(RegistryTest, DescriptionsAreNonEmpty) {
  auto& registry = release::GlobalMethodRegistry();
  for (const std::string& name : registry.Names()) {
    EXPECT_FALSE(registry.Description(name).empty()) << name;
  }
}

// The advertised option keys must be exactly what each factory accepts:
// constructing with all allowed keys set must succeed (a factory rejecting
// an advertised key, or advertising a key it rejects, breaks user-facing
// validation).
TEST(RegistryTest, AllowedKeysAreAccepted) {
  auto& registry = release::GlobalMethodRegistry();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(registry.AllowedKeys(name).empty());
    release::MethodOptions options;
    for (const release::OptionKey& key : registry.AllowedKeys(name)) {
      options.Set(key.name, "1");  // Valid for int, double, and bool keys.
    }
    EXPECT_NE(registry.Create(name, options), nullptr);
  }
}

// Every registered name constructs, fits on a small 2-d dataset, and
// answers a smoke query; the whole round-trip is deterministic under a
// fixed seed.
TEST(RegistryTest, EveryMethodRoundTripsDeterministically) {
  const PointSet points = MakePoints(500, 2, 0x5EED);
  const Box domain = Box::UnitCube(2);
  const Box query({0.1, 0.2}, {0.4, 0.6});
  auto& registry = release::GlobalMethodRegistry();

  for (const std::string& name :
       registry.Names(release::DatasetKind::kSpatial)) {
    SCOPED_TRACE(name);
    release::MethodOptions options;
    if (name == "dawa" || name == "wavelet") {
      options.Set("target_total_cells", "4096");  // Keep the test fast.
    }

    double first = 0.0;
    for (int trial = 0; trial < 2; ++trial) {
      auto method = registry.Create(name, options);
      PrivacyBudget budget(1.0);
      Rng rng(0xF17);
      method->Fit(points, domain, budget, rng);

      // The Fit contract: the entire slice is consumed.
      EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
      const auto metadata = method->Metadata();
      EXPECT_EQ(metadata.method, name);
      EXPECT_EQ(metadata.dim, 2u);
      EXPECT_NEAR(metadata.epsilon_spent, 1.0, 1e-12);
      EXPECT_GT(metadata.synopsis_size, 0u);

      const double answer = method->Query(query);
      EXPECT_TRUE(std::isfinite(answer));
      if (trial == 0) {
        first = answer;
      } else {
        EXPECT_EQ(answer, first) << "non-deterministic under fixed seed";
      }
    }
  }
}

// QueryBatch must agree with per-query Query for every method, including
// the batched tree-sweep overrides.
TEST(RegistryTest, QueryBatchMatchesQuery) {
  const PointSet points = MakePoints(800, 2, 0xBA7C4);
  const Box domain = Box::UnitCube(2);
  std::vector<Box> queries;
  Rng qrng(0x9E37);
  for (int i = 0; i < 50; ++i) {
    const double x = qrng.NextDouble() * 0.8;
    const double y = qrng.NextDouble() * 0.8;
    queries.emplace_back(std::vector<double>{x, y},
                         std::vector<double>{x + 0.2 * qrng.NextDouble(),
                                             y + 0.2 * qrng.NextDouble()});
  }

  auto& registry = release::GlobalMethodRegistry();
  for (const std::string& name :
       registry.Names(release::DatasetKind::kSpatial)) {
    SCOPED_TRACE(name);
    release::MethodOptions options;
    if (name == "dawa" || name == "wavelet") {
      options.Set("target_total_cells", "4096");
    }
    auto method = registry.Create(name, options);
    PrivacyBudget budget(1.0);
    Rng rng(0xABCD);
    method->Fit(points, domain, budget, rng);

    const std::vector<double> batch = method->QueryBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const double single = method->Query(queries[q]);
      // Identical classification; only summation order may differ.
      EXPECT_NEAR(batch[q], single,
                  1e-9 * (1.0 + std::abs(single)))
          << "query " << q;
    }
  }
}

TEST(RegistryTest, RequiredDimMarksAgAsTwoDimensional) {
  auto& registry = release::GlobalMethodRegistry();
  EXPECT_EQ(registry.RequiredDim("ag"), 2u);
  EXPECT_EQ(registry.RequiredDim("privtree"), 0u);
  EXPECT_EQ(registry.RequiredDim("ug"), 0u);
}

TEST(RegistryTest, EntriesCarryDisplayAndDimMetadata) {
  auto& registry = release::GlobalMethodRegistry();
  EXPECT_EQ(registry.Get("privtree").display, "PrivTree");
  EXPECT_EQ(registry.Get("wavelet").display, "Privelet*");
  EXPECT_EQ(registry.Get("hierarchy").max_practical_dim, 2u);
  EXPECT_EQ(registry.Get("privtree").max_practical_dim, 0u);
  // The Morton-indexed trees cannot fit past the index's key width.
  EXPECT_EQ(registry.Get("privtree").max_dim, MortonIndex::kMaxDim);
  EXPECT_EQ(registry.Get("simpletree").max_dim, MortonIndex::kMaxDim);
  EXPECT_EQ(registry.Get("ug").max_dim, 0u);
}

TEST(RegistryTest, PrivateRegistryIsIndependent) {
  release::MethodRegistry registry;
  EXPECT_FALSE(registry.Contains("privtree"));
  release::RegisterBuiltinMethods(registry);
  EXPECT_TRUE(registry.Contains("privtree"));
  EXPECT_TRUE(registry.Contains("pst_privtree"));
  EXPECT_EQ(registry.Names().size(), 10u);
}

TEST(RegistryDeathTest, UnknownMethodAborts) {
  EXPECT_DEATH(release::GlobalMethodRegistry().Create("no-such-method"),
               "unknown method");
}

TEST(RegistryDeathTest, UnknownOptionKeyAborts) {
  release::MethodOptions options;
  options.Set("not_an_option", "1");
  EXPECT_DEATH(release::GlobalMethodRegistry().Create("ug", options),
               "unknown method option");
}

TEST(RegistryDeathTest, DuplicateRegistrationAborts) {
  release::MethodRegistry registry;
  release::RegisterBuiltinMethods(registry);
  EXPECT_DEATH(release::RegisterBuiltinMethods(registry), "duplicate");
}

}  // namespace
}  // namespace privtree
