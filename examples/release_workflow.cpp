// The full data-release workflow a curator would run:
//
//   1. load the sensitive points from CSV (here: generated and saved
//      first, standing in for the real file),
//   2. fit an ε-DP synopsis through the release registry,
//   3. persist the synopsis in the synopsis envelope — THIS file is what
//      gets published; it records the method name and the ε it spent,
//   4. (consumer side) load the synopsis and answer queries with no
//      access to the original data.
#include <cstdio>
#include <string>

#include "data/csv.h"
#include "data/spatial_gen.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "release/registry.h"
#include "release/serialization.h"

int main() {
  const std::string data_csv = "/tmp/privtree_example_points.csv";
  const std::string synopsis_path = "/tmp/privtree_example.synopsis";
  privtree::Rng rng(31);

  // --- Curator side -------------------------------------------------
  {
    const privtree::PointSet sensitive =
        privtree::GenerateRoadLike(120000, rng);
    if (auto s = privtree::SavePointsCsv(data_csv, sensitive); !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  auto loaded_points = privtree::LoadPointsCsv(data_csv, 2);
  if (!loaded_points.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded_points.status().ToString().c_str());
    return 1;
  }
  std::printf("curator: loaded %zu sensitive points from %s\n",
              loaded_points.value().size(), data_csv.c_str());

  {
    auto synopsis =
        privtree::release::GlobalMethodRegistry().Create("privtree");
    privtree::PrivacyBudget budget(/*epsilon=*/1.0);
    synopsis->Fit(loaded_points.value(), privtree::Box::UnitCube(2), budget,
                  rng);
    if (auto s = privtree::release::SaveMethodToFile(*synopsis,
                                                     synopsis_path);
        !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("curator: published %zu-node synopsis to %s\n",
                synopsis->Metadata().synopsis_size, synopsis_path.c_str());
  }

  // --- Consumer side ------------------------------------------------
  auto published = privtree::release::LoadMethodFromFile(synopsis_path);
  if (!published.ok()) {
    std::fprintf(stderr, "consumer load failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  const auto metadata = published.value()->Metadata();
  std::printf("\nconsumer: loaded a %s release (epsilon spent = %g);\n"
              "answering queries from the synopsis alone:\n",
              metadata.method.c_str(), metadata.epsilon_spent);
  const privtree::Box queries[] = {
      privtree::Box({0.0, 0.0}, {0.25, 0.25}),
      privtree::Box({0.4, 0.4}, {0.6, 0.6}),
      privtree::Box({0.1, 0.7}, {0.35, 0.95}),
  };
  for (const auto& q : queries) {
    std::printf("  count%-32s ~= %.0f\n", q.ToString().c_str(),
                published.value()->Query(q));
  }

  std::remove(data_csv.c_str());
  std::remove(synopsis_path.c_str());
  return 0;
}
