// The serving layer's headline guarantee: sharding fits across any number
// of workers yields bit-for-bit the same released synopses as the serial
// path, because every FitJob carries its own pre-forked Rng.  Also covers
// cache integration (second sweep = all hits) and sharded QueryBatch
// equivalence.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "release/method.h"
#include "release/registry.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::serve {
namespace {

PointSet TestPoints() {
  Rng rng(0x9017);
  PointSet points(2);
  std::vector<double> p(2);
  for (int i = 0; i < 900; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::vector<Box> TestQueries(std::size_t count = 60) {
  std::vector<Box> queries;
  Rng rng(0x0B0E5);
  for (std::size_t i = 0; i < count; ++i) {
    const double x = rng.NextDouble() * 0.8;
    const double y = rng.NextDouble() * 0.8;
    const double w = 0.02 + rng.NextDouble() * 0.2;
    queries.emplace_back(std::vector<double>{x, y},
                         std::vector<double>{x + w, y + w});
  }
  return queries;
}

/// Every registered method that fits 2-d data, across an ε × seed sweep.
std::vector<FitJob> SweepJobs() {
  std::vector<FitJob> jobs;
  for (const std::string& name :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    for (const double epsilon : {0.5, 1.0}) {
      Rng master(0x5EED ^ std::hash<std::string>{}(name));
      for (int rep = 0; rep < 2; ++rep) {
        jobs.push_back({name, {}, epsilon, master.Fork()});
      }
    }
  }
  return jobs;
}

TEST(ParallelRunnerTest, AnyWorkerCountMatchesSerialBitForBit) {
  const PointSet points = TestPoints();
  const Box domain = Box::UnitCube(2);
  const std::vector<Box> queries = TestQueries();

  // The serial reference: fit each job inline, no pool involved.
  std::vector<std::vector<double>> reference;
  for (const FitJob& job : SweepJobs()) {
    auto method = release::GlobalMethodRegistry().Create(job.method);
    PrivacyBudget budget(job.epsilon);
    Rng rng = job.rng;
    method->Fit(points, domain, budget, rng);
    reference.push_back(method->QueryBatch(queries));
  }

  for (const std::size_t workers : {1u, 8u}) {
    ThreadPool pool(workers);
    const ParallelRunner runner(pool);
    const auto fitted = runner.FitAll(points, domain, SweepJobs());
    ASSERT_EQ(fitted.size(), reference.size());
    for (std::size_t i = 0; i < fitted.size(); ++i) {
      const std::vector<double> answers = fitted[i]->QueryBatch(queries);
      ASSERT_EQ(answers.size(), reference[i].size());
      for (std::size_t q = 0; q < answers.size(); ++q) {
        // Bit-for-bit: the schedule must not perturb any synopsis.
        ASSERT_EQ(answers[q], reference[i][q])
            << "workers=" << workers << " job=" << i << " query=" << q;
      }
    }
  }
}

TEST(ParallelRunnerTest, MetadataIdenticalAcrossWorkerCounts) {
  const PointSet points = TestPoints();
  const Box domain = Box::UnitCube(2);
  ThreadPool pool1(1), pool8(8);
  const auto a = ParallelRunner(pool1).FitAll(points, domain, SweepJobs());
  const auto b = ParallelRunner(pool8).FitAll(points, domain, SweepJobs());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ma = a[i]->Metadata();
    const auto mb = b[i]->Metadata();
    EXPECT_EQ(ma.method, mb.method);
    EXPECT_EQ(ma.synopsis_size, mb.synopsis_size);
    EXPECT_EQ(ma.height, mb.height);
    EXPECT_EQ(ma.epsilon_spent, mb.epsilon_spent);
  }
}

TEST(ParallelRunnerTest, SecondSweepIsAllCacheHits) {
  const PointSet points = TestPoints();
  const Box domain = Box::UnitCube(2);
  ThreadPool pool(4);
  SynopsisCache cache(64);
  const ParallelRunner runner(pool, &cache);

  const auto first = runner.FitAllTimed(points, domain, SweepJobs());
  for (const FitResult& r : first) EXPECT_FALSE(r.cache_hit);
  const std::size_t misses = cache.stats().misses;
  EXPECT_EQ(misses, first.size());

  const auto second = runner.FitAllTimed(points, domain, SweepJobs());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].cache_hit) << "job " << i;
    // Hit means the very same immutable synopsis object is shared.
    EXPECT_EQ(second[i].method.get(), first[i].method.get());
  }
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(cache.stats().hits, second.size());
}

TEST(ParallelRunnerTest, ParallelQueryBatchMatchesSingleBatch) {
  const PointSet points = TestPoints();
  const Box domain = Box::UnitCube(2);
  ThreadPool pool(8);
  const ParallelRunner runner(pool);
  const std::vector<Box> queries = TestQueries(500);
  for (const std::string& name :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    Rng master(0xABCD);
    const auto fitted =
        runner.FitAll(points, domain, {{name, {}, 1.0, master.Fork()}});
    const std::vector<double> whole = fitted[0]->QueryBatch(queries);
    const std::vector<double> sharded =
        ParallelQueryBatch(pool, *fitted[0], queries);
    ASSERT_EQ(whole.size(), sharded.size());
    for (std::size_t q = 0; q < whole.size(); ++q) {
      ASSERT_EQ(whole[q], sharded[q]) << name << " query " << q;
    }
  }
  EXPECT_TRUE(ParallelQueryBatch(pool, *runner.FitAll(
      points, domain, {{"ug", {}, 1.0, Rng(1)}})[0],
      std::span<const Box>{}).empty());
}

}  // namespace
}  // namespace privtree::serve
