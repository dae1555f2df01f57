// Google-benchmark microbenchmarks of the library's hot paths: Laplace
// sampling, Morton counting, PrivTree construction (the library builder
// and the served Method::Fit), range queries (the single-query descent and
// the served batch kernel, and one in-process engine request around it),
// the grid batch-query paths one at a time, PST construction.
// These are engineering benchmarks (not paper artifacts) used to keep the
// reproduction fast enough for the paper-scale sweeps.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/privtree.h"
#include "core/privtree_params.h"
#include "data/seq_gen.h"
#include "data/spatial_gen.h"
#include "dp/budget.h"
#include "dp/distributions.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/grid.h"
#include "hist/grid_kernels.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/tree_batch.h"
#include "seq/pst_privtree.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "spatial/flat_fit.h"
#include "spatial/morton_index.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

void BM_SampleLaplace(benchmark::State& state) {
  Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) {
    sink += SampleLaplace(rng, 2.0);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SampleLaplace);

void BM_MortonIndexBuild(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateGowallaLike(n, rng);
  for (auto _ : state) {
    MortonIndex index(points, Box::UnitCube(2));
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MortonIndexBuild)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_MortonCountPrefix(benchmark::State& state) {
  Rng rng(3);
  const PointSet points = GenerateGowallaLike(100000, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  MortonKey prefix = 0b1001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CountPrefix(prefix, 4));
  }
}
BENCHMARK(BM_MortonCountPrefix);

void BM_PrivTreeBuild(benchmark::State& state) {
  Rng data_rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateRoadLike(n, data_rng);
  Rng rng(5);
  for (auto _ : state) {
    const auto hist =
        BuildPrivTreeHistogram(points, Box::UnitCube(2), 1.0, {}, rng);
    benchmark::DoNotOptimize(hist.tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrivTreeBuild)->Arg(10000)->Arg(100000)->Arg(1000000);

/// BM_PrivTreeBuild without the index build: the per-fit cost once a
/// dataset's index is shared (release::Dataset::morton_index()).
void BM_PrivTreeFitSharedIndex(benchmark::State& state) {
  Rng data_rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateRoadLike(n, data_rng);
  const MortonIndex index(points, Box::UnitCube(2));
  Rng rng(5);
  for (auto _ : state) {
    const auto hist =
        BuildPrivTreeHistogram(index, Box::UnitCube(2), 1.0, {}, rng);
    benchmark::DoNotOptimize(hist.tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrivTreeFitSharedIndex)->Arg(100000)->Arg(1000000);

/// The served fit kernel, FitPrivTreeFlat, over 1M road-like points and a
/// prebuilt index at the ε of argument range(0) in the paper's sweep.
void BM_FitPrivTreeFlat(benchmark::State& state) {
  static constexpr double kEpsSweep[] = {0.05, 0.1, 0.2, 0.4, 0.8, 1.6};
  const double epsilon = kEpsSweep[state.range(0)];
  Rng data_rng(4);
  const PointSet points = GenerateRoadLike(1000000, data_rng);
  const MortonIndex index(points, Box::UnitCube(2));
  Rng rng(5);
  std::size_t nodes = 0;
  for (auto _ : state) {
    const FlatSpatialTree tree =
        FitPrivTreeFlat(index, Box::UnitCube(2), epsilon, {}, rng);
    nodes = tree.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.SetLabel("eps=" + std::to_string(epsilon).substr(0, 4) +
                 " nodes=" + std::to_string(nodes));
}
BENCHMARK(BM_FitPrivTreeFlat)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

/// The served fit: registry `privtree` Method::Fit at ε = 1 over a Dataset
/// whose shared index is already built — the flat fit kernel, the count
/// release, the payload encode and the query index, and freeing the
/// release.
void BM_SpatialTreeMethodFit(benchmark::State& state) {
  Rng data_rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateRoadLike(n, data_rng);
  const release::Dataset data(points, Box::UnitCube(2));
  benchmark::DoNotOptimize(data.morton_index().size());
  Rng rng(5);
  for (auto _ : state) {
    auto method = release::GlobalMethodRegistry().Create("privtree");
    PrivacyBudget budget(1.0);
    method->Fit(data, budget, rng);
    benchmark::DoNotOptimize(method->Metadata().synopsis_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialTreeMethodFit)->Arg(100000)->Arg(1000000);

void BM_RangeQuery(benchmark::State& state) {
  Rng data_rng(6);
  const PointSet points = GenerateRoadLike(100000, data_rng);
  Rng rng(7);
  const auto hist =
      BuildPrivTreeHistogram(points, Box::UnitCube(2), 1.0, {}, rng);
  const auto queries =
      GenerateRangeQueries(Box::UnitCube(2), 256, kMediumQueries, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Query(queries[i++ & 255]));
  }
}
BENCHMARK(BM_RangeQuery);

/// The served tree kernel on one frame of `range(0)` medium boxes, over a
/// 1M-point road-like PrivTree at ε = 1 (the shape `query_hot` serves).
void BM_TreeQueryBatch(benchmark::State& state) {
  static const release::TreeBatchIndex index = [] {
    Rng data_rng(7);
    const PointSet points = GenerateRoadLike(1000000, data_rng);
    Rng rng(7);
    const auto hist =
        BuildPrivTreeHistogram(points, Box::UnitCube(2), 1.0, {}, rng);
    return release::TreeBatchIndex(
        hist.tree, hist.count,
        [](const SpatialCell& c) -> const Box& { return c.box; });
  }();
  Rng rng(8);
  const auto queries = GenerateRangeQueries(
      Box::UnitCube(2), static_cast<std::size_t>(state.range(0)),
      kMediumQueries, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(queries));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeQueryBatch)->Arg(1)->Arg(64)->Arg(8192);

/// The served tree kernel in three dimensions: one frame of `range(0)`
/// medium boxes over a PrivTree (fanout 8, ε = 1) of 200k points skewed
/// towards the low end of the first axis.
void BM_TreeQueryBatch3D(benchmark::State& state) {
  static const release::TreeBatchIndex index = [] {
    Rng data_rng(11);
    PointSet points(3);
    std::vector<double> p(3);
    for (std::size_t i = 0; i < 200000; ++i) {
      p[0] = data_rng.NextDouble() * data_rng.NextDouble();
      p[1] = data_rng.NextDouble();
      p[2] = data_rng.NextDouble();
      points.Add(p);
    }
    Rng rng(11);
    const auto hist =
        BuildPrivTreeHistogram(points, Box::UnitCube(3), 1.0, {}, rng);
    return release::TreeBatchIndex(
        hist.tree, hist.count,
        [](const SpatialCell& c) -> const Box& { return c.box; });
  }();
  Rng rng(12);
  const auto queries = GenerateRangeQueries(
      Box::UnitCube(3), static_cast<std::size_t>(state.range(0)),
      kMediumQueries, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(queries));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeQueryBatch3D)->Arg(64);

/// One in-process SubmitQueryBatch(...).Get() of `range(0)` medium boxes on
/// a cached `ug` release.  One box is answered on the calling thread; 64
/// boxes hop to the pool and back, so the hop shows beside the inline path.
void BM_EngineResidentQuery(benchmark::State& state) {
  Rng data_rng(9);
  const PointSet points = GenerateRoadLike(100000, data_rng);
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(4);
  server::AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  const server::FitSpec spec{"ug", {}, 1.0, 9};
  if (!engine.SubmitFit(spec).Get().status.ok()) {
    state.SkipWithError("ug fit failed");
    return;
  }
  Rng rng(10);
  const auto queries = GenerateRangeQueries(
      Box::UnitCube(2), static_cast<std::size_t>(state.range(0)),
      kMediumQueries, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.SubmitQueryBatch(spec, queries).Get().answers.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineResidentQuery)->Arg(1)->Arg(64);

/// One batch of 4000 medium boxes on a noisy 256x256 grid over 40k skewed
/// 2-d points, through one grid query path alone: 0 = the generic
/// reference (GridHistogram::QueryBatchReference), 1 = the flat kernel
/// (GridHistogram::QueryBatch's path).
void BM_GridQueryBatch(benchmark::State& state) {
  static const GridHistogram grid = [] {
    Rng data_rng(0x5EED);
    PointSet points(2);
    std::vector<double> p(2);
    for (std::size_t i = 0; i < 40000; ++i) {
      p[0] = data_rng.NextDouble() * data_rng.NextDouble();
      p[1] = data_rng.NextDouble();
      points.Add(p);
    }
    GridHistogram out =
        GridHistogram::FromPoints(points, Box::UnitCube(2), {256, 256});
    Rng noise(0xF00D);
    out.AddLaplaceNoise(2.0, noise);
    out.BuildPrefixSums();
    return out;
  }();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), 4000, kMediumQueries, query_rng);
  const Grid2DView view = grid.KernelView2D();
  std::vector<double> out(queries.size());
  for (auto _ : state) {
    if (state.range(0) == 0) {
      out = grid.QueryBatchReference(queries);
    } else {
      GridQueryBatch2DScalar(view, queries, out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_GridQueryBatch)->Arg(0)->Arg(1);

void BM_PrivatePstBuild(benchmark::State& state) {
  Rng data_rng(8);
  const SequenceDataset data =
      GenerateMsnbcLike(static_cast<std::size_t>(state.range(0)), data_rng)
          .Truncate(kMsnbcLTop);
  Rng rng(9);
  PrivatePstOptions options;
  options.l_top = kMsnbcLTop;
  for (auto _ : state) {
    const auto result = BuildPrivatePst(data, 1.0, options, rng);
    benchmark::DoNotOptimize(result.model.size());
  }
}
BENCHMARK(BM_PrivatePstBuild)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace privtree

BENCHMARK_MAIN();
