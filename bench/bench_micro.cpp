// Google-benchmark microbenchmarks of the library's hot paths: Laplace
// sampling, Morton counting, PrivTree construction, range queries, PST
// construction.  These are engineering benchmarks (not paper artifacts)
// used to keep the reproduction fast enough for the paper-scale sweeps.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/privtree.h"
#include "core/privtree_params.h"
#include "data/seq_gen.h"
#include "data/spatial_gen.h"
#include "dp/distributions.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "seq/pst_privtree.h"
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
