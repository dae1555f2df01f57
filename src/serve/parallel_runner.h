// Sharded synopsis fitting and batched query serving.
//
// A FitJob carries *all* the randomness its fit will consume as an explicit
// Rng value, derived deterministically by the caller (typically by forking
// a master seed once per job on one thread).  Because no job draws from a
// shared stream at execution time, the released synopses are bit-for-bit
// identical to the serial path at any worker count and any completion
// order — the property the determinism tests in tests/serve/ pin down.
//
// The runner optionally routes every fit through a SynopsisCache, so
// repeated sweeps over the same (dataset, method, options, ε, randomness)
// configurations — different query bands over one release, a re-run of a
// bench table — pay for each fit once.  Warming the cache ahead of the
// queries is the serving engine's job (server::AsyncEngine::Warm), under
// its admission control.
#ifndef PRIVTREE_SERVE_PARALLEL_RUNNER_H_
#define PRIVTREE_SERVE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dp/rng.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/options.h"
#include "release/sequence_query.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::serve {

/// One independent fit configuration: which method, with which options, how
/// much ε, and the exact randomness stream to consume.
struct FitJob {
  std::string method;               ///< Registry name ("privtree", ...).
  release::MethodOptions options;   ///< Method options (may be empty).
  double epsilon = 1.0;             ///< Total ε for this release.
  Rng rng;                          ///< The job's private randomness.
};

/// One fitted job plus serving telemetry.
struct FitResult {
  std::shared_ptr<const release::Method> method;
  double fit_seconds = 0.0;  ///< Wall time of the fit; 0 on a cache hit.
  bool cache_hit = false;    ///< True when the synopsis came from the cache.
};

/// Shards independent fits across a ThreadPool, optionally memoized.
class ParallelRunner {
 public:
  /// `pool` and `cache` (when non-null) must outlive the runner.
  explicit ParallelRunner(ThreadPool& pool, SynopsisCache* cache = nullptr);

  /// Fits every job (result[i] belongs to jobs[i]) over `data` — spatial or
  /// sequence — and blocks until all are done.  Each fit consumes exactly
  /// jobs[i].epsilon and checks that the method drained its budget slice.
  /// Job method names must match the dataset's kind (registry Entry::kind).
  std::vector<std::shared_ptr<const release::Method>> FitAll(
      const release::Dataset& data, std::vector<FitJob> jobs) const;

  /// Spatial convenience.
  std::vector<std::shared_ptr<const release::Method>> FitAll(
      const PointSet& points, const Box& domain,
      std::vector<FitJob> jobs) const;

  /// As FitAll, with per-job wall time and cache attribution (the runtime
  /// benches and serving telemetry read these).
  std::vector<FitResult> FitAllTimed(const release::Dataset& data,
                                     std::vector<FitJob> jobs) const;
  std::vector<FitResult> FitAllTimed(const PointSet& points, const Box& domain,
                                     std::vector<FitJob> jobs) const;

  ThreadPool& pool() const { return pool_; }
  SynopsisCache* cache() const { return cache_; }

 private:
  FitResult FitOne(const release::Dataset& data,
                   std::uint64_t dataset_fingerprint, const FitJob& job) const;

  ThreadPool& pool_;
  SynopsisCache* cache_;
};

/// Fits one job with the runner's fit discipline — create via the global
/// registry, drain exactly `job.epsilon`, consume the job's private Rng
/// copy — memoized through `cache` when non-null.  This is the one fit
/// path shared by ParallelRunner and the async serving engine
/// (server/async_engine.h), so every serving surface releases bit-for-bit
/// identical synopses for either dataset kind.
FitResult FitSynopsis(const release::Dataset& data,
                      std::uint64_t dataset_fingerprint, const FitJob& job,
                      SynopsisCache* cache);

/// Answers `queries` through method.QueryBatch, sharded into contiguous
/// chunks across the pool.  Every built-in backend computes each query's
/// answer independently of its batch neighbours, so the result is identical
/// to a single QueryBatch call at any worker count.
std::vector<double> ParallelQueryBatch(ThreadPool& pool,
                                       const release::Method& method,
                                       std::span<const Box> queries);

/// The sequence counterpart: shards a SequenceQuery workload the same way.
/// Note that the sequence batch path memoizes top-k mining per QueryBatch
/// *call*, so a top-k-heavy workload is cheaper submitted as one unsharded
/// batch (what the AsyncEngine and the CLI do); shard when the workload is
/// dominated by per-string frequency/prefix chains.
std::vector<double> ParallelQueryBatch(
    ThreadPool& pool, const release::Method& method,
    std::span<const release::SequenceQuery> queries);

/// The serving thread count: the last SetDefaultThreadCount value, else the
/// PRIVTREE_THREADS environment variable, else 1.
std::size_t DefaultThreadCount();

/// Overrides DefaultThreadCount for this process (CLI/bench --threads
/// flags).  Call before the first SharedPool() use.
void SetDefaultThreadCount(std::size_t threads);

/// A process-wide pool of DefaultThreadCount() workers, created on first
/// use.  Registry-driven sweeps (eval/runner) draw from it so every bench
/// picks up --threads/PRIVTREE_THREADS for free.
ThreadPool& SharedPool();

/// A process-wide synopsis cache (capacity PRIVTREE_CACHE_CAPACITY, default
/// 64 synopses), created on first use.
SynopsisCache& SharedSynopsisCache();

}  // namespace privtree::serve

#endif  // PRIVTREE_SERVE_PARALLEL_RUNNER_H_
