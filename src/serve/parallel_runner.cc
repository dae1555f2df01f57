#include "serve/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "dp/budget.h"
#include "dp/check.h"
#include "release/registry.h"

namespace privtree::serve {

ParallelRunner::ParallelRunner(ThreadPool& pool, SynopsisCache* cache)
    : pool_(pool), cache_(cache) {}

FitResult FitSynopsis(const release::Dataset& data,
                      std::uint64_t dataset_fingerprint, const FitJob& job,
                      SynopsisCache* cache) {
  FitResult result;
  const auto build = [&]() -> std::shared_ptr<const release::Method> {
    const auto start = std::chrono::steady_clock::now();
    auto method =
        release::GlobalMethodRegistry().Create(job.method, job.options);
    PrivacyBudget budget(job.epsilon);
    Rng rng = job.rng;  // Private copy: the job stays reusable.
    method->Fit(data, budget, rng);
    // The Fit contract: the method drains the slice it was handed.
    PRIVTREE_CHECK_LE(budget.remaining(), 1e-12 * job.epsilon);
    result.fit_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.cache_hit = false;
    return std::shared_ptr<const release::Method>(std::move(method));
  };
  if (cache == nullptr) {
    result.method = build();
    return result;
  }
  result.cache_hit = true;  // build() resets this if it actually runs.
  const SynopsisKey key{dataset_fingerprint, job.method,
                        CanonicalOptionsText(job.method, job.options),
                        job.epsilon, job.rng.Fingerprint()};
  result.method = cache->GetOrFit(key, build);
  return result;
}

FitResult ParallelRunner::FitOne(const release::Dataset& data,
                                 std::uint64_t dataset_fingerprint,
                                 const FitJob& job) const {
  return FitSynopsis(data, dataset_fingerprint, job, cache_);
}

std::vector<FitResult> ParallelRunner::FitAllTimed(
    const release::Dataset& data, std::vector<FitJob> jobs) const {
  std::vector<FitResult> fitted(jobs.size());
  if (jobs.empty()) return fitted;
  const std::uint64_t fingerprint =
      cache_ != nullptr ? data.Fingerprint() : 0;
  pool_.ParallelFor(jobs.size(), [&](std::size_t i) {
    fitted[i] = FitOne(data, fingerprint, jobs[i]);
  });
  return fitted;
}

std::vector<FitResult> ParallelRunner::FitAllTimed(
    const PointSet& points, const Box& domain, std::vector<FitJob> jobs) const {
  return FitAllTimed(release::Dataset(points, domain), std::move(jobs));
}

std::vector<std::shared_ptr<const release::Method>> ParallelRunner::FitAll(
    const release::Dataset& data, std::vector<FitJob> jobs) const {
  std::vector<FitResult> timed = FitAllTimed(data, std::move(jobs));
  std::vector<std::shared_ptr<const release::Method>> fitted;
  fitted.reserve(timed.size());
  for (FitResult& r : timed) fitted.push_back(std::move(r.method));
  return fitted;
}

std::vector<std::shared_ptr<const release::Method>> ParallelRunner::FitAll(
    const PointSet& points, const Box& domain,
    std::vector<FitJob> jobs) const {
  return FitAll(release::Dataset(points, domain), std::move(jobs));
}

namespace {

/// Shards any QueryBatch-shaped workload into contiguous chunks.
template <typename Query>
std::vector<double> ShardedQueryBatch(ThreadPool& pool,
                                      const release::Method& method,
                                      std::span<const Query> queries) {
  std::vector<double> answers(queries.size(), 0.0);
  if (queries.empty()) return answers;
  // A few chunks per worker so an expensive straggler chunk rebalances.
  const std::size_t chunks =
      std::min(queries.size(), (pool.worker_count() + 1) * 4);
  pool.ParallelFor(chunks, [&](std::size_t c) {
    const std::size_t begin = queries.size() * c / chunks;
    const std::size_t end = queries.size() * (c + 1) / chunks;
    if (begin >= end) return;
    const std::vector<double> chunk =
        method.QueryBatch(queries.subspan(begin, end - begin));
    std::copy(chunk.begin(), chunk.end(), answers.begin() + begin);
  });
  return answers;
}

}  // namespace

std::vector<double> ParallelQueryBatch(ThreadPool& pool,
                                       const release::Method& method,
                                       std::span<const Box> queries) {
  return ShardedQueryBatch(pool, method, queries);
}

std::vector<double> ParallelQueryBatch(
    ThreadPool& pool, const release::Method& method,
    std::span<const release::SequenceQuery> queries) {
  return ShardedQueryBatch(pool, method, queries);
}

namespace {

std::atomic<std::size_t> g_default_threads{0};  // 0 = not set explicitly.

std::size_t EnvCount(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::strtol(value, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

}  // namespace

std::size_t DefaultThreadCount() {
  const std::size_t set = g_default_threads.load(std::memory_order_relaxed);
  if (set > 0) return set;
  return EnvCount("PRIVTREE_THREADS", 1);
}

void SetDefaultThreadCount(std::size_t threads) {
  g_default_threads.store(std::max<std::size_t>(threads, 1),
                          std::memory_order_relaxed);
}

ThreadPool& SharedPool() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

SynopsisCache& SharedSynopsisCache() {
  static SynopsisCache* cache = [] {
    const std::size_t capacity = EnvCount("PRIVTREE_CACHE_CAPACITY", 64);
    // PRIVTREE_CACHE_MAX_BYTES caps the summed serialized size of resident
    // synopses (0 = unbounded); compression shrinks each entry's footprint,
    // so the same budget now holds more synopses.
    const std::size_t max_bytes = EnvCount("PRIVTREE_CACHE_MAX_BYTES", 0);
    // PRIVTREE_CACHE_SPILL_DIR turns on the disk tier: evicted synopses
    // persist there (bounded by PRIVTREE_CACHE_SPILL_ENTRIES) and survive
    // process restarts.
    const char* spill_dir = std::getenv("PRIVTREE_CACHE_SPILL_DIR");
    if (spill_dir == nullptr || *spill_dir == '\0') {
      return new SynopsisCache(capacity, SpillOptions{}, max_bytes);
    }
    return new SynopsisCache(
        capacity,
        SpillOptions{spill_dir, EnvCount("PRIVTREE_CACHE_SPILL_ENTRIES", 256)},
        max_bytes);
  }();
  return *cache;
}

}  // namespace privtree::serve
