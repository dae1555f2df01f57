// The AsyncEngine serving contract:
//   * answers are bit-for-bit identical to in-process ReleaseSession
//     execution, for every registered method, serial or under N client
//     threads submitting mixed fit/query traffic;
//   * a saturated queue sheds with a clean Unavailable status instead of
//     queueing unboundedly;
//   * a request whose deadline passes while queued is retired with
//     DeadlineExceeded and never executes;
//   * identical in-flight fits coalesce onto the cache's single-flight
//     path; Warm() fills the cache in the background through the same
//     queued body (one queue-wait sample per admitted warm fit);
//   * a one-box batch on a small cached release is answered before
//     SubmitQueryBatch returns, bit-for-bit as the pool would, while bigger
//     batches, uncached or large releases and sequence batches still wait
//     for the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "obs/metrics.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/session.h"
#include "seq/sequence.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kSeed = 0xC11;

PointSet TestPoints(std::size_t n = 400) {
  Rng rng(0xDA7A);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::vector<Box> TestQueries(std::size_t n = 40) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// The ground truth the engine must reproduce exactly: an in-process
/// session release with the same seed.
std::vector<double> SessionAnswers(const PointSet& points,
                                   const std::string& method,
                                   const std::vector<Box>& queries,
                                   std::uint64_t seed = kSeed) {
  release::ReleaseSession session(points, Box::UnitCube(2), kEpsilon, seed);
  return session.Release(method, kEpsilon)->QueryBatch(queries);
}

/// Blocks the (single) pool worker until Release() is called, so requests
/// pile up in the engine's queue.  Block() returns only once the worker is
/// provably inside the wedge task (otherwise a LIFO pop could service a
/// later-submitted request first and the test would race).
class Wedge {
 public:
  void Block(serve::ThreadPool& pool) {
    pool.Submit([this] {
      MutexLock lk(mu_);
      started_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(lk);
    });
    MutexLock lk(mu_);
    while (!started_) cv_.Wait(lk);
  }
  void Release() {
    {
      MutexLock lk(mu_);
      released_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool started_ GUARDED_BY(mu_) = false;
  bool released_ GUARDED_BY(mu_) = false;
};

TEST(AsyncEngineTest, EveryMethodMatchesReleaseSessionBitForBit) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  serve::ThreadPool pool(4);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  for (const std::string& method :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    const FitSpec spec{method, {}, kEpsilon, kSeed};
    const QueryBatchResponse& response =
        engine.SubmitQueryBatch(spec, queries).Get();
    ASSERT_TRUE(response.status.ok()) << method << ": "
                                      << response.status.ToString();
    const std::vector<double> want =
        SessionAnswers(points, method, queries);
    ASSERT_EQ(response.answers.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(response.answers[i], want[i])
          << method << " query " << i << " diverged from ReleaseSession";
    }
  }
}

TEST(AsyncEngineTest, FitReportsSessionAccounting) {
  const PointSet points = TestPoints();
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  const FitSpec spec{"privtree", {}, kEpsilon, kSeed};
  const FitResponse& first = engine.SubmitFit(spec).Get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.metadata.method, "privtree");
  EXPECT_EQ(first.metadata.dim, 2u);
  EXPECT_DOUBLE_EQ(first.metadata.epsilon_spent, kEpsilon);
  EXPECT_GT(first.metadata.synopsis_size, 0u);

  const FitResponse& second = engine.SubmitFit(spec).Get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.metadata.synopsis_size, first.metadata.synopsis_size);
}

TEST(AsyncEngineTest, ConcurrentMixedTrafficMatchesSerialExecution) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  const std::vector<std::string> methods =
      release::GlobalMethodRegistry().Names(
          release::DatasetKind::kSpatial);

  // Serial ground truth, one per (method, seed) release.
  std::map<std::pair<std::string, std::uint64_t>, std::vector<double>> want;
  for (const std::string& method : methods) {
    for (const std::uint64_t seed : {kSeed, kSeed + 1}) {
      want[{method, seed}] = SessionAnswers(points, method, queries, seed);
    }
  }

  serve::ThreadPool pool(4);
  serve::SynopsisCache cache(64);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  constexpr std::size_t kClients = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Every client walks the methods at its own phase, mixing fits and
      // query batches over two seeds; all of them race on the one cache.
      for (std::size_t m = 0; m < methods.size(); ++m) {
        const std::string& method = methods[(m + c) % methods.size()];
        const std::uint64_t seed = kSeed + (c % 2);
        const FitSpec spec{method, {}, kEpsilon, seed};
        if (c % 2 == 0) {
          const FitResponse& fitted = engine.SubmitFit(spec).Get();
          if (!fitted.status.ok()) ++failures;
        }
        const QueryBatchResponse& response =
            engine.SubmitQueryBatch(spec, queries).Get();
        if (!response.status.ok()) {
          ++failures;
          continue;
        }
        if (response.answers != want[{method, seed}]) ++mismatches;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent serving diverged from serial execution";
}

TEST(AsyncEngineTest, SaturatedQueueShedsWithUnavailable) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  EngineOptions options;
  options.admission.max_queue_depth = 2;
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache, options);

  Wedge wedge;
  wedge.Block(pool);

  const std::vector<Box> queries = TestQueries(4);
  std::vector<Future<QueryBatchResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    // Distinct seeds: six distinct requests, no coalescing in play.
    futures.push_back(engine.SubmitQueryBatch(
        {"ug", {}, kEpsilon, kSeed + static_cast<std::uint64_t>(i)},
        queries));
  }
  // With the worker wedged, only max_queue_depth requests may wait; the
  // rest must already be resolved as shed.
  std::size_t shed = 0;
  for (const auto& future : futures) {
    if (future.Ready() &&
        future.Get().status.code() == StatusCode::kUnavailable) {
      ++shed;
    }
  }
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(engine.Stats().admission.shed_queue_full, 4u);
  EXPECT_EQ(engine.Stats().admission.admitted, 2u);

  wedge.Release();
  std::size_t served = 0;
  for (const auto& future : futures) {
    const QueryBatchResponse& response = future.Get();
    if (response.status.ok()) {
      ++served;
      EXPECT_EQ(response.answers.size(), queries.size());
    }
  }
  EXPECT_EQ(served, 2u);
}

TEST(AsyncEngineTest, ExpiredRequestsNeverExecute) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  Wedge wedge;
  wedge.Block(pool);

  const auto deadline =
      DeadlineClock::now() + std::chrono::milliseconds(20);
  Future<QueryBatchResponse> future =
      engine.SubmitQueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries(4),
                              deadline);
  const std::size_t misses_before = cache.stats().misses;
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  wedge.Release();

  const QueryBatchResponse& response = future.Get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.answers.empty());
  pool.WaitIdle();
  // The fit never ran: no cache traffic happened on the request's behalf.
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_EQ(engine.Stats().admission.expired, 1u);
  EXPECT_EQ(engine.admission().InFlightFits(), 0u);
}

TEST(AsyncEngineTest, IdenticalInFlightFitsCoalesce) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  Wedge wedge;
  wedge.Block(pool);
  const FitSpec spec{"ug", {}, kEpsilon, kSeed};
  Future<FitResponse> first = engine.SubmitFit(spec);
  Future<FitResponse> second = engine.SubmitFit(spec);
  EXPECT_EQ(engine.Stats().admission.coalesced_fits, 1u);
  EXPECT_EQ(engine.admission().InFlightFits(), 1u);
  wedge.Release();

  ASSERT_TRUE(first.Get().status.ok());
  ASSERT_TRUE(second.Get().status.ok());
  // One real fit; the coalesced request rode the cache's single flight.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(first.Get().metadata.synopsis_size,
            second.Get().metadata.synopsis_size);
  EXPECT_EQ(engine.admission().InFlightFits(), 0u);
}

TEST(AsyncEngineTest, WarmPrefetchesTheCache) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  const std::vector<FitSpec> specs = {
      {"ug", {}, kEpsilon, kSeed},
      {"privtree", {}, kEpsilon, kSeed},
      {"nonsense", {}, kEpsilon, kSeed},  // Skipped, not an error.
  };
  EXPECT_EQ(engine.Warm(specs), 2u);
  pool.WaitIdle();
  EXPECT_NE(cache.Lookup(engine.KeyFor(specs[0])), nullptr);
  EXPECT_NE(cache.Lookup(engine.KeyFor(specs[1])), nullptr);
  // A second Warm finds everything cached and accepts nothing.
  EXPECT_EQ(engine.Warm(specs), 0u);
  // Warmed fits serve as cache hits.
  const FitResponse& fitted = engine.SubmitFit(specs[0]).Get();
  ASSERT_TRUE(fitted.status.ok());
  EXPECT_TRUE(fitted.cache_hit);
}

TEST(AsyncEngineTest, WarmRecordsAQueueWaitPerAdmittedFit) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  obs::Histogram& waits =
      obs::Registry::Global().GetHistogram("engine.queue_wait_us");
  obs::Histogram& fits = obs::Registry::Global().GetHistogram("engine.fit_us");
  const std::uint64_t waits_before = waits.Count();
  const std::uint64_t fits_before = fits.Count();

  // A warm fit runs the body every queued Fit runs: one queue-wait and one
  // fit sample per admitted request, as for any other request.
  const std::vector<FitSpec> specs = {
      {"ug", {}, kEpsilon, kSeed + 7},
      {"privtree", {}, kEpsilon, kSeed + 7},
      {"nonsense", {}, kEpsilon, kSeed + 7},  // Skipped, never admitted.
  };
  EXPECT_EQ(engine.Warm(specs), 2u);
  pool.WaitIdle();
  const std::size_t admitted = engine.Stats().admission.admitted;
  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(waits.Count() - waits_before, admitted);
  EXPECT_EQ(fits.Count() - fits_before, admitted);
}

TEST(AsyncEngineTest, InvalidSpecsResolveImmediately) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(4);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  {
    Future<FitResponse> future =
        engine.SubmitFit({"nonsense", {}, kEpsilon, kSeed});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  {
    Future<FitResponse> future =
        engine.SubmitFit({"ug", {}, -1.0, kSeed});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  {
    Future<FitResponse> future = engine.SubmitFit(
        {"ug", release::MethodOptions::Parse("bogus_key=1"), kEpsilon,
         kSeed});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  {
    // Well-typed but out of the declared range: the fitter's aborting
    // contract check (height >= 2) must never see this value.
    Future<FitResponse> future = engine.SubmitFit(
        {"hierarchy", release::MethodOptions::Parse("height=-3"), kEpsilon,
         kSeed});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  {
    // Dataset-relative range: more split dims than the data has.
    Future<FitResponse> future = engine.SubmitFit(
        {"privtree", release::MethodOptions::Parse("dims_per_split=3"),
         kEpsilon, kSeed});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  {
    // 3-d boxes against a 2-d dataset.
    Future<QueryBatchResponse> future = engine.SubmitQueryBatch(
        {"ug", {}, kEpsilon, kSeed},
        {Box({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0})});
    ASSERT_TRUE(future.Ready());
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.Stats().admission.admitted, 0u);
}

TEST(AsyncEngineTest, FixedHeightTreesAreBoundedByTheirCompleteTree) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(4);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  const auto validate = [&](const std::string& method,
                            const std::string& options) {
    return engine
        .ValidateSpec({method, release::MethodOptions::Parse(options),
                       kEpsilon, kSeed})
        .code();
  };
  // A complete tree of at most 2^24 nodes is allowed, one level more is
  // not.  kdtree: 2^(h+1) − 1 nodes.
  EXPECT_EQ(validate("kdtree", "height=23"), StatusCode::kOk);
  EXPECT_EQ(validate("kdtree", "height=24"), StatusCode::kInvalidArgument);
  EXPECT_EQ(validate("kdtree", "height=64"), StatusCode::kInvalidArgument);
  // simpletree on 2-d data, β = 4 by default: (4^h − 1) / 3 nodes.
  EXPECT_EQ(validate("simpletree", "height=12"), StatusCode::kOk);
  EXPECT_EQ(validate("simpletree", "height=13"), StatusCode::kInvalidArgument);
  // β = 2 with one dimension per split: 2^h − 1 nodes.
  EXPECT_EQ(validate("simpletree", "dims_per_split=1,height=24"),
            StatusCode::kOk);
  EXPECT_EQ(validate("simpletree", "dims_per_split=1,height=25"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(validate("simpletree", "height=64"), StatusCode::kInvalidArgument);
  // privtree's size is set by ε and the data, not by a height.
  EXPECT_EQ(validate("privtree", "max_depth=4096"), StatusCode::kOk);
}

std::uint64_t InlineRequests() {
  return obs::Registry::Global().GetCounter("engine.inline_requests").Value();
}

TEST(AsyncEngineTest, ResidentOneQueryResolvesBeforeSubmitReturns) {
  const PointSet points = TestPoints(100);
  const std::vector<Box> queries = TestQueries(2);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  const FitSpec spec{"ug", {}, kEpsilon, kSeed};
  ASSERT_TRUE(engine.SubmitFit(spec).Get().status.ok());

  Wedge wedge;
  wedge.Block(pool);
  const std::size_t hits_before = cache.stats().hits;
  const std::uint64_t inline_before = InlineRequests();
  const std::size_t admitted_before = engine.Stats().admission.admitted;

  // One box on the cached release: answered on this thread, although the
  // only pool worker is wedged.
  Future<QueryBatchResponse> one =
      engine.SubmitQueryBatch(spec, {queries[0]});
  const bool one_ready = one.Ready();
  // Two boxes on the same release, and one box on a release not yet in
  // the cache, both wait for the pool: the caller's thread never fits.
  Future<QueryBatchResponse> two = engine.SubmitQueryBatch(spec, queries);
  Future<QueryBatchResponse> uncached = engine.SubmitQueryBatch(
      {"ug", {}, kEpsilon, kSeed + 1}, {queries[0]});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool two_ready = two.Ready();
  const bool uncached_ready = uncached.Ready();
  const std::size_t misses_wedged = cache.stats().misses;
  wedge.Release();

  EXPECT_TRUE(one_ready);
  EXPECT_FALSE(two_ready);
  EXPECT_FALSE(uncached_ready);
  EXPECT_EQ(misses_wedged, 1u);  // Only the SubmitFit above.
  ASSERT_TRUE(one.Get().status.ok()) << one.Get().status.ToString();
  EXPECT_TRUE(one.Get().cache_hit);
  EXPECT_EQ(one.Get().answers, SessionAnswers(points, "ug", {queries[0]}));
  EXPECT_EQ(InlineRequests(), inline_before + 1);
  ASSERT_TRUE(two.Get().status.ok());
  EXPECT_EQ(two.Get().answers, SessionAnswers(points, "ug", queries));
  ASSERT_TRUE(uncached.Get().status.ok());
  EXPECT_FALSE(uncached.Get().cache_hit);
  EXPECT_EQ(uncached.Get().answers,
            SessionAnswers(points, "ug", {queries[0]}, kSeed + 1));
  // The inline request counted one hit and the pooled two-box batch one
  // more; the uncached release one miss.
  EXPECT_EQ(cache.stats().hits, hits_before + 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(engine.Stats().admission.admitted, admitted_before + 3);
}

TEST(AsyncEngineTest, InlineAnswersMatchThePoolPathBitForBit) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);

  for (const std::string method : {"ug", "privtree", "kdtree"}) {
    const FitSpec spec{method, {}, kEpsilon, kSeed};
    // The whole batch runs on the pool (and fits the release there).
    const QueryBatchResponse pooled =
        engine.SubmitQueryBatch(spec, queries).Get();
    ASSERT_TRUE(pooled.status.ok()) << method;
    ASSERT_EQ(pooled.answers, SessionAnswers(points, method, queries))
        << method;
    const std::uint64_t inline_before = InlineRequests();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      Future<QueryBatchResponse> one =
          engine.SubmitQueryBatch(spec, {queries[i]});
      ASSERT_TRUE(one.Ready()) << method << " query " << i;
      ASSERT_EQ(one.Get().answers.size(), 1u);
      EXPECT_EQ(one.Get().answers[0], pooled.answers[i])
          << method << " query " << i << " diverged inline";
    }
    EXPECT_EQ(InlineRequests(), inline_before + queries.size()) << method;
  }
}

TEST(AsyncEngineTest, OneBoxOnALargeReleaseWaitsForThePool) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries(1);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  // 2047 nodes: one box may visit all of them, past the inline budget.
  const FitSpec spec{"kdtree", release::MethodOptions::Parse("height=10"),
                     kEpsilon, kSeed};
  const FitResponse fitted = engine.SubmitFit(spec).Get();
  ASSERT_TRUE(fitted.status.ok()) << fitted.status.ToString();
  ASSERT_EQ(fitted.metadata.synopsis_size, 2047u);

  Wedge wedge;
  wedge.Block(pool);
  const std::uint64_t inline_before = InlineRequests();
  Future<QueryBatchResponse> one = engine.SubmitQueryBatch(spec, queries);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool one_ready = one.Ready();
  wedge.Release();

  EXPECT_FALSE(one_ready);
  ASSERT_TRUE(one.Get().status.ok()) << one.Get().status.ToString();
  EXPECT_TRUE(one.Get().cache_hit);
  EXPECT_EQ(InlineRequests(), inline_before);
  release::ReleaseSession session(points, Box::UnitCube(2), kEpsilon, kSeed);
  EXPECT_EQ(one.Get().answers,
            session.Release("kdtree", kEpsilon, spec.options)
                ->QueryBatch(queries));
}

TEST(AsyncEngineTest, OneQuerySequenceBatchesWaitForThePool) {
  Rng rng(0x5E0);
  SequenceDataset data(6);
  std::vector<Symbol> row;
  for (int i = 0; i < 300; ++i) {
    row.clear();
    const std::size_t len = 1 + rng.NextBounded(8);
    for (std::size_t j = 0; j < len; ++j) {
      row.push_back(static_cast<Symbol>(rng.NextBounded(6)));
    }
    data.Add(row);
  }
  // A TopK walk prunes nothing until it holds k candidates, so even one
  // sequence query can cost far more than the pool hop.
  const std::vector<release::SequenceQuery> queries = {
      release::SequenceQuery::Frequency({1}),
      release::SequenceQuery::TopK(64, 7),
  };
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(release::Dataset(data), pool, cache);
  const FitSpec spec{"pst_privtree", release::MethodOptions::Parse("l_top=8"),
                     kEpsilon, kSeed};
  const QueryBatchResponse pooled =
      engine.SubmitSeqQueryBatch(spec, queries).Get();
  ASSERT_TRUE(pooled.status.ok()) << pooled.status.ToString();

  Wedge wedge;
  wedge.Block(pool);
  const std::uint64_t inline_before = InlineRequests();
  std::vector<Future<QueryBatchResponse>> ones;
  for (const release::SequenceQuery& q : queries) {
    ones.push_back(engine.SubmitSeqQueryBatch(spec, {q}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<bool> ready;
  for (const auto& one : ones) ready.push_back(one.Ready());
  wedge.Release();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(ready[i]) << "sequence query " << i << " ran inline";
    const QueryBatchResponse& one = ones[i].Get();
    ASSERT_TRUE(one.status.ok()) << one.status.ToString();
    ASSERT_EQ(one.answers.size(), 1u);
    EXPECT_EQ(one.answers[0], pooled.answers[i]) << "sequence query " << i;
  }
  EXPECT_EQ(InlineRequests(), inline_before);
}

TEST(AsyncEngineTest, InlineRequestPastItsDeadlineNeverRuns) {
  const PointSet points = TestPoints(100);
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(16);
  AsyncEngine engine(points, Box::UnitCube(2), pool, cache);
  const FitSpec spec{"ug", {}, kEpsilon, kSeed};
  ASSERT_TRUE(engine.SubmitFit(spec).Get().status.ok());

  obs::Histogram& kernels =
      obs::Registry::Global().GetHistogram("engine.kernel_us");
  const std::uint64_t kernels_before = kernels.Count();
  Future<QueryBatchResponse> late = engine.SubmitQueryBatch(
      spec, TestQueries(1),
      DeadlineClock::now() - std::chrono::milliseconds(1));
  ASSERT_TRUE(late.Ready());
  EXPECT_EQ(late.Get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(late.Get().answers.empty());
  EXPECT_EQ(engine.Stats().admission.expired, 1u);
  EXPECT_EQ(kernels.Count(), kernels_before);  // No kernel ran.
}

}  // namespace
}  // namespace privtree::server
