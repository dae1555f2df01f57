// Chaos-hardening end to end: the epoll serving stack under deterministic
// injected faults (core/fault.h).  A torn spill write that "succeeded"
// before a crash must be quarantined on warm restart and never poison
// serving; mid-frame connection resets and torn frames must be absorbed by
// the client's reconnect + resend discipline with zero failed requests; a
// stuck fit must be failed by the engine watchdog instead of wedging its
// reply slot; and four concurrent closed-loop clients must survive a full
// server-loop restart transparently.  Every scenario asserts bit-for-bit
// parity with the in-process ReleaseSession oracle — chaos may slow answers
// down, but it must never change them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/session.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/client.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/event/event_loop.h"
#include "server/protocol.h"
#include "server/socket.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 1.0;

PointSet TestPoints(std::size_t n = 300) {
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

std::vector<Box> TestQueries(std::size_t n = 20) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// The in-process ground truth for one (method, seed) release.
std::vector<double> OracleAnswers(const PointSet& points,
                                  const std::string& method,
                                  std::uint64_t seed,
                                  const std::vector<Box>& queries) {
  release::ReleaseSession session(points, Box::UnitCube(2), kEpsilon, seed);
  return session.Release(method, kEpsilon)->QueryBatch(queries);
}

/// One complete epoll serving stack, restartable onto the same spill
/// directory (simulating a process restart after a crash).
struct ServingStack {
  ServingStack(const PointSet& points, const std::string& spill_dir,
               std::uint16_t port) {
    pool = std::make_unique<serve::ThreadPool>(4);
    cache = std::make_unique<serve::SynopsisCache>(
        1, serve::SpillOptions{spill_dir, 16});
    registry = std::make_unique<DatasetRegistry>(*pool, *cache);
    auto registered = registry->Register(
        "test", release::Dataset(points, Box::UnitCube(2)));
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
    dispatcher = std::make_unique<Dispatcher>(*registry);
    auto listener = ListenSocket::Listen(port);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    loop = std::make_unique<EventLoop>(*dispatcher,
                                       std::move(listener).value(),
                                       EventLoopOptions{});
    serving = std::thread([this] { EXPECT_TRUE(loop->Run().ok()); });
  }

  ~ServingStack() { Stop(); }

  void Stop() {
    if (!serving.joinable()) return;
    loop->Stop();
    serving.join();
  }

  std::uint16_t port() const { return loop->port(); }

  std::unique_ptr<serve::ThreadPool> pool;
  std::unique_ptr<serve::SynopsisCache> cache;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<EventLoop> loop;
  std::thread serving;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::Global().Reset();
    fault::Injector::Global().SetSeed(0xC4A05);
    spill_dir_ = fs::path(::testing::TempDir()) /
                 ("privtree_chaos_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(spill_dir_);
  }
  void TearDown() override {
    fault::Injector::Global().Reset();
    fs::remove_all(spill_dir_);
  }

  std::string spill_dir() const { return spill_dir_.string(); }

  fs::path spill_dir_;
};

TEST_F(ChaosTest, TornSpillWriteIsQuarantinedOnRestartAndAnswersMatchOracle) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};

  // Phase A: serve with a torn envelope.save — the second spill write
  // persists only half its bytes but reports success, exactly what a crash
  // between write and rename leaves under the final name.
  {
    ASSERT_TRUE(fault::Injector::Global()
                    .ArmFromSpec("envelope.save=partial:after=1:count=1")
                    .ok());
    ServingStack stack(points, spill_dir(), 0);
    auto connected = Client::Connect("127.0.0.1", stack.port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    Client client = std::move(connected).value();
    for (const std::uint64_t seed : seeds) {
      const FitSpec spec{"ug", {}, kEpsilon, seed};
      auto answers = client.QueryBatch(spec, queries);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    }
    stack.cache->FlushSpill();
    // The fault really fired: one of the on-disk envelopes is torn.
    EXPECT_EQ(fault::Injector::Global().StatsFor("envelope.save").fired, 1u);
  }  // "Crash": the whole stack dies; only the spill directory survives.

  // Phase B: a fresh stack on the same directory must quarantine the torn
  // file during its warm-restart scan and serve every query bit-for-bit
  // from the oracle — healthy spills rehydrated, the torn one re-fitted.
  fault::Injector::Global().Reset();
  ServingStack stack(points, spill_dir(), 0);
  EXPECT_EQ(stack.cache->stats().spill_quarantined, 1u);
  auto connected = Client::Connect("127.0.0.1", stack.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  for (const std::uint64_t seed : seeds) {
    const FitSpec spec{"ug", {}, kEpsilon, seed};
    auto answers = client.QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << "seed " << seed << ": "
                              << answers.status().ToString();
    const std::vector<double> want = OracleAnswers(points, "ug", seed, queries);
    ASSERT_EQ(answers.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(answers.value()[i], want[i])
          << "seed " << seed << " query " << i << " diverged after recovery";
    }
  }
  // Zero corrupt envelopes surfaced while serving: the quarantine happened
  // at scan time, before any request could touch the torn file.
  EXPECT_EQ(stack.cache->stats().spill_failures, 0u);
}

TEST_F(ChaosTest, ResetsAndTornFramesAreAbsorbedWithZeroFailedRequests) {
  // The epoll loop does its own buffered I/O, so these socket fault points
  // fire on the client's blocking Connection — mid-frame resets and a torn
  // half-frame send, each forcing a reconnect + resend.  Every request must
  // still succeed and match the oracle.
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  ServingStack stack(points, spill_dir(), 0);

  ClientOptions options;
  options.max_attempts = 8;
  options.base_backoff_millis = 5;
  auto connected = Client::Connect("127.0.0.1", stack.port(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  // Hello consumed send/recv hit 0; the faults land mid-run (p=1, so the
  // schedule is exact regardless of the seed).
  ASSERT_TRUE(fault::Injector::Global()
                  .ArmFromSpec("socket.recv=reset:after=4:count=2;"
                               "socket.send=partial:after=11:count=1")
                  .ok());

  std::size_t failed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t seed = 1 + (i % 2);
    const FitSpec spec{"ug", {}, kEpsilon, seed};
    auto answers = client.QueryBatch(spec, queries);
    if (!answers.ok()) {
      ++failed;
      ADD_FAILURE() << "request " << i << ": "
                    << answers.status().ToString();
      continue;
    }
    const std::vector<double> want = OracleAnswers(points, "ug", seed, queries);
    ASSERT_EQ(answers.value(), want) << "request " << i << " diverged";
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(fault::Injector::Global().StatsFor("socket.recv").fired, 2u);
  EXPECT_EQ(fault::Injector::Global().StatsFor("socket.send").fired, 1u);
  // Three transport faults fired, but two can land inside one call's retry
  // sequence (a reset hitting the reconnect's own Hello).  Retries count
  // actual resends only — a failed reconnect sends nothing — so both
  // telemetry fields can sit below the fault count, never above it.
  EXPECT_GE(client.telemetry().retries, 2u);
  EXPECT_LE(client.telemetry().retries, 3u);
  EXPECT_GE(client.telemetry().reconnects, 2u);
  fault::Injector::Global().Reset();  // Let teardown's Shutdown run clean.
}

TEST_F(ChaosTest, StuckFitIsFailedByTheWatchdogNotWedged) {
  const PointSet points = TestPoints();
  ServingStack stack(points, spill_dir(), 0);
  auto connected = Client::Connect("127.0.0.1", stack.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  // The first fit stalls 800ms inside the executor; its 100ms deadline
  // passes while it is *running*, which only the watchdog can see.
  ASSERT_TRUE(fault::Injector::Global()
                  .ArmFromSpec("engine.fit=delay:delay=800:count=1")
                  .ok());
  const FitSpec spec{"ug", {}, kEpsilon, 0xF17};
  const auto start = std::chrono::steady_clock::now();
  auto stuck = client.Fit(spec, /*deadline_millis=*/100);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(stuck.ok());
  EXPECT_EQ(stuck.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 700);  // Failed by the watchdog, not by waiting it out.

  // The reply slot is not wedged: the same spec (and the same connection)
  // fits fine once the chaos clears.
  fault::Injector::Global().Reset();
  auto retried = client.Fit(spec, /*deadline_millis=*/0);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().metadata.method, "ug");
  EXPECT_GE(stack.registry->Find(0)->Stats().watchdog_fired, 1u);
}

TEST_F(ChaosTest, ClosedLoopClientSurvivesServerRestartWithZeroFailures) {
  // Four resilient clients run closed loops concurrently; every one of them
  // finishes its first phase, the serving loop restarts on the same port
  // while they all hold (now dead) connections, and the second phase forces
  // each through reconnect + resend.
  constexpr std::size_t kClients = 4;
  constexpr int kRoundsPerPhase = 15;
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  serve::ThreadPool pool(4);
  serve::SynopsisCache cache(8, serve::SpillOptions{spill_dir(), 16});
  DatasetRegistry registry(pool, cache);
  ASSERT_TRUE(
      registry.Register("test", release::Dataset(points, Box::UnitCube(2)))
          .ok());
  Dispatcher dispatcher(registry);

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  auto loop = std::make_unique<EventLoop>(dispatcher,
                                          std::move(listener).value(),
                                          EventLoopOptions{});
  std::thread serving([&loop] { EXPECT_TRUE(loop->Run().ok()); });

  std::vector<std::vector<double>> oracle;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    oracle.push_back(OracleAnswers(points, "ug", seed, queries));
  }

  std::atomic<std::size_t> at_barrier{0};
  std::atomic<bool> restarted{false};
  std::atomic<std::size_t> failed{0};
  std::vector<Client::Telemetry> telemetry(kClients);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kClients; ++w) {
    workers.emplace_back([&, w] {
      ClientOptions options;
      options.max_attempts = 10;
      options.base_backoff_millis = 20;
      options.backoff_seed = 0xC4A05 + w;
      auto connected = Client::Connect("127.0.0.1", port, options);
      if (!connected.ok()) {
        ADD_FAILURE() << connected.status().ToString();
        failed += 2 * kRoundsPerPhase;
        ++at_barrier;
        return;
      }
      Client client = std::move(connected).value();
      const auto run_phase = [&](int first) {
        for (int i = first; i < first + kRoundsPerPhase; ++i) {
          const std::uint64_t seed = 1 + (i + w) % 3;
          auto answers =
              client.QueryBatch({"ug", {}, kEpsilon, seed}, queries);
          if (!answers.ok()) {
            ++failed;
            ADD_FAILURE() << "client " << w << " request " << i << ": "
                          << answers.status().ToString();
            continue;
          }
          EXPECT_EQ(answers.value(), oracle[seed - 1])
              << "client " << w << " request " << i
              << " diverged across the restart";
        }
      };
      run_phase(0);
      ++at_barrier;
      while (!restarted.load()) std::this_thread::yield();
      run_phase(kRoundsPerPhase);
      telemetry[w] = client.telemetry();
    });
  }

  // Restart the serving loop on the same port once every client is between
  // its phases; the registry, cache, and dispatcher survive (a front-end
  // bounce, the common deployment restart).
  while (at_barrier.load() < kClients) std::this_thread::yield();
  loop->Stop();
  serving.join();
  auto relisten = ListenSocket::Listen(port);
  if (relisten.ok()) {
    loop = std::make_unique<EventLoop>(dispatcher,
                                       std::move(relisten).value(),
                                       EventLoopOptions{});
    serving = std::thread([&loop] { EXPECT_TRUE(loop->Run().ok()); });
  } else {
    ADD_FAILURE() << relisten.status().ToString();
  }
  restarted.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(failed.load(), 0u);
  for (std::size_t w = 0; w < kClients; ++w) {
    EXPECT_GE(telemetry[w].reconnects, 1u) << "client " << w;
  }

  if (serving.joinable()) {
    loop->Stop();
    serving.join();
  }
}

}  // namespace
}  // namespace privtree::server
