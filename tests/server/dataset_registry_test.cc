// Multi-tenant serving: the DatasetRegistry hosts many datasets behind one
// pool and one cache with fingerprint-keyed isolation (two tenants fitting
// the same spec never share a synopsis), unknown fingerprints answer
// NotFound, wire uploads are idempotent by content, and one client
// exhausting its per-session ε budget fails cleanly while other clients
// keep serving, and a tenant too wide for a method's index or an upload
// with an unusable domain is refused with a Status instead of aborting the
// server.  One scale test holds 256 connections open at once over a
// spatial + sequence tenant mix and checks every answer bit for bit.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "release/session.h"
#include "seq/sequence.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/admission.h"
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

constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kSeed = 0xC11;

PointSet ClusteredPoints(std::uint64_t seed, double center,
                         std::size_t n = 200) {
  Rng rng(seed);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = center + 0.2 * rng.NextDouble();
    p[1] = center + 0.2 * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::vector<Box> TestQueries(std::size_t n = 10) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// Two spatial tenants on one EventLoop, plus knobs for budget tests.
class MultiTenantFixture : public ::testing::Test {
 protected:
  void SetUp() override { Start({}); }

  void Start(DispatcherOptions options) {
    left_ = std::make_unique<PointSet>(ClusteredPoints(0xAAAA, 0.1));
    right_ = std::make_unique<PointSet>(ClusteredPoints(0xBBBB, 0.7));
    pool_ = std::make_unique<serve::ThreadPool>(4);
    cache_ = std::make_unique<serve::SynopsisCache>(32);
    registry_ = std::make_unique<DatasetRegistry>(*pool_, *cache_);
    auto left = registry_->Register(
        "left", release::Dataset(*left_, Box::UnitCube(2)));
    ASSERT_TRUE(left.ok());
    left_fp_ = left.value();
    auto right = registry_->Register(
        "right", release::Dataset(*right_, Box::UnitCube(2)));
    ASSERT_TRUE(right.ok());
    right_fp_ = right.value();
    ASSERT_NE(left_fp_, right_fp_);
    dispatcher_ = std::make_unique<Dispatcher>(*registry_, options);
    auto listener = ListenSocket::Listen(0);
    ASSERT_TRUE(listener.ok());
    loop_ = std::make_unique<EventLoop>(*dispatcher_,
                                        std::move(listener).value());
    port_ = loop_->port();
    serving_ = std::thread([this] { EXPECT_TRUE(loop_->Run().ok()); });
  }

  void TearDown() override {
    loop_->Stop();
    serving_.join();
  }

  Client MustConnect() {
    auto connected = Client::Connect("127.0.0.1", port_);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return std::move(connected).value();
  }

  std::unique_ptr<PointSet> left_;
  std::unique_ptr<PointSet> right_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<serve::SynopsisCache> cache_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<EventLoop> loop_;
  std::uint64_t left_fp_ = 0;
  std::uint64_t right_fp_ = 0;
  std::uint16_t port_ = 0;
  std::thread serving_;
};

TEST_F(MultiTenantFixture, HelloAdvertisesEveryTenant) {
  Client client = MustConnect();
  ASSERT_EQ(client.info().datasets.size(), 2u);
  EXPECT_EQ(client.info().datasets[0].name, "left");
  EXPECT_EQ(client.info().datasets[0].fingerprint, left_fp_);
  EXPECT_EQ(client.info().datasets[1].name, "right");
  EXPECT_EQ(client.info().datasets[1].fingerprint, right_fp_);
  // The default tenant is the first registered.
  EXPECT_EQ(client.info().dataset_fingerprint, left_fp_);
  EXPECT_EQ(client.info().point_count, left_->size());
}

TEST_F(MultiTenantFixture, SameSpecDifferentTenantsNeverShareASynopsis) {
  // The isolation claim: identical method/options/ε/seed against two
  // tenants must fit twice (two cache misses — the fingerprint is in the
  // SynopsisKey) and answer from the respective datasets.
  Client client = MustConnect();
  const FitSpec spec{"privtree", {}, kEpsilon, kSeed};
  const std::vector<Box> queries = TestQueries();

  client.SelectDataset(left_fp_);
  const auto left_answers = client.QueryBatch(spec, queries);
  ASSERT_TRUE(left_answers.ok()) << left_answers.status().ToString();

  client.SelectDataset(right_fp_);
  const auto right_answers = client.QueryBatch(spec, queries);
  ASSERT_TRUE(right_answers.ok()) << right_answers.status().ToString();

  EXPECT_EQ(cache_->stats().misses, 2u)
      << "tenants shared (or refit) a synopsis";
  EXPECT_NE(left_answers.value(), right_answers.value())
      << "two disjoint datasets answered identically — cache cross-talk";

  // Repeating either tenant's batch is now a pure cache hit.
  const auto again = client.QueryBatch(spec, queries);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), right_answers.value());
  EXPECT_EQ(cache_->stats().misses, 2u);
}

TEST_F(MultiTenantFixture, UnknownFingerprintAnswersNotFound) {
  Client client = MustConnect();
  client.SelectDataset(0x1234567890ABCDEF);
  const auto fitted = client.Fit({"privtree", {}, kEpsilon, kSeed});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), StatusCode::kNotFound);
  // The connection survives; selecting a real tenant recovers.
  client.SelectDataset(right_fp_);
  EXPECT_TRUE(client.Fit({"privtree", {}, kEpsilon, kSeed}).ok());
}

TEST_F(MultiTenantFixture, UploadedDatasetServesAndIsIdempotent) {
  Client client = MustConnect();
  RegisterDatasetRequest upload;
  upload.name = "uploaded";
  upload.kind = release::DatasetKind::kSpatial;
  upload.dim = 2;
  upload.domain_lo = {0.0, 0.0};
  upload.domain_hi = {1.0, 1.0};
  for (double x = 0.05; x < 1.0; x += 0.1) {
    upload.coords.push_back(x);
    upload.coords.push_back(x);
  }
  const auto registered = client.RegisterDataset(upload);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(registered.value().point_count, 10u);
  EXPECT_NE(registered.value().fingerprint, left_fp_);

  // Same content again: same fingerprint, no new tenant.
  const auto again = client.RegisterDataset(upload);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().fingerprint, registered.value().fingerprint);
  EXPECT_EQ(registry_->size(), 3u);

  // A *new* connection can serve the uploaded tenant by fingerprint.
  Client other = MustConnect();
  other.SelectDataset(registered.value().fingerprint);
  const auto answers =
      other.QueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries());
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
}

TEST_F(MultiTenantFixture, SequenceTenantServesNextToSpatialOnes) {
  Client client = MustConnect();
  RegisterDatasetRequest upload;
  upload.name = "clicks";
  upload.kind = release::DatasetKind::kSequence;
  upload.dim = 4;
  Rng rng(0x5EC);
  for (int i = 0; i < 50; ++i) {
    std::vector<Symbol> s;
    for (std::size_t j = 0; j < 1 + rng.NextBounded(5); ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(4)));
    }
    upload.sequences.push_back(std::move(s));
  }
  const auto registered = client.RegisterDataset(upload);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();

  client.SelectDataset(registered.value().fingerprint);
  release::MethodOptions options;
  options.Set("l_top", "6");
  const FitSpec spec{"pst_privtree", options, kEpsilon, kSeed};
  const std::vector<release::SequenceQuery> queries = {
      release::SequenceQuery::Frequency({0, 1}),
      release::SequenceQuery::PrefixCount({2})};
  const auto answers = client.SeqQueryBatch(spec, queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers.value().size(), 2u);

  // The spatial default still serves box batches on the same connection.
  client.SelectDataset(0);
  EXPECT_TRUE(
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries()).ok());
}

TEST_F(MultiTenantFixture, TenantWiderThanTheMortonIndexIsRefusedCleanly) {
  // RegisterDataset accepts spatial dims up to 64, but the Morton-indexed
  // trees stop at MortonIndex::kMaxDim = 8.  A privtree fit on a 9-d tenant
  // must answer InvalidArgument, not abort the server process.
  Client client = MustConnect();
  constexpr std::size_t kDim = 9;
  RegisterDatasetRequest upload;
  upload.name = "wide";
  upload.kind = release::DatasetKind::kSpatial;
  upload.dim = kDim;
  upload.domain_lo.assign(kDim, 0.0);
  upload.domain_hi.assign(kDim, 1.0);
  Rng rng(0x9D);
  for (std::size_t i = 0; i < 100 * kDim; ++i) {
    upload.coords.push_back(rng.NextDouble());
  }
  const auto registered = client.RegisterDataset(upload);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();

  client.SelectDataset(registered.value().fingerprint);
  for (const char* method : {"privtree", "simpletree"}) {
    const auto fitted = client.Fit({method, {}, kEpsilon, kSeed});
    ASSERT_FALSE(fitted.ok()) << method;
    EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument)
        << method << ": " << fitted.status().ToString();
  }

  // The server is still up and the same connection keeps serving.
  client.SelectDataset(0);
  EXPECT_TRUE(client.Fit({"privtree", {}, kEpsilon, kSeed}).ok());
  EXPECT_TRUE(MustConnect().GetStatsJson().ok());
}

TEST_F(MultiTenantFixture, UnusableDomainIsRefusedNotFatal) {
  // An infinite bound would abort the server in Box's finiteness check, and
  // a zero-width side would abort the first tree fit in MortonIndex.  Both
  // uploads must be refused with InvalidArgument instead.
  Client client = MustConnect();
  RegisterDatasetRequest upload;
  upload.name = "bad-domain";
  upload.kind = release::DatasetKind::kSpatial;
  upload.dim = 2;
  upload.coords = {0.5, 0.5};
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      domains = {
          {{0.0, 0.0}, {1.0, std::numeric_limits<double>::infinity()}},
          {{-std::numeric_limits<double>::infinity(), 0.0}, {1.0, 1.0}},
          {{0.0, 0.5}, {1.0, 0.5}},  // lo == hi.
          {{-std::numeric_limits<double>::max(), 0.0},
           {std::numeric_limits<double>::max(), 1.0}},  // hi - lo = inf.
      };
  for (const auto& [lo, hi] : domains) {
    upload.domain_lo = lo;
    upload.domain_hi = hi;
    const auto refused = client.RegisterDataset(upload);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }
  EXPECT_EQ(registry_->size(), 2u);

  // The server still answers, on the same connection and on a new one.
  EXPECT_TRUE(client.Fit({"privtree", {}, kEpsilon, kSeed}).ok());
  EXPECT_TRUE(MustConnect().GetStatsJson().ok());
}

TEST_F(MultiTenantFixture, ManyConcurrentConnectionsServeMixedTrafficExactly) {
  // 256 connections open at once (8 client threads x 32 clients), each
  // sending 3 requests that alternate a box QueryBatch on a spatial tenant
  // and a SeqQueryBatch on a sequence tenant.  Every answer must be the
  // in-process ReleaseSession answer, bit for bit, and the server must
  // admit every request and shed none.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kClientsPerThread = 32;
  constexpr std::size_t kConnections = kThreads * kClientsPerThread;
  constexpr std::size_t kRounds = 3;

  // Both ends of every connection live in this process.
  rlimit fds{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &fds), 0);
  if (fds.rlim_cur < 600) {
    fds.rlim_cur = fds.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &fds);
  }

  Rng rng(0x5EC5);
  SequenceDataset sequences(4);
  for (int i = 0; i < 200; ++i) {
    std::vector<Symbol> s;
    for (std::size_t j = 0; j < 1 + rng.NextBounded(6); ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(4)));
    }
    sequences.Add(s);
  }
  auto registered = registry_->Register("clicks", sequences);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  const std::uint64_t seq_fp = registered.value();

  const FitSpec box_spec{"privtree", {}, kEpsilon, kSeed};
  release::MethodOptions seq_options;
  seq_options.Set("l_top", "6");
  const FitSpec seq_spec{"pst_privtree", seq_options, kEpsilon, kSeed};
  const std::vector<Box> boxes = TestQueries();
  const std::vector<release::SequenceQuery> seq_queries = {
      release::SequenceQuery::Frequency({0, 1}),
      release::SequenceQuery::PrefixCount({2}),
      release::SequenceQuery::Frequency({3})};
  const std::vector<double> left_want =
      release::ReleaseSession(*left_, Box::UnitCube(2), kEpsilon, kSeed)
          .Release(box_spec.method, kEpsilon)
          ->QueryBatch(boxes);
  const std::vector<double> right_want =
      release::ReleaseSession(*right_, Box::UnitCube(2), kEpsilon, kSeed)
          .Release(box_spec.method, kEpsilon)
          ->QueryBatch(boxes);
  const std::vector<double> seq_want =
      release::ReleaseSession(sequences, kEpsilon, kSeed)
          .Release(seq_spec.method, kEpsilon, seq_options)
          ->QueryBatch(std::span(seq_queries));

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> exact{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<Client> clients;
      for (std::size_t c = 0; c < kClientsPerThread; ++c) {
        auto client = Client::Connect("127.0.0.1", port_);
        if (!client.ok()) {
          ADD_FAILURE() << client.status().ToString();
          break;
        }
        clients.push_back(std::move(client).value());
      }
      // Hold every connection open until all of them are up.
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t c = 0; c < clients.size(); ++c) {
          const std::size_t id = t * kClientsPerThread + c;
          const bool box = (id + round) % 2 == 0;
          const bool left = id % 2 == 0;
          const std::vector<double>& want =
              !box ? seq_want : (left ? left_want : right_want);
          Client& client = clients[c];
          client.SelectDataset(!box ? seq_fp : (left ? left_fp_ : right_fp_));
          const auto got = box ? client.QueryBatch(box_spec, boxes)
                               : client.SeqQueryBatch(seq_spec, seq_queries);
          if (!got.ok()) {
            ADD_FAILURE() << "connection " << id << " round " << round
                          << ": " << got.status().ToString();
          } else if (got.value() != want) {
            ADD_FAILURE() << "connection " << id << " round " << round
                          << " diverged from ReleaseSession";
          } else {
            ++exact;
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(exact.load(), kConnections * kRounds);
  EXPECT_GE(loop_->stats().max_concurrent, kConnections);
  std::size_t admitted = 0;
  std::size_t shed = 0;
  for (const std::uint64_t fp : {left_fp_, right_fp_, seq_fp}) {
    const AdmissionController::Stats stats =
        registry_->Find(fp)->Stats().admission;
    admitted += stats.admitted;
    shed += stats.shed_queue_full + stats.shed_cache_saturated;
  }
  EXPECT_EQ(admitted, kConnections * kRounds);
  EXPECT_EQ(shed, 0u);
}

/// Budget-capped sessions: Σε ≤ 2 per connection.
class BudgetFixture : public MultiTenantFixture {
 protected:
  void SetUp() override {
    DispatcherOptions options;
    options.session_budget = 2.0;
    Start(options);
  }
};

TEST_F(BudgetFixture, HelloAnnouncesTheBudget) {
  Client client = MustConnect();
  EXPECT_EQ(client.info().budget_total, 2.0);
  EXPECT_EQ(client.info().budget_spent, 0.0);
}

TEST_F(BudgetFixture, ExhaustionFailsCleanlyAndOthersKeepServing) {
  Client spender = MustConnect();
  const std::vector<Box> queries = TestQueries();

  // Two distinct ε=1 releases spend the whole budget...
  ASSERT_TRUE(spender.Fit({"privtree", {}, kEpsilon, kSeed}).ok());
  ASSERT_TRUE(spender.Fit({"privtree", {}, kEpsilon, kSeed + 1}).ok());
  // ...so a third distinct release is refused with OutOfRange.
  const auto broke = spender.Fit({"privtree", {}, kEpsilon, kSeed + 2});
  ASSERT_FALSE(broke.ok());
  EXPECT_EQ(broke.status().code(), StatusCode::kOutOfRange);

  // Already-paid releases stay free: queries are post-processing.
  EXPECT_TRUE(
      spender.QueryBatch({"privtree", {}, kEpsilon, kSeed}, queries).ok());

  // A different connection has its own untouched budget.
  Client fresh = MustConnect();
  EXPECT_TRUE(fresh.Fit({"privtree", {}, kEpsilon, kSeed + 2}).ok());

  // And the broke session still serves control frames.
  EXPECT_TRUE(spender.GetStatsJson().ok());
}

TEST_F(BudgetFixture, RejectedSpecDoesNotBurnBudget) {
  Client client = MustConnect();
  // An invalid spec must refund (or never charge): the budget is for
  // *released* ε, not attempts.
  ASSERT_FALSE(client.Fit({"nonsense", {}, kEpsilon, kSeed}).ok());
  ASSERT_TRUE(client.Fit({"privtree", {}, kEpsilon, kSeed}).ok());
  ASSERT_TRUE(client.Fit({"privtree", {}, kEpsilon, kSeed + 1}).ok());
}

TEST(DatasetRegistryUnitTest, EmptyAndCapBehaviour) {
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(8);
  DatasetRegistryOptions options;
  options.max_datasets = 2;
  DatasetRegistry registry(pool, cache, options);
  EXPECT_EQ(registry.Find(0), nullptr);
  EXPECT_EQ(registry.default_fingerprint(), 0u);
  EXPECT_TRUE(registry.List().empty());

  PointSet a = ClusteredPoints(1, 0.2, 50);
  PointSet b = ClusteredPoints(2, 0.5, 50);
  PointSet c = ClusteredPoints(3, 0.8, 50);
  auto first = registry.Register("a", std::move(a), Box::UnitCube(2));
  ASSERT_TRUE(first.ok());
  auto second = registry.Register("b", std::move(b), Box::UnitCube(2));
  ASSERT_TRUE(second.ok());
  // At the cap: a third distinct dataset is refused with Unavailable...
  auto third = registry.Register("c", std::move(c), Box::UnitCube(2));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  // ...but re-registering existing content is idempotent, not refused.
  PointSet a_again = ClusteredPoints(1, 0.2, 50);
  auto repeat =
      registry.Register("a2", std::move(a_again), Box::UnitCube(2));
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value(), first.value());
  EXPECT_EQ(registry.size(), 2u);

  // Find resolves 0 to the first registered tenant.
  EXPECT_EQ(registry.Find(0), registry.Find(first.value()));
  EXPECT_NE(registry.Find(second.value()), nullptr);
  EXPECT_EQ(registry.Find(0xDEAD), nullptr);

  // An empty dataset is refused.
  DatasetRegistry fresh(pool, cache);
  auto empty = fresh.Register("empty", PointSet(2), Box::UnitCube(2));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetRegistryUnitTest, UploadsCanBeDisabled) {
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(8);
  DatasetRegistry registry(pool, cache);
  PointSet points = ClusteredPoints(7, 0.4, 50);
  ASSERT_TRUE(
      registry.Register("base", std::move(points), Box::UnitCube(2)).ok());
  DispatcherOptions options;
  options.allow_uploads = false;
  Dispatcher dispatcher(registry, options);

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  EventLoop loop(dispatcher, std::move(listener).value());
  std::thread serving([&loop] { EXPECT_TRUE(loop.Run().ok()); });
  auto connected = Client::Connect("127.0.0.1", loop.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected).value();

  RegisterDatasetRequest upload;
  upload.name = "nope";
  upload.dim = 1;
  upload.domain_lo = {0.0};
  upload.domain_hi = {1.0};
  upload.coords = {0.5};
  const auto refused = client.RegisterDataset(upload);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 1u);

  loop.Stop();
  serving.join();
}

}  // namespace
}  // namespace privtree::server
