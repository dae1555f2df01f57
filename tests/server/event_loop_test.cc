// The epoll readiness loop, end to end: fit + query-batch answers for every
// method are bit-for-bit the in-process ReleaseSession answers, pipelined
// frames come back in request order, concurrent clients share one cache,
// Warm/Stats work remotely, a half-open slow-loris peer is reaped by the
// idle timeout without disturbing other clients (the regression this file
// pins), malformed payloads answer ErrorReply and keep the connection while
// malformed length prefixes close it, server-side errors (oversized tree
// specs among them) come back as statuses, replies answered during
// dispatch keep their place among pooled ones, and Shutdown drains the loop
// gracefully.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/session.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
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

std::vector<Box> TestQueries(std::size_t n = 25) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// One epoll serving stack on an ephemeral port, torn down in order.
class EventLoopFixture : public ::testing::Test {
 protected:
  void SetUp() override { Start({}); }

  void Start(EventLoopOptions options) {
    points_ = std::make_unique<PointSet>(TestPoints());
    pool_ = std::make_unique<serve::ThreadPool>(4);
    cache_ = std::make_unique<serve::SynopsisCache>(32);
    registry_ = std::make_unique<DatasetRegistry>(*pool_, *cache_);
    auto registered = registry_->Register(
        "test", release::Dataset(*points_, Box::UnitCube(2)));
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
    dispatcher_ = std::make_unique<Dispatcher>(*registry_);
    auto listener = ListenSocket::Listen(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    loop_ = std::make_unique<EventLoop>(
        *dispatcher_, std::move(listener).value(), options);
    port_ = loop_->port();
    serving_ = std::thread([this] { run_status_ = loop_->Run(); });
  }

  void TearDown() override {
    loop_->Stop();
    serving_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  Client MustConnect() {
    auto connected = Client::Connect("127.0.0.1", port_);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return std::move(connected).value();
  }

  std::unique_ptr<PointSet> points_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<serve::SynopsisCache> cache_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::thread serving_;
  Status run_status_ = Status::OK();
};

TEST_F(EventLoopFixture, HelloDescribesTheServedDataset) {
  Client client = MustConnect();
  EXPECT_EQ(client.info().dim, 2u);
  EXPECT_EQ(client.info().point_count, points_->size());
  EXPECT_EQ(client.info().dataset_fingerprint,
            registry_->default_fingerprint());
  ASSERT_EQ(client.info().datasets.size(), 1u);
  EXPECT_EQ(client.info().datasets[0].name, "test");
  EXPECT_EQ(client.info().budget_total, 0.0);  // No budget configured.
  EXPECT_EQ(client.info().methods,
            release::GlobalMethodRegistry().Names(
                release::DatasetKind::kSpatial));
}

TEST_F(EventLoopFixture, ServesReleaseSessionAnswersBitForBit) {
  // The parity oracle for the served path: every spatial method, fitted
  // and queried over the socket, equals an in-process ReleaseSession.
  Client client = MustConnect();
  const std::vector<Box> queries = TestQueries();
  for (const std::string& method :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    const FitSpec spec{method, {}, kEpsilon, kSeed};
    const auto fitted = client.Fit(spec);
    ASSERT_TRUE(fitted.ok()) << method << ": "
                             << fitted.status().ToString();
    EXPECT_EQ(fitted.value().metadata.method, method);

    const auto answers = client.QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << method << ": "
                              << answers.status().ToString();
    release::ReleaseSession session(*points_, Box::UnitCube(2), kEpsilon,
                                    kSeed);
    const std::vector<double> want =
        session.Release(method, kEpsilon)->QueryBatch(queries);
    ASSERT_EQ(answers.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(answers.value()[i], want[i])
          << method << " query " << i << " diverged over epoll";
    }
  }
}

TEST_F(EventLoopFixture, PipelinedFramesAnswerInRequestOrder) {
  // Send many frames back to back without reading, then collect every
  // reply: each must decode and arrive in request order (Fit replies
  // carry the method name, which is how order is observable).
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();

  const std::vector<std::string> methods = {"privtree", "ug", "wavelet",
                                            "privtree", "ag", "ug"};
  std::string burst;
  for (const std::string& method : methods) {
    const std::string payload =
        EncodeFit({FitSpec{method, {}, kEpsilon, kSeed}, 0, 0});
    ByteWriter w(&burst);
    w.U32(static_cast<std::uint32_t>(payload.size()));
    burst.append(payload);
  }
  ASSERT_EQ(::send(conn.fd(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  for (std::size_t i = 0; i < methods.size(); ++i) {
    auto reply = conn.RecvFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    FitReply fit;
    ASSERT_TRUE(DecodeFitReply(reply.value(), &fit).ok()) << "reply " << i;
    EXPECT_EQ(fit.metadata.method, methods[i])
        << "pipelined reply " << i << " out of order";
  }
  EXPECT_GE(loop_->stats().served_frames, methods.size());
}

TEST_F(EventLoopFixture, InlineAndPooledRepliesKeepRequestOrder) {
  // One pipelined connection mixing every reply route: 1-box queries on a
  // cached release (answered during dispatch, on the loop thread), 64-box
  // queries and an uncached 1-box query (pool), a Fit (pool) and a
  // malformed payload (answered during dispatch).  Replies come back in
  // request order, each with the answers of its own frame.
  Client client = MustConnect();
  const FitSpec ug{"ug", {}, kEpsilon, kSeed};
  const FitSpec privtree{"privtree", {}, kEpsilon, kSeed};
  ASSERT_TRUE(client.Fit(ug).ok());

  struct Frame {
    std::string payload;
    const FitSpec* spec = nullptr;  // Query frames: whose answers.
    std::vector<Box> boxes;
  };
  const std::vector<Box> all_boxes = TestQueries(64 + 4);
  const auto query = [&](const FitSpec& spec, std::size_t first,
                         std::size_t count) {
    Frame frame;
    frame.spec = &spec;
    frame.boxes.assign(all_boxes.begin() + first,
                       all_boxes.begin() + first + count);
    QueryBatchRequest request;
    request.spec = spec;
    request.queries = frame.boxes;
    frame.payload = EncodeQueryBatch(request);
    return frame;
  };
  std::vector<Frame> frames;
  frames.push_back(query(ug, 0, 1));
  frames.push_back(query(ug, 4, 64));
  frames.push_back(query(privtree, 1, 1));  // Not cached yet: pool fit.
  frames.push_back(Frame{EncodeFit({privtree, 0, 0}), nullptr, {}});
  frames.push_back(Frame{"garbage frame", nullptr, {}});
  frames.push_back(query(ug, 2, 1));
  frames.push_back(query(ug, 3, 64));
  frames.push_back(query(ug, 3, 1));

  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  // A reply lost to a misplaced slot fails the read instead of hanging.
  ASSERT_TRUE(conn.SetRecvTimeout(5000).ok());
  std::string burst;
  for (const Frame& frame : frames) {
    ByteWriter w(&burst);
    w.U32(static_cast<std::uint32_t>(frame.payload.size()));
    burst.append(frame.payload);
  }
  ASSERT_EQ(::send(conn.fd(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto reply = conn.RecvFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    const Frame& frame = frames[i];
    if (frame.spec != nullptr) {
      QueryBatchReply batch;
      ASSERT_TRUE(DecodeQueryBatchReply(reply.value(), &batch).ok())
          << "reply " << i << " is not a query reply";
      release::ReleaseSession session(*points_, Box::UnitCube(2), kEpsilon,
                                      kSeed);
      EXPECT_EQ(batch.answers, session.Release(frame.spec->method, kEpsilon)
                                   ->QueryBatch(frame.boxes))
          << "reply " << i << " out of order";
    } else if (frame.payload == "garbage frame") {
      EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply)
          << "reply " << i;
    } else {
      FitReply fit;
      ASSERT_TRUE(DecodeFitReply(reply.value(), &fit).ok()) << "reply " << i;
      EXPECT_EQ(fit.metadata.method, "privtree");
    }
  }
}

TEST_F(EventLoopFixture, ConcurrentClientsShareOneCache) {
  const std::vector<Box> queries = TestQueries();
  constexpr std::size_t kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto connected = Client::Connect("127.0.0.1", port_);
      if (!connected.ok()) {
        ++failures;
        return;
      }
      Client client = std::move(connected).value();
      for (const char* method : {"privtree", "ug"}) {
        const FitSpec spec{method, {}, kEpsilon, kSeed};
        const auto answers = client.QueryBatch(spec, queries);
        if (!answers.ok()) ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  // All clients shared one cache: exactly one fit per method happened.
  EXPECT_EQ(cache_->stats().misses, 2u);
  EXPECT_GE(cache_->stats().hits +
                registry_->Find(0)->Stats().admission.coalesced_fits,
            2u * (kClients - 1));
}

TEST_F(EventLoopFixture, WarmAndGetStatsWorkRemotely) {
  Client client = MustConnect();
  const std::vector<FitSpec> specs = {{"ug", {}, kEpsilon, kSeed},
                                      {"wavelet", {}, kEpsilon, kSeed}};
  const auto accepted = client.Warm(specs);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value(), 2u);
  pool_->WaitIdle();

  const auto stats = client.GetStatsJson();
  ASSERT_TRUE(stats.ok());
  // Both warm fits passed admission and drained through the queue.
  EXPECT_NE(stats.value().find("\"engine.queue_depth\":0"),
            std::string::npos)
      << stats.value();
  EXPECT_GE(registry_->Find(0)->Stats().admission.admitted, 2u);
  // The warmed release now serves as a cache hit.
  const auto fitted = client.Fit(specs[0]);
  ASSERT_TRUE(fitted.ok());
  EXPECT_TRUE(fitted.value().cache_hit);
}

TEST_F(EventLoopFixture, ServerSideErrorsComeBackAsStatuses) {
  Client client = MustConnect();
  const auto unknown = client.Fit({"nonsense", {}, kEpsilon, kSeed});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  const auto negative = client.Fit({"ug", {}, -2.0, kSeed});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  // The connection survives rejected requests.
  const auto fitted = client.Fit({"ug", {}, kEpsilon, kSeed});
  EXPECT_TRUE(fitted.ok());
}

TEST_F(EventLoopFixture, OversizedTreeSpecsAreRefused) {
  // One Fit must not be able to exhaust the server's memory: a simpletree
  // of height 24 (complete tree ~2.8e13 nodes at β = 4) or a kdtree of
  // height 40 (2^41 − 1 nodes) is refused before any fit starts.
  Client client = MustConnect();
  const auto simple = client.Fit(
      {"simpletree", release::MethodOptions::Parse("height=24"), kEpsilon,
       kSeed});
  ASSERT_FALSE(simple.ok());
  EXPECT_EQ(simple.status().code(), StatusCode::kInvalidArgument);
  const auto kd = client.Fit(
      {"kdtree", release::MethodOptions::Parse("height=40"), kEpsilon, kSeed});
  ASSERT_FALSE(kd.ok());
  EXPECT_EQ(kd.status().code(), StatusCode::kInvalidArgument);

  // The server answers the next request on the same connection.
  const std::vector<Box> queries = TestQueries(5);
  const auto answers = client.QueryBatch(
      {"simpletree", release::MethodOptions::Parse("height=6"), kEpsilon,
       kSeed},
      queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers.value().size(), queries.size());
}

TEST_F(EventLoopFixture, MixedDimBatchesAreRefusedClientSide) {
  Client client = MustConnect();
  const std::vector<Box> mixed = {Box({0.1, 0.2}, {0.5, 0.6}),
                                  Box({0.1}, {0.5})};
  const auto answers =
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, mixed);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EventLoopFixture, SequentialReconnectsAreServed) {
  // Many short-lived clients in a row: each is accepted and served.
  const std::vector<Box> queries = TestQueries(5);
  for (int i = 0; i < 10; ++i) {
    Client client = MustConnect();
    const auto answers =
        client.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries);
    ASSERT_TRUE(answers.ok()) << "reconnect " << i << ": "
                              << answers.status().ToString();
  }
  EXPECT_GE(loop_->stats().accepted, 10u);
}

TEST_F(EventLoopFixture, VersionMismatchIsRefused) {
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  HelloRequest hello;
  hello.version = kProtocolVersion + 1;
  ASSERT_TRUE(conn.SendFrame(EncodeHello(hello)).ok());
  auto reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);
}

class EventLoopTimeoutFixture : public EventLoopFixture {
 protected:
  void SetUp() override {
    EventLoopOptions options;
    options.idle_timeout = std::chrono::milliseconds(150);
    Start(options);
  }
};

TEST_F(EventLoopTimeoutFixture, SlowLorisHalfFrameIsReapedByIdleTimeout) {
  // The regression: a peer that sends two bytes of a length prefix and
  // stalls used to hold its server thread hostage forever.  Under the
  // event loop the idle timeout reaps it with a clean close, and a
  // well-behaved client on the same loop stays fully served throughout.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection loris = std::move(dialed).value();
  const char half_header[2] = {0x10, 0x00};  // A partial length prefix.
  ASSERT_EQ(::send(loris.fd(), half_header, sizeof(half_header), 0), 2);

  // The healthy client keeps getting answers while the loris waits.
  Client healthy = MustConnect();
  const std::vector<Box> queries = TestQueries(5);
  for (int i = 0; i < 3; ++i) {
    const auto answers =
        healthy.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // By now (>= 300ms > 150ms idle) the loris must have been reaped: its
  // next read observes the server-side close as a clean error Status.
  const auto reply = loris.RecvFrame();
  ASSERT_FALSE(reply.ok());
  EXPECT_GE(loop_->stats().reaped_idle, 1u);

  // And the loop still accepts and serves new connections.
  Client after = MustConnect();
  EXPECT_TRUE(after.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries).ok());
}

TEST_F(EventLoopTimeoutFixture, BusyConnectionsAreNeverReaped) {
  // A connection with steady traffic outlives many idle timeouts.
  Client client = MustConnect();
  const std::vector<Box> queries = TestQueries(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.QueryBatch({"privtree", {}, kEpsilon, kSeed}, queries).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  EXPECT_EQ(loop_->stats().reaped_idle, 0u);
}

TEST_F(EventLoopFixture, OversizedLengthPrefixAnswersErrorAndCloses) {
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  // A length prefix far past kMaxFramePayload.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(conn.fd(), huge, sizeof(huge), 0), 4);

  auto reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);
  Status carried;
  ASSERT_TRUE(DecodeErrorReply(reply.value(), &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  // The stream is unsynchronized; the server closes after the error.
  EXPECT_FALSE(conn.RecvFrame().ok());
  EXPECT_GE(loop_->stats().malformed_frames, 1u);

  // Other connections are unaffected.
  Client client = MustConnect();
  EXPECT_TRUE(
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries(3)).ok());
}

TEST_F(EventLoopFixture, MalformedPayloadKeepsTheConnectionAlive) {
  // A well-framed but undecodable payload answers ErrorReply and keeps
  // serving — only an unsynchronized *stream* forces a close.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  ASSERT_TRUE(conn.SendFrame("garbage frame").ok());
  auto reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);
  Status carried;
  ASSERT_TRUE(DecodeErrorReply(reply.value(), &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);

  // A reply tag sent as a request is refused, not crashed on.
  ASSERT_TRUE(conn.SendFrame(EncodeShutdownReply()).ok());
  reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);

  // The same connection still serves a well-formed handshake.
  ASSERT_TRUE(conn.SendFrame(EncodeHello(HelloRequest{})).ok());
  reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kHelloReply);
}

TEST_F(EventLoopFixture, ShutdownFrameDrainsTheLoop) {
  Client client = MustConnect();
  EXPECT_TRUE(client.Shutdown().ok());
  serving_.join();  // Run() must return on its own after Shutdown.
  EXPECT_TRUE(run_status_.ok());
  serving_ = std::thread([] {});  // Keep TearDown's join well-defined.
  // New connections are refused once the loop stopped (port released).
  auto refused = Client::Connect("127.0.0.1", port_);
  EXPECT_FALSE(refused.ok());
}

TEST_F(EventLoopFixture, StopFromAnotherThreadDrains) {
  Client client = MustConnect();
  loop_->Stop();
  serving_.join();
  EXPECT_TRUE(run_status_.ok());
  serving_ = std::thread([] {});
  // The existing connection observes the close.
  EXPECT_FALSE(client.GetStatsJson().ok());
}

class EventLoopCapacityFixture : public EventLoopFixture {
 protected:
  void SetUp() override {
    EventLoopOptions options;
    options.max_connections = 2;
    Start(options);
  }
};

TEST_F(EventLoopCapacityFixture, AcceptsPastCapacityAreRefused) {
  Client a = MustConnect();
  Client b = MustConnect();
  // The third connection is closed on accept: the dial itself succeeds
  // (the kernel completes the handshake) but the handshake frame dies.
  auto refused = Client::Connect("127.0.0.1", port_);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(loop_->stats().refused_at_capacity, 1u);
  // The two admitted connections still serve.
  EXPECT_TRUE(a.GetStatsJson().ok());
  EXPECT_TRUE(b.GetStatsJson().ok());
}

TEST(ServerSocketTest, DialingAClosedPortFails) {
  // Bind-then-close to find a port that is very likely unused.
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().Close();
  auto dialed = Connection::Dial("127.0.0.1", port);
  EXPECT_FALSE(dialed.ok());
  EXPECT_EQ(dialed.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace privtree::server
