// Client resilience: bounded connect/Hello handshakes, retry-after-honoring
// backoff on served Unavailable, transparent reconnect + resend after a
// transport failure, the no-retry discipline on Shutdown, and a real
// server-restart survived mid-session.  The scripted scenarios run against
// a raw frame-speaking fake so the test controls exactly which failure the
// client sees; the restart scenario runs the full EventLoop stack.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
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

using Clock = std::chrono::steady_clock;

std::int64_t MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Answers the Hello handshake on `conn` like a real v-current server.
void AnswerHello(Connection& conn) {
  auto frame = conn.RecvFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  HelloReply hello;
  hello.dim = 2;
  hello.point_count = 1;
  hello.methods = {"ug"};
  ASSERT_TRUE(conn.SendFrame(EncodeHelloReply(hello)).ok());
}

TEST(ClientRetryTest, SilentListenerYieldsDeadlineExceededNotAHang) {
  // The listener accepts into its backlog but never answers Hello; without
  // the handshake timeout Connect would block forever.
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  ClientOptions options;
  options.connect_timeout_millis = 200;
  const auto start = Clock::now();
  auto connected =
      Client::Connect("127.0.0.1", listener.value().port(), options);
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(MillisSince(start), 5000);
}

TEST(ClientRetryTest, ServedUnavailableBacksOffHonoringRetryAfter) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    AnswerHello(conn.value());
    // First Stats: shed with a 120ms retry-after hint.  Second: serve.
    auto first = conn.value().RecvFrame();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(conn.value()
                    .SendFrame(EncodeErrorReply(
                        Status::Unavailable("shed").WithRetryAfter(120)))
                    .ok());
    auto second = conn.value().RecvFrame();
    ASSERT_TRUE(second.ok());
    StatsReply stats;
    stats.admitted = 7;
    ASSERT_TRUE(conn.value().SendFrame(EncodeStatsReply(stats)).ok());
  });

  ClientOptions options;
  options.max_attempts = 3;
  options.base_backoff_millis = 1;  // The hint, not this, must set the wait.
  auto client = Client::Connect("127.0.0.1", listener.value().port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto start = Clock::now();
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().admitted, 7u);
  // The wait honored the server's floor, and no reconnect happened (the
  // shed reply arrived on a healthy connection).
  EXPECT_GE(MillisSince(start), 110);
  EXPECT_EQ(client.value().telemetry().retries, 1u);
  EXPECT_EQ(client.value().telemetry().reconnects, 0u);
  server.join();
}

TEST(ClientRetryTest, TransportFailureReconnectsAndResends) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    {  // First connection: handshake, then die before answering Stats.
      auto conn = listener.value().Accept();
      ASSERT_TRUE(conn.ok());
      AnswerHello(conn.value());
      auto request = conn.value().RecvFrame();
      ASSERT_TRUE(request.ok());
    }  // Closing the scope closes the socket: the client sees EOF.
    auto conn = listener.value().Accept();  // The client's re-dial.
    ASSERT_TRUE(conn.ok());
    AnswerHello(conn.value());
    auto request = conn.value().RecvFrame();
    ASSERT_TRUE(request.ok());
    StatsReply stats;
    stats.admitted = 9;
    ASSERT_TRUE(conn.value().SendFrame(EncodeStatsReply(stats)).ok());
  });

  ClientOptions options;
  options.max_attempts = 3;
  options.base_backoff_millis = 1;
  auto client = Client::Connect("127.0.0.1", listener.value().port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().admitted, 9u);
  EXPECT_EQ(client.value().telemetry().retries, 1u);
  EXPECT_EQ(client.value().telemetry().reconnects, 1u);
  server.join();
}

TEST(ClientRetryTest, FailedReconnectDoesNotCountAsRetry) {
  // Connection 1 dies after taking the request (transport failure).  The
  // re-dial lands on connection 2, which never answers Hello, so that
  // reconnect fails without a single byte of the request being resent.
  // Connection 3 handshakes and serves.  Telemetry must report exactly one
  // retry — the one resend the server actually saw — and one reconnect,
  // the one successful re-dial; the failed reconnect is neither.
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    {  // Connection 1: handshake, swallow the request, die.
      auto conn = listener.value().Accept();
      ASSERT_TRUE(conn.ok());
      AnswerHello(conn.value());
      auto request = conn.value().RecvFrame();
      ASSERT_TRUE(request.ok());
    }
    {  // Connection 2: accept, then stay silent until the client gives up.
      auto conn = listener.value().Accept();
      ASSERT_TRUE(conn.ok());
      auto hello = conn.value().RecvFrame();  // Unanswered Hello.
    }  // Scope exit closes it.
    auto conn = listener.value().Accept();  // Connection 3: serve.
    ASSERT_TRUE(conn.ok());
    AnswerHello(conn.value());
    auto request = conn.value().RecvFrame();
    ASSERT_TRUE(request.ok());
    StatsReply stats;
    stats.admitted = 11;
    ASSERT_TRUE(conn.value().SendFrame(EncodeStatsReply(stats)).ok());
  });

  ClientOptions options;
  options.max_attempts = 4;
  options.base_backoff_millis = 1;
  options.connect_timeout_millis = 200;  // Bounds the silent Hello quickly.
  auto client = Client::Connect("127.0.0.1", listener.value().port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().admitted, 11u);
  EXPECT_EQ(client.value().telemetry().retries, 1u);
  EXPECT_EQ(client.value().telemetry().reconnects, 1u);
  server.join();
}

TEST(ClientRetryTest, ShutdownIsNeverRetried) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<int> connections{0};
  std::thread server([&] {
    {  // Die on the Shutdown frame without answering.
      auto conn = listener.value().Accept();
      ASSERT_TRUE(conn.ok());
      ++connections;
      AnswerHello(conn.value());
      auto request = conn.value().RecvFrame();
      ASSERT_TRUE(request.ok());
    }
    // A retrying client would re-dial here; give it the chance to.
    auto conn = listener.value().Accept();
    if (conn.ok()) ++connections;
  });

  ClientOptions options;
  options.max_attempts = 5;
  options.base_backoff_millis = 1;
  auto client = Client::Connect("127.0.0.1", listener.value().port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status shutdown = client.value().Shutdown();
  EXPECT_FALSE(shutdown.ok());  // The lost reply surfaces, not a resend.
  EXPECT_EQ(client.value().telemetry().retries, 0u);
  EXPECT_EQ(client.value().telemetry().reconnects, 0u);
  // Unblock the server thread's second Accept and make sure the client
  // never dialed it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.value().Shutdown();
  server.join();
  EXPECT_EQ(connections.load(), 1);
}

TEST(ClientRetryTest, ClientSurvivesServerRestartTransparently) {
  Rng data_rng(0xDA7A);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < 200; ++i) {
    p[0] = data_rng.NextDouble();
    p[1] = data_rng.NextDouble();
    points.Add(p);
  }
  serve::ThreadPool pool(2);
  serve::SynopsisCache cache(16);
  DatasetRegistry registry(pool, cache);
  ASSERT_TRUE(
      registry.Register("test", release::Dataset(points, Box::UnitCube(2)))
          .ok());
  Dispatcher dispatcher(registry);

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  auto loop = std::make_unique<EventLoop>(dispatcher,
                                          std::move(listener).value());
  std::thread serving([&loop] { EXPECT_TRUE(loop->Run().ok()); });

  ClientOptions options;
  options.max_attempts = 8;
  options.base_backoff_millis = 20;
  auto client = Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const FitSpec spec{"ug", {}, 1.0, 0xC11};
  Rng query_rng(0xBEEF);
  const auto queries =
      GenerateRangeQueries(Box::UnitCube(2), 20, kMediumQueries, query_rng);
  auto before = client.value().QueryBatch(spec, queries);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Restart the server on the same port; the client's next call must
  // reconnect and answer identically (the fit is deterministic in the
  // spec's seed, and the synopsis cache survives with the process here).
  loop->Stop();
  serving.join();
  auto relisten = ListenSocket::Listen(port);
  ASSERT_TRUE(relisten.ok()) << relisten.status().ToString();
  loop = std::make_unique<EventLoop>(dispatcher, std::move(relisten).value());
  std::thread reserving([&loop] { EXPECT_TRUE(loop->Run().ok()); });

  auto after = client.value().QueryBatch(spec, queries);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(client.value().telemetry().reconnects, 1u);
  ASSERT_EQ(after.value().size(), before.value().size());
  for (std::size_t i = 0; i < after.value().size(); ++i) {
    EXPECT_EQ(after.value()[i], before.value()[i]) << "query " << i;
  }

  loop->Stop();
  reserving.join();
}

}  // namespace
}  // namespace privtree::server
