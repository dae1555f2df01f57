// Dispatcher budget accounting on the three fit-carrying frames (Fit,
// QueryBatch, SeqQueryBatch): a request charges the session's ε when it is
// accepted, and a request that is then shed (queue full) or expires while
// it waits refunds it, so the session's spent ε is as if it never came.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "release/dataset.h"
#include "release/sequence_query.h"
#include "seq/sequence.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/client_session.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

constexpr double kEpsilon = 0.5;

PointSet TestPoints() {
  Rng rng(0xDA7A);
  PointSet points(2);
  std::vector<double> p(2);
  for (int i = 0; i < 100; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

SequenceDataset TestSequences() {
  Rng rng(0x5E0);
  SequenceDataset data(6);
  std::vector<Symbol> row;
  for (int i = 0; i < 100; ++i) {
    row.clear();
    const std::size_t len = 1 + rng.NextBounded(6);
    for (std::size_t j = 0; j < len; ++j) {
      row.push_back(static_cast<Symbol>(rng.NextBounded(6)));
    }
    data.Add(row);
  }
  return data;
}

/// Blocks the (single) pool worker until Release(), so requests wait in
/// their engine's queue.  Block() returns once the worker is inside.
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

/// The status code a reply payload carries (kOk for any non-error reply).
StatusCode CodeOf(const std::string& reply) {
  if (PeekType(reply).value() != MessageType::kErrorReply) {
    return StatusCode::kOk;
  }
  Status carried;
  EXPECT_TRUE(DecodeErrorReply(reply, &carried).ok());
  return carried.code();
}

class DispatcherBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    points_ = std::make_unique<PointSet>(TestPoints());
    sequences_ = std::make_unique<SequenceDataset>(TestSequences());
    pool_ = std::make_unique<serve::ThreadPool>(1);
    cache_ = std::make_unique<serve::SynopsisCache>(16);
    DatasetRegistryOptions options;
    options.engine.admission.max_queue_depth = 1;
    registry_ = std::make_unique<DatasetRegistry>(*pool_, *cache_, options);
    auto spatial = registry_->Register(
        "pts", release::Dataset(*points_, Box::UnitCube(2)));
    ASSERT_TRUE(spatial.ok());
    spatial_fp_ = spatial.value();
    auto sequence = registry_->Register("seqs", release::Dataset(*sequences_));
    ASSERT_TRUE(sequence.ok());
    sequence_fp_ = sequence.value();
    DispatcherOptions dispatcher_options;
    dispatcher_options.session_budget = 4 * kEpsilon;
    dispatcher_ =
        std::make_unique<Dispatcher>(*registry_, dispatcher_options);
  }

  void TearDown() override { pool_->WaitIdle(); }

  /// One request frame of `type` for a distinct release (`seed`).
  std::string Frame(MessageType type, std::uint64_t seed,
                    std::int64_t deadline_millis) const {
    const FitSpec spatial{"ug", {}, kEpsilon, seed};
    switch (type) {
      case MessageType::kFit:
        return EncodeFit({spatial, deadline_millis, spatial_fp_});
      case MessageType::kQueryBatch:
        return EncodeQueryBatch({spatial,
                                 deadline_millis,
                                 spatial_fp_,
                                 {Box::UnitCube(2), Box::UnitCube(2)}});
      default:
        return EncodeSeqQueryBatch(
            {{"pst_privtree", release::MethodOptions::Parse("l_top=4"),
              kEpsilon, seed},
             deadline_millis,
             sequence_fp_,
             {release::SequenceQuery::Frequency({1})}});
    }
  }

  /// Dispatches `frame`; the future holds the reply once `done` ran.
  std::future<std::string> Send(const std::string& frame,
                                const std::shared_ptr<ClientSession>& session) {
    auto reply = std::make_shared<std::promise<std::string>>();
    std::future<std::string> future = reply->get_future();
    bool shutdown = false;
    dispatcher_->HandleFrame(frame, session, &shutdown,
                             [reply](std::string payload) {
                               reply->set_value(std::move(payload));
                             });
    return future;
  }

  std::unique_ptr<PointSet> points_;
  std::unique_ptr<SequenceDataset> sequences_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<serve::SynopsisCache> cache_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::uint64_t spatial_fp_ = 0;
  std::uint64_t sequence_fp_ = 0;
};

TEST_F(DispatcherBudgetTest, ShedAndExpiredRequestsLeaveSpentEpsilonUnchanged) {
  const std::shared_ptr<ClientSession> session = dispatcher_->NewSession();
  std::uint64_t seed = 100;
  for (const MessageType type : {MessageType::kFit, MessageType::kQueryBatch,
                                 MessageType::kSeqQueryBatch}) {
    SCOPED_TRACE(static_cast<int>(type));
    ASSERT_EQ(session->spent(), 0.0);
    Wedge wedge;
    wedge.Block(*pool_);

    // The first request takes the one queue slot, charged; it may wait
    // 50 ms.
    std::future<std::string> queued =
        Send(Frame(type, seed++, /*deadline_millis=*/50), session);
    EXPECT_EQ(queued.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(session->spent(), kEpsilon);

    // The second finds the queue full: shed, and its charge refunded.
    std::future<std::string> shed =
        Send(Frame(type, seed++, /*deadline_millis=*/0), session);
    ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(CodeOf(shed.get()), StatusCode::kUnavailable);
    EXPECT_EQ(session->spent(), kEpsilon);

    // The first expires while it waits: its charge is refunded too.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    wedge.Release();
    EXPECT_EQ(CodeOf(queued.get()), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(session->spent(), 0.0);
    pool_->WaitIdle();
  }

  // A served request keeps its charge: the refunds above were not a
  // session that never charged.
  std::future<std::string> served =
      Send(Frame(MessageType::kFit, seed, /*deadline_millis=*/0), session);
  EXPECT_EQ(CodeOf(served.get()), StatusCode::kOk);
  EXPECT_EQ(session->spent(), kEpsilon);
}

}  // namespace
}  // namespace privtree::server
