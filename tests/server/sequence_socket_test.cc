// Served sequence traffic, end to end: an EventLoop over a sequence-kind
// AsyncEngine answers remote pst_privtree / ngram fits and SequenceQuery
// batches bit-for-bit like an in-process ReleaseSession, hostile specs
// (out-of-range options, out-of-alphabet symbols, wrong query shape) come
// back as clean Status errors, and the SeqQueryBatch wire codec is total
// under truncation and bit flips.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/session.h"
#include "seq/sequence.h"
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
constexpr std::size_t kAlphabet = 6;
constexpr std::size_t kLTop = 8;

SequenceDataset TestSequences(std::size_t n = 300) {
  Rng rng(0xDA7A5EC);
  SequenceDataset data(kAlphabet);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(10);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(kAlphabet)));
    }
    data.Add(s);
  }
  return data.Truncate(kLTop);
}

release::MethodOptions SeqOptions() {
  release::MethodOptions options;
  options.Set("l_top", std::to_string(kLTop));
  return options;
}

std::vector<release::SequenceQuery> TestQueries() {
  std::vector<release::SequenceQuery> queries;
  Rng rng(0xF00D);
  for (int i = 0; i < 30; ++i) {
    std::vector<Symbol> s;
    const std::size_t len = 1 + rng.NextBounded(4);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(kAlphabet)));
    }
    queries.push_back(i % 4 == 0
                          ? release::SequenceQuery::PrefixCount(s)
                          : release::SequenceQuery::Frequency(s));
  }
  queries.push_back(release::SequenceQuery::TopK(5, 2));
  return queries;
}

/// The in-process ground truth for one served release.
std::vector<double> SessionAnswers(
    const SequenceDataset& data, const std::string& method,
    const std::vector<release::SequenceQuery>& queries,
    std::uint64_t seed = kSeed) {
  release::ReleaseSession session(data, kEpsilon, seed);
  const auto released = session.ReleaseRemaining(method, SeqOptions());
  return released->QueryBatch(std::span(queries));
}

/// One sequence serving stack on an ephemeral port, torn down in order.
class SequenceServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sequences_ = std::make_unique<SequenceDataset>(TestSequences());
    pool_ = std::make_unique<serve::ThreadPool>(4);
    cache_ = std::make_unique<serve::SynopsisCache>(32);
    registry_ = std::make_unique<DatasetRegistry>(*pool_, *cache_);
    auto registered =
        registry_->Register("seq", release::Dataset(*sequences_));
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
    dispatcher_ = std::make_unique<Dispatcher>(*registry_);
    auto listener = ListenSocket::Listen(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
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

  std::unique_ptr<SequenceDataset> sequences_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<serve::SynopsisCache> cache_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::thread serving_;
};

TEST_F(SequenceServerFixture, HelloDescribesTheSequenceDataset) {
  Client client = MustConnect();
  EXPECT_EQ(client.info().kind, release::DatasetKind::kSequence);
  EXPECT_EQ(client.info().dim, kAlphabet);  // Alphabet size.
  EXPECT_EQ(client.info().point_count, sequences_->size());
  EXPECT_EQ(client.info().dataset_fingerprint,
            registry_->default_fingerprint());
  // Only the methods this server can fit are advertised.
  EXPECT_EQ(client.info().methods,
            release::GlobalMethodRegistry().Names(
                release::DatasetKind::kSequence));
}

TEST_F(SequenceServerFixture, BothMethodsServeSessionAnswersOverTheSocket) {
  Client client = MustConnect();
  const std::vector<release::SequenceQuery> queries = TestQueries();
  for (const std::string& method :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSequence)) {
    SCOPED_TRACE(method);
    const FitSpec spec{method, SeqOptions(), kEpsilon, kSeed};
    const auto fitted = client.Fit(spec);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    EXPECT_EQ(fitted.value().metadata.method, method);
    EXPECT_EQ(fitted.value().metadata.dim, kAlphabet);

    const auto answers = client.SeqQueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    const std::vector<double> want =
        SessionAnswers(*sequences_, method, queries);
    ASSERT_EQ(answers.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(answers.value()[i], want[i])
          << method << " query " << i << " diverged from ReleaseSession";
    }
  }
}

TEST_F(SequenceServerFixture, HostileSpecsGetCleanStatuses) {
  Client client = MustConnect();
  const std::vector<release::SequenceQuery> queries = TestQueries();

  // A spatial method against a sequence server.
  {
    const FitSpec spec{"privtree", {}, kEpsilon, kSeed};
    const auto fitted = client.Fit(spec);
    ASSERT_FALSE(fitted.ok());
    EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument);
  }
  // Box queries against a sequence server.
  {
    const FitSpec spec{"pst_privtree", SeqOptions(), kEpsilon, kSeed};
    const std::vector<Box> boxes = {Box::UnitCube(2)};
    const auto answers = client.QueryBatch(spec, boxes);
    ASSERT_FALSE(answers.ok());
    EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  }
  // Out-of-range option values: the registry's OptionKey ranges screen
  // them before any fitter contract check can abort the server.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"l_top", "0"},
           {"l_top", "-5"},
           {"max_depth", "0"},
           {"tree_budget_fraction", "1"}}) {
    release::MethodOptions options;
    options.Set(key, value);
    const FitSpec spec{"pst_privtree", options, kEpsilon, kSeed};
    const auto fitted = client.Fit(spec);
    ASSERT_FALSE(fitted.ok()) << key << "=" << value;
    EXPECT_EQ(fitted.status().code(), StatusCode::kInvalidArgument)
        << key << "=" << value;
  }
  {
    release::MethodOptions options;
    options.Set("n_max", "0");
    const FitSpec spec{"ngram", options, kEpsilon, kSeed};
    EXPECT_FALSE(client.Fit(spec).ok());
  }
  // Out-of-alphabet symbols and hostile top-k ranks.
  {
    const FitSpec spec{"pst_privtree", SeqOptions(), kEpsilon, kSeed};
    for (const release::SequenceQuery& bad :
         {release::SequenceQuery::Frequency(
              {static_cast<Symbol>(kAlphabet)}),
          release::SequenceQuery::Frequency({}),
          release::SequenceQuery::TopK(0, 2),
          release::SequenceQuery::TopK(3, 99)}) {
      const auto answers = client.SeqQueryBatch(
          spec, std::span<const release::SequenceQuery>(&bad, 1));
      ASSERT_FALSE(answers.ok());
      EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // The connection survives all of the above.
  const FitSpec spec{"pst_privtree", SeqOptions(), kEpsilon, kSeed};
  EXPECT_TRUE(client.SeqQueryBatch(spec, queries).ok());
}

TEST_F(SequenceServerFixture, SpatialEngineRejectsSeqQueryBatch) {
  // The inverse shape error, in-process: a spatial engine must answer a
  // SeqQueryBatch with a clean InvalidArgument.
  PointSet points(2);
  points.Add(std::vector<double>{0.5, 0.5});
  AsyncEngine spatial(points, Box::UnitCube(2), *pool_, *cache_);
  const FitSpec spec{"privtree", {}, kEpsilon, kSeed};
  const auto response =
      spatial
          .SubmitSeqQueryBatch(spec,
                               {release::SequenceQuery::Frequency({0})})
          .Get();
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(SeqProtocolTest, SeqQueryBatchRoundTrips) {
  SeqQueryBatchRequest request;
  request.spec = {"pst_privtree", SeqOptions(), 0.5, 42};
  request.deadline_millis = 1500;
  request.queries = TestQueries();

  const std::string payload = EncodeSeqQueryBatch(request);
  ASSERT_EQ(PeekType(payload).value(), MessageType::kSeqQueryBatch);
  SeqQueryBatchRequest decoded;
  ASSERT_TRUE(DecodeSeqQueryBatch(payload, &decoded).ok());
  EXPECT_EQ(decoded.spec.method, request.spec.method);
  EXPECT_EQ(decoded.spec.options.ToString(),
            request.spec.options.ToString());
  EXPECT_EQ(decoded.spec.epsilon, request.spec.epsilon);
  EXPECT_EQ(decoded.spec.seed, request.spec.seed);
  EXPECT_EQ(decoded.deadline_millis, request.deadline_millis);
  ASSERT_EQ(decoded.queries.size(), request.queries.size());
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    EXPECT_EQ(decoded.queries[i].kind, request.queries[i].kind);
    EXPECT_EQ(decoded.queries[i].symbols, request.queries[i].symbols);
    EXPECT_EQ(decoded.queries[i].k, request.queries[i].k);
    EXPECT_EQ(decoded.queries[i].max_len, request.queries[i].max_len);
  }
}

TEST(SeqProtocolTest, DecoderIsTotalUnderCorruption) {
  SeqQueryBatchRequest request;
  request.spec = {"ngram", SeqOptions(), 1.0, 7};
  request.queries = TestQueries();
  const std::string payload = EncodeSeqQueryBatch(request);

  // Every truncation prefix fails cleanly.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    SeqQueryBatchRequest out;
    EXPECT_FALSE(DecodeSeqQueryBatch(payload.substr(0, cut), &out).ok())
        << "truncation at " << cut;
  }
  // Bit flips either decode to a different-but-valid request or fail
  // cleanly; they never crash.  (A flip can legitimately survive: symbol
  // values, ranks and deadlines admit many valid encodings.)
  for (std::size_t bit = 0; bit < payload.size() * 8; bit += 7) {
    std::string corrupt = payload;
    corrupt[bit / 8] =
        static_cast<char>(corrupt[bit / 8] ^ (1 << (bit % 8)));
    SeqQueryBatchRequest out;
    // lint-ok: discarded-status — fuzzing: any verdict is acceptable, the
    // assertion is only that the decoder does not crash.
    (void)DecodeSeqQueryBatch(corrupt, &out);
  }
  // Trailing bytes are rejected.
  SeqQueryBatchRequest out;
  EXPECT_FALSE(DecodeSeqQueryBatch(payload + "x", &out).ok());
  // Oversized symbol values are malformed (symbols are 16-bit).
  SeqQueryBatchRequest big;
  big.spec = request.spec;
  release::SequenceQuery q;
  q.symbols = {1};
  big.queries = {q};
  std::string encoded = EncodeSeqQueryBatch(big);
  // The last 4 bytes are the single symbol's u32; overwrite with 2^20.
  encoded[encoded.size() - 4] = 0;
  encoded[encoded.size() - 3] = 0;
  encoded[encoded.size() - 2] = 0x10;
  encoded[encoded.size() - 1] = 0;
  EXPECT_FALSE(DecodeSeqQueryBatch(encoded, &out).ok());
}

}  // namespace
}  // namespace privtree::server
