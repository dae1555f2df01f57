// The wire protocol: every message round-trips through encode/decode, and
// every malformation — truncation, trailing bytes, wrong tags, inverted
// boxes, unparsable options — decodes to a clean Status error.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "dp/status.h"
#include "server/protocol.h"
#include "server/request.h"
#include "spatial/box.h"

namespace privtree::server {
namespace {

FitSpec SampleSpec() {
  FitSpec spec;
  spec.method = "privtree";
  spec.options = release::MethodOptions::Parse("max_depth=12");
  spec.epsilon = 0.5;
  spec.seed = 0xC11;
  return spec;
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloReply reply;
  reply.dim = 2;
  reply.point_count = 1000;
  reply.dataset_fingerprint = 0xDEADBEEF;
  reply.methods = {"ag", "privtree", "ug"};
  reply.budget_total = 4.0;
  reply.budget_spent = 0.5;
  reply.datasets = {{"taxi", release::DatasetKind::kSpatial, 2, 1000,
                     0xDEADBEEF},
                    {"msnbc", release::DatasetKind::kSequence, 17, 500,
                     0xFEEDFACE}};
  const std::string payload = EncodeHelloReply(reply);
  ASSERT_EQ(PeekType(payload).value(), MessageType::kHelloReply);

  HelloReply decoded;
  ASSERT_TRUE(DecodeHelloReply(payload, &decoded).ok());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.dim, 2u);
  EXPECT_EQ(decoded.point_count, 1000u);
  EXPECT_EQ(decoded.dataset_fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(decoded.methods, reply.methods);
  EXPECT_EQ(decoded.budget_total, 4.0);
  EXPECT_EQ(decoded.budget_spent, 0.5);
  ASSERT_EQ(decoded.datasets.size(), 2u);
  EXPECT_EQ(decoded.datasets[0].name, "taxi");
  EXPECT_EQ(decoded.datasets[0].fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(decoded.datasets[1].name, "msnbc");
  EXPECT_EQ(decoded.datasets[1].kind, release::DatasetKind::kSequence);
  EXPECT_EQ(decoded.datasets[1].dim, 17u);
  EXPECT_EQ(decoded.datasets[1].point_count, 500u);

  HelloRequest request;
  ASSERT_TRUE(DecodeHello(EncodeHello(HelloRequest{}), &request).ok());
  EXPECT_EQ(request.version, kProtocolVersion);
}

TEST(ProtocolTest, FitRoundTripPreservesSpec) {
  const std::string payload = EncodeFit({SampleSpec(), 1500});
  FitRequest decoded;
  ASSERT_TRUE(DecodeFit(payload, &decoded).ok());
  EXPECT_EQ(decoded.spec.method, "privtree");
  EXPECT_EQ(decoded.spec.options.ToString(), "max_depth=12");
  EXPECT_EQ(decoded.spec.epsilon, 0.5);
  EXPECT_EQ(decoded.spec.seed, 0xC11u);
  EXPECT_EQ(decoded.deadline_millis, 1500);
}

TEST(ProtocolTest, FitReplyRoundTripsMetadata) {
  FitReply reply;
  reply.metadata.method = "ug";
  reply.metadata.dim = 2;
  reply.metadata.epsilon_spent = 1.25;
  reply.metadata.synopsis_size = 4096;
  reply.metadata.height = -1;
  reply.cache_hit = true;
  FitReply decoded;
  ASSERT_TRUE(DecodeFitReply(EncodeFitReply(reply), &decoded).ok());
  EXPECT_EQ(decoded.metadata.method, "ug");
  EXPECT_EQ(decoded.metadata.dim, 2u);
  EXPECT_EQ(decoded.metadata.epsilon_spent, 1.25);
  EXPECT_EQ(decoded.metadata.synopsis_size, 4096u);
  EXPECT_EQ(decoded.metadata.height, -1);
  EXPECT_TRUE(decoded.cache_hit);
}

TEST(ProtocolTest, QueryBatchRoundTripsBoxesBitForBit) {
  QueryBatchRequest request;
  request.spec = SampleSpec();
  request.deadline_millis = 0;
  request.queries = {Box({0.125, 0.25}, {0.875, 0.5}),
                     Box({0.0, 0.0}, {1.0, 1.0})};
  QueryBatchRequest decoded;
  ASSERT_TRUE(DecodeQueryBatch(EncodeQueryBatch(request), &decoded).ok());
  ASSERT_EQ(decoded.queries.size(), 2u);
  EXPECT_EQ(decoded.queries[0], request.queries[0]);
  EXPECT_EQ(decoded.queries[1], request.queries[1]);

  QueryBatchReply reply;
  reply.answers = {1.5, -2.25, 1e-300};
  reply.cache_hit = false;
  QueryBatchReply decoded_reply;
  ASSERT_TRUE(
      DecodeQueryBatchReply(EncodeQueryBatchReply(reply), &decoded_reply)
          .ok());
  EXPECT_EQ(decoded_reply.answers, reply.answers);
}

TEST(ProtocolTest, EmptyQueryBatchIsValid) {
  QueryBatchRequest request;
  request.spec = SampleSpec();
  QueryBatchRequest decoded;
  ASSERT_TRUE(DecodeQueryBatch(EncodeQueryBatch(request), &decoded).ok());
  EXPECT_TRUE(decoded.queries.empty());
}

TEST(ProtocolTest, WarmRoundTrip) {
  WarmRequest request;
  request.specs = {SampleSpec(), SampleSpec()};
  request.specs[1].method = "ug";
  request.specs[1].options = {};
  WarmRequest decoded;
  ASSERT_TRUE(DecodeWarm(EncodeWarm(request), &decoded).ok());
  ASSERT_EQ(decoded.specs.size(), 2u);
  EXPECT_EQ(decoded.specs[0].method, "privtree");
  EXPECT_EQ(decoded.specs[1].method, "ug");

  WarmReply reply;
  ASSERT_TRUE(DecodeWarmReply(EncodeWarmReply({2}), &reply).ok());
  EXPECT_EQ(reply.accepted, 2u);
}

TEST(ProtocolTest, TracedWrapperRoundTripsIdAndInnerPayload) {
  const std::string inner = EncodeFit({SampleSpec(), 1500});
  const std::string payload = EncodeTraced(0xABCDEF0123456789ull, inner);
  ASSERT_EQ(PeekType(payload).value(), MessageType::kTraced);

  std::uint64_t trace_id = 0;
  std::string_view unwrapped;
  ASSERT_TRUE(DecodeTraced(payload, &trace_id, &unwrapped).ok());
  EXPECT_EQ(trace_id, 0xABCDEF0123456789ull);
  // The inner payload comes back byte-identical — the wrapper is pure
  // framing, so the dispatcher's view of the request cannot change.
  EXPECT_EQ(unwrapped, inner);
  FitRequest decoded;
  ASSERT_TRUE(DecodeFit(unwrapped, &decoded).ok());
  EXPECT_EQ(decoded.spec.seed, 0xC11u);
}

TEST(ProtocolTest, TracedRejectsEmptyInnerAndNesting) {
  const std::string inner = EncodeGetStats();
  std::uint64_t trace_id = 0;
  std::string_view unwrapped;
  // No inner payload at all.
  EXPECT_FALSE(
      DecodeTraced(EncodeTraced(7, ""), &trace_id, &unwrapped).ok());
  // A Traced inside a Traced: one level only.
  const std::string nested =
      EncodeTraced(7, EncodeTraced(8, inner));
  EXPECT_FALSE(DecodeTraced(nested, &trace_id, &unwrapped).ok());
  // Truncated id.
  EXPECT_FALSE(
      DecodeTraced(EncodeTraced(7, inner).substr(0, 6), &trace_id,
                   &unwrapped)
          .ok());
}

TEST(ProtocolTest, GetStatsRoundTrip) {
  const std::string request = EncodeGetStats();
  ASSERT_EQ(PeekType(request).value(), MessageType::kGetStats);

  const std::string json =
      "{\"counters\":{\"event.accepted\":3},\"gauges\":{},"
      "\"histograms\":{}}";
  const std::string payload = EncodeGetStatsReply(json);
  ASSERT_EQ(PeekType(payload).value(), MessageType::kGetStatsReply);
  std::string decoded;
  ASSERT_TRUE(DecodeGetStatsReply(payload, &decoded).ok());
  EXPECT_EQ(decoded, json);
  // Malformations fail cleanly: truncation and trailing bytes.
  EXPECT_FALSE(
      DecodeGetStatsReply(payload.substr(0, payload.size() - 1), &decoded)
          .ok());
  EXPECT_FALSE(DecodeGetStatsReply(payload + "x", &decoded).ok());
}

TEST(ProtocolTest, ErrorReplyCarriesEveryStatusCode) {
  for (const Status& status :
       {Status::InvalidArgument("bad spec"), Status::NotFound("eof"),
        Status::IOError("io"), Status::OutOfRange("range"),
        Status::Internal("bug"), Status::Unavailable("shed"),
        Status::DeadlineExceeded("late")}) {
    Status decoded;
    ASSERT_TRUE(DecodeErrorReply(EncodeErrorReply(status), &decoded).ok());
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
  }
}

TEST(ProtocolTest, TruncationAlwaysFailsCleanly) {
  const std::string payload = EncodeQueryBatch(
      {SampleSpec(), 10, 0, {Box({0.1, 0.2}, {0.3, 0.4})}});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    QueryBatchRequest decoded;
    EXPECT_FALSE(
        DecodeQueryBatch(payload.substr(0, cut), &decoded).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ProtocolTest, TrailingBytesAreRejected) {
  std::string payload = EncodeFit({SampleSpec(), 0});
  payload += '\0';
  FitRequest decoded;
  EXPECT_FALSE(DecodeFit(payload, &decoded).ok());
}

TEST(ProtocolTest, WrongTagIsRejected) {
  const std::string payload = EncodeFit({SampleSpec(), 0});
  QueryBatchRequest decoded;
  EXPECT_FALSE(DecodeQueryBatch(payload, &decoded).ok());
  EXPECT_FALSE(PeekType("").ok());
  std::string unknown;
  unknown.assign("\xEE\xEE\xEE\xEE", 4);
  EXPECT_FALSE(PeekType(unknown).ok());
}

TEST(ProtocolTest, InvertedBoxIsRejected) {
  QueryBatchRequest request;
  request.spec = SampleSpec();
  request.queries = {Box({0.1, 0.1}, {0.9, 0.9})};
  std::string payload = EncodeQueryBatch(request);
  // Swap the last box's lo_2/hi_2 doubles in place: lo > hi on the wire.
  std::string lo = payload.substr(payload.size() - 16, 8);
  std::string hi = payload.substr(payload.size() - 8, 8);
  payload.replace(payload.size() - 16, 8, hi);
  payload.replace(payload.size() - 8, 8, lo);
  QueryBatchRequest decoded;
  const Status status = DecodeQueryBatch(payload, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, HostileDimensionsAndCountsAreRejectedNotFatal) {
  // A hand-crafted QueryBatch whose u64 dim makes 16·dim wrap (or whose
  // count implies a huge allocation) must decode to an error — one frame
  // must never be able to kill the server via SIGFPE or bad_alloc.
  for (const std::uint64_t dim :
       {std::uint64_t{1} << 60, (std::uint64_t{1} << 60) + 1,
        std::uint64_t{0}, std::uint64_t{1} << 40}) {
    std::string payload;
    ByteWriter w(&payload);
    w.U32(static_cast<std::uint32_t>(MessageType::kQueryBatch));
    w.Str("ug");
    w.Str("");
    w.F64(1.0);
    w.U64(0xC11);
    w.I64(0);
    w.U64(0);  // Dataset fingerprint (v3): 0 = server default.
    w.U64(dim);
    w.U64(1);  // One claimed box.
    w.F64(0.0);
    w.F64(1.0);
    QueryBatchRequest decoded;
    EXPECT_FALSE(DecodeQueryBatch(payload, &decoded).ok())
        << "dim=" << dim << " decoded";
  }
}

TEST(ProtocolTest, HostileReplyCountsAreRejectedNotFatal) {
  // A QueryBatchReply claiming 2^61 answers must fail cleanly in the
  // client (F64Vec bounds-check, no allocation), not throw length_error.
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(MessageType::kQueryBatchReply));
  w.U32(0);
  w.U64(std::uint64_t{1} << 61);
  w.F64(1.0);
  QueryBatchReply decoded;
  EXPECT_FALSE(DecodeQueryBatchReply(payload, &decoded).ok());
}

TEST(ProtocolTest, HostileWarmCountsAreRejectedNotFatal) {
  // A Warm frame claiming millions of specs backed by filler bytes must
  // not pre-allocate count FitSpecs (a multi-GB amplification); specs are
  // at least 24 wire bytes each, and the count is bounded by that.
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(MessageType::kWarm));
  w.U64(0);  // Dataset fingerprint (v3).
  w.U64(67'000'000);
  payload.append(1024, '\0');  // Filler far short of the claimed specs.
  WarmRequest decoded;
  EXPECT_FALSE(DecodeWarm(payload, &decoded).ok());
  EXPECT_TRUE(decoded.specs.empty());
}

TEST(ProtocolTest, ErrorReplyWithOkCodeBecomesInternal) {
  // An ErrorReply can never legitimately carry OK; mapping it to OK would
  // feed an OK Status into Result (which aborts on OK-as-error).
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(MessageType::kErrorReply));
  w.U32(0);  // StatusCode::kOk on the wire.
  w.Str("liar");
  w.U64(0);  // Retry-after hint (v4).
  Status decoded;
  ASSERT_TRUE(DecodeErrorReply(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
}

TEST(ProtocolTest, ErrorReplyRoundTripsRetryAfterHint) {
  Status shed = Status::Unavailable("queue full").WithRetryAfter(250);
  Status decoded;
  ASSERT_TRUE(DecodeErrorReply(EncodeErrorReply(shed), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.retry_after_millis(), 250u);
  // A v3-shaped frame (no trailing u64) is now malformed.
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(MessageType::kErrorReply));
  w.U32(static_cast<std::uint32_t>(StatusCode::kUnavailable));
  w.Str("shed");
  EXPECT_FALSE(DecodeErrorReply(payload, &decoded).ok());
}

TEST(ProtocolTest, UnparsableOptionsAreRejected) {
  FitRequest request{SampleSpec(), 0};
  std::string payload = EncodeFit(request);
  // Rebuild with a corrupt options string via a hand-rolled spec.
  FitSpec bad = SampleSpec();
  bad.options = {};
  std::string raw = EncodeFit({bad, 0});
  // "max_depth=12" is absent; craft "no-equals" text by hand instead.
  // Simpler: the decoder runs TryParse, so feed it through a spec whose
  // canonical text is malformed — impossible via MethodOptions, so splice
  // raw bytes: replace the empty options string with "oops" (no '=').
  const std::string needle(
      "\x00\x00\x00\x00", 4);  // u32 length 0 of the options string.
  const std::size_t method_end =
      4 /*tag*/ + 4 + bad.method.size();  // tag + str header + bytes.
  ASSERT_EQ(raw.compare(method_end, 4, needle), 0);
  const std::string options_text = "oops";
  std::string spliced = raw.substr(0, method_end);
  spliced += std::string("\x04\x00\x00\x00", 4);
  spliced += options_text;
  spliced += raw.substr(method_end + 4);
  FitRequest decoded;
  EXPECT_FALSE(DecodeFit(spliced, &decoded).ok());
}

TEST(ProtocolTest, DatasetFingerprintRoundTripsOnEveryRequest) {
  FitRequest fit{SampleSpec(), 100, 0xABCD};
  FitRequest fit_decoded;
  ASSERT_TRUE(DecodeFit(EncodeFit(fit), &fit_decoded).ok());
  EXPECT_EQ(fit_decoded.dataset_fingerprint, 0xABCDu);

  QueryBatchRequest qb{SampleSpec(), 0, 0x1234, {Box({0.0}, {1.0})}};
  QueryBatchRequest qb_decoded;
  ASSERT_TRUE(DecodeQueryBatch(EncodeQueryBatch(qb), &qb_decoded).ok());
  EXPECT_EQ(qb_decoded.dataset_fingerprint, 0x1234u);

  WarmRequest warm{0x5678, {SampleSpec()}};
  WarmRequest warm_decoded;
  ASSERT_TRUE(DecodeWarm(EncodeWarm(warm), &warm_decoded).ok());
  EXPECT_EQ(warm_decoded.dataset_fingerprint, 0x5678u);
}

TEST(ProtocolTest, RegisterSpatialDatasetRoundTrip) {
  RegisterDatasetRequest request;
  request.name = "uploaded";
  request.kind = release::DatasetKind::kSpatial;
  request.dim = 2;
  request.domain_lo = {0.0, -1.0};
  request.domain_hi = {1.0, 1.0};
  request.coords = {0.25, 0.5, 0.75, -0.5};
  const std::string payload = EncodeRegisterDataset(request);
  ASSERT_EQ(PeekType(payload).value(), MessageType::kRegisterDataset);

  RegisterDatasetRequest decoded;
  ASSERT_TRUE(DecodeRegisterDataset(payload, &decoded).ok());
  EXPECT_EQ(decoded.name, "uploaded");
  EXPECT_EQ(decoded.kind, release::DatasetKind::kSpatial);
  EXPECT_EQ(decoded.dim, 2u);
  EXPECT_EQ(decoded.domain_lo, request.domain_lo);
  EXPECT_EQ(decoded.domain_hi, request.domain_hi);
  EXPECT_EQ(decoded.coords, request.coords);

  RegisterDatasetReply reply{0xFACE, 2};
  RegisterDatasetReply reply_decoded;
  ASSERT_TRUE(DecodeRegisterDatasetReply(EncodeRegisterDatasetReply(reply),
                                         &reply_decoded)
                  .ok());
  EXPECT_EQ(reply_decoded.fingerprint, 0xFACEu);
  EXPECT_EQ(reply_decoded.point_count, 2u);
}

TEST(ProtocolTest, RegisterSequenceDatasetRoundTrip) {
  RegisterDatasetRequest request;
  request.name = "clicks";
  request.kind = release::DatasetKind::kSequence;
  request.dim = 17;  // Alphabet size.
  request.sequences = {{1, 2, 3}, {}, {16, 0}};
  RegisterDatasetRequest decoded;
  ASSERT_TRUE(
      DecodeRegisterDataset(EncodeRegisterDataset(request), &decoded).ok());
  EXPECT_EQ(decoded.kind, release::DatasetKind::kSequence);
  EXPECT_EQ(decoded.dim, 17u);
  EXPECT_EQ(decoded.sequences, request.sequences);
}

TEST(ProtocolTest, HostileRegisterDatasetIsRejectedNotFatal) {
  // Inverted domain.
  RegisterDatasetRequest bad;
  bad.name = "d";
  bad.dim = 1;
  bad.domain_lo = {1.0};
  bad.domain_hi = {0.0};
  RegisterDatasetRequest decoded;
  EXPECT_EQ(DecodeRegisterDataset(EncodeRegisterDataset(bad), &decoded)
                .code(),
            StatusCode::kInvalidArgument);

  // NaN domain bound.
  bad.domain_lo = {std::numeric_limits<double>::quiet_NaN()};
  bad.domain_hi = {1.0};
  EXPECT_EQ(DecodeRegisterDataset(EncodeRegisterDataset(bad), &decoded)
                .code(),
            StatusCode::kInvalidArgument);

  // Non-finite coordinate.
  bad.domain_lo = {0.0};
  bad.coords = {std::numeric_limits<double>::infinity()};
  EXPECT_EQ(DecodeRegisterDataset(EncodeRegisterDataset(bad), &decoded)
                .code(),
            StatusCode::kInvalidArgument);

  // A symbol outside the declared alphabet.
  RegisterDatasetRequest seq;
  seq.name = "s";
  seq.kind = release::DatasetKind::kSequence;
  seq.dim = 4;
  seq.sequences = {{0, 1, 4}};  // 4 >= alphabet size 4.
  EXPECT_EQ(DecodeRegisterDataset(EncodeRegisterDataset(seq), &decoded)
                .code(),
            StatusCode::kInvalidArgument);

  // A claimed point count far beyond the payload (allocation bomb).
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(MessageType::kRegisterDataset));
  w.Str("bomb");
  w.U32(0);  // kSpatial.
  w.U64(2);  // dim.
  w.F64(0.0);
  w.F64(0.0);
  w.F64(1.0);
  w.F64(1.0);
  w.U64(std::uint64_t{1} << 58);  // Claimed points, no backing bytes.
  EXPECT_FALSE(DecodeRegisterDataset(payload, &decoded).ok());
}

}  // namespace
}  // namespace privtree::server
