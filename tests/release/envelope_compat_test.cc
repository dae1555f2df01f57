// The compressed (v3) envelope payloads:
//
//  * the compressed tree-family envelopes are at most half the size of the
//    same envelope carrying the uncompressed node array (the perf_opt
//    acceptance bar), and AG's strictly smaller than its raw grid records;
//  * the opt-in `count_quantum` knob round-trips bitwise and shrinks the
//    envelope further;
//  * a *valid-checksum* envelope wrapping a corrupted compressed payload —
//    the adversarial case the body checksum cannot catch — fails cleanly
//    or loads something re-saveable, never crashes (swept under ASan in
//    CI's hardening job).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid_codec.h"
#include "release/registry.h"
#include "release/serialization.h"
#include "release/session.h"
#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/serialization.h"

namespace privtree::release {
namespace {

PointSet TestPoints(std::size_t n = 4000, std::uint64_t seed = 0x5EED) {
  Rng rng(seed);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();  // Skewed, so trees split.
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::unique_ptr<Method> FitSpatial(const std::string& name,
                                   const MethodOptions& options,
                                   const PointSet& points,
                                   std::uint64_t seed) {
  auto method = GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

std::string SaveToString(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return std::move(out).str();
}

Result<std::unique_ptr<Method>> LoadFromString(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadMethod(in);
}

/// The envelope pulled apart: header fields checked, body fields parsed,
/// per-backend payload left as raw bytes.
struct ParsedEnvelope {
  MethodMetadata metadata;
  std::string options_text;
  std::string payload;
};

constexpr std::size_t kV3HeaderSize = 36;  // See release/serialization.h.

ParsedEnvelope ParseV3(const std::string& bytes) {
  ParsedEnvelope parsed;
  EXPECT_GE(bytes.size(), kV3HeaderSize);
  EXPECT_EQ(bytes.substr(0, 8), kSynopsisMagic);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, kSynopsisFormatVersion);

  ByteReader body(std::string_view(bytes).substr(kV3HeaderSize));
  std::uint64_t dim = 0, synopsis_size = 0;
  std::int32_t height = 0;
  EXPECT_TRUE(body.Str(&parsed.metadata.method));
  EXPECT_TRUE(body.Str(&parsed.options_text));
  EXPECT_TRUE(body.U64(&dim));
  EXPECT_TRUE(body.F64(&parsed.metadata.epsilon_spent));
  EXPECT_TRUE(body.U64(&synopsis_size));
  EXPECT_TRUE(body.I32(&height));
  parsed.metadata.dim = static_cast<std::size_t>(dim);
  parsed.metadata.synopsis_size = static_cast<std::size_t>(synopsis_size);
  parsed.metadata.height = height;
  parsed.payload = bytes.substr(bytes.size() - body.remaining());
  return parsed;
}

/// Bytes the uncompressed node array of an n-node, d-dimensional tree
/// takes: u64 node count, then per node {i32 parent, f64 count, f64 lo/hi
/// × d}.
std::size_t RawTreePayloadBytes(std::size_t nodes, std::size_t dim) {
  return 8 + nodes * (4 + 8 + 16 * dim);
}

/// Bytes an AG payload takes as raw grid records: i64 m1, the domain box,
/// the m1² level-1 counts, then per level-1 cell a full sub-grid record
/// (box, u64 granularity per dim, f64 counts).
std::size_t RawAdaptiveGridPayloadBytes(const AdaptiveGrid& grid) {
  const std::size_t m1 =
      static_cast<std::size_t>(grid.level1_granularity());
  std::size_t bytes = 8 + 32 + 8 * m1 * m1;
  for (const GridHistogram& sub : grid.level2()) {
    bytes += 32 + 16 + 8 * sub.total_cells();
  }
  return bytes;
}

TEST(EnvelopeCompatTest, CompressedTreeEnvelopesAreAtLeastHalfTheSize) {
  // The perf_opt acceptance bar: tree-family envelopes at ≤ half the size
  // of the same envelope around the raw node array.
  const PointSet points = TestPoints();
  std::uint64_t seed = 47;
  for (const char* name : {"privtree", "simpletree", "kdtree"}) {
    SCOPED_TRACE(name);
    MethodOptions options;
    if (std::string(name) != "privtree") options.Set("height", "6");
    const auto fitted = FitSpatial(name, options, points, seed++);
    const std::string bytes = SaveToString(*fitted);
    const ParsedEnvelope env = ParseV3(bytes);
    const std::size_t raw_bytes =
        bytes.size() - env.payload.size() +
        RawTreePayloadBytes(env.metadata.synopsis_size, env.metadata.dim);
    EXPECT_LE(bytes.size() * 2, raw_bytes)
        << "compressed=" << bytes.size() << " raw=" << raw_bytes;
  }
  // AG's payload is dominated by incompressible noisy doubles; the codec
  // still strictly shrinks it (dropped boxes, packed granularities).
  const std::string ag_bytes =
      SaveToString(*FitSpatial("ag", {}, points, seed));
  const ParsedEnvelope ag_env = ParseV3(ag_bytes);
  ByteReader payload(ag_env.payload);
  auto grid = ReadAdaptiveGridBodyCompressed(payload);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_LT(ag_bytes.size(), ag_bytes.size() - ag_env.payload.size() +
                                 RawAdaptiveGridPayloadBytes(grid.value()));
}

TEST(EnvelopeCompatTest, QuantizedCountsRoundTripBitwiseAndShrinkFurther) {
  const PointSet points = TestPoints();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries = GenerateRangeQueries(
      Box::UnitCube(2), 40, kMediumQueries, query_rng);

  const auto raw = FitSpatial("privtree", {}, points, 61);
  const auto quantized = FitSpatial(
      "privtree", {{"count_quantum", "0.5"}}, points, 61);

  // The quantized synopsis round-trips bit for bit like any other...
  const std::string bytes = SaveToString(*quantized);
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> want = quantized->QueryBatch(queries);
  const std::vector<double> got = loaded.value()->QueryBatch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
  EXPECT_EQ(SaveToString(*loaded.value()), bytes);

  // ...and the integer count section beats the raw-doubles envelope.
  EXPECT_LT(bytes.size(), SaveToString(*raw).size());
}

class CompressedPayloadCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet points = TestPoints(1500);
    envelopes_.push_back(SaveToString(*FitSpatial("privtree", {}, points, 7)));
    envelopes_.push_back(SaveToString(*FitSpatial("ag", {}, points, 7)));

    Rng rng(0x5EC);
    SequenceDataset data(4);
    std::vector<Symbol> s;
    for (std::size_t i = 0; i < 150; ++i) {
      s.clear();
      for (std::size_t j = 0; j <= rng.NextBounded(10); ++j) {
        s.push_back(static_cast<Symbol>(rng.NextBounded(4)));
      }
      data.Add(s);
    }
    MethodOptions options;
    options.Set("l_top", "10");
    const SequenceDataset truncated = data.Truncate(10);
    ReleaseSession session(truncated, 1.0, 0x11);
    envelopes_.push_back(
        SaveToString(*session.ReleaseRemaining("pst_privtree", options)));
  }

  std::vector<std::string> envelopes_;
};

TEST_F(CompressedPayloadCorruptionTest, EveryTruncationFailsCleanly) {
  for (const std::string& bytes : envelopes_) {
    const std::size_t step = std::max<std::size_t>(1, bytes.size() / 211);
    for (std::size_t len = 0; len < bytes.size(); len += step) {
      auto loaded = LoadFromString(bytes.substr(0, len));
      EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    }
  }
}

TEST_F(CompressedPayloadCorruptionTest, EveryBitFlipFailsCleanly) {
  for (const std::string& original : envelopes_) {
    const std::size_t step = std::max<std::size_t>(1, original.size() / 149);
    for (std::size_t pos = 0; pos < original.size(); pos += step) {
      std::string flipped = original;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (pos % 8)));
      auto loaded = LoadFromString(flipped);
      EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    }
  }
}

TEST_F(CompressedPayloadCorruptionTest,
       OutOfOrderParentLinksFailCleanly) {
  // A valid-checksum privtree envelope around a tree body whose parents
  // each precede their node but are not breadth-first (node 3's parent 0
  // comes after node 2's parent 1).  The query index reads a node's
  // children as one id range, so the decoder must refuse the body with a
  // Status rather than hand it to the index's constructor.
  ParsedEnvelope hostile = ParseV3(envelopes_[0]);
  ASSERT_EQ(hostile.metadata.method, "privtree");
  ASSERT_EQ(hostile.metadata.dim, 2u);
  const std::vector<NodeId> parents = {kInvalidNode, 0, 1, 0};
  const std::vector<double> bounds = {
      0.0, 0.0, 1.0,  1.0,   // Root.
      0.0, 0.0, 0.5,  1.0,   // Its left half.
      0.0, 0.0, 0.25, 1.0,   // The left half's left half.
      0.5, 0.0, 1.0,  1.0};  // The root's right half.
  const std::vector<double> counts = {10.0, 6.0, 2.0, 4.0};
  hostile.payload.clear();
  ByteWriter w(&hostile.payload);
  WriteTreeBodyCompressed(w, 2, parents, bounds, counts);
  std::ostringstream out;
  ASSERT_TRUE(WriteSynopsis(out, hostile.metadata, hostile.options_text,
                            hostile.payload)
                  .ok());
  auto loaded = LoadFromString(std::move(out).str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("bad parent at node 3"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CompressedPayloadCorruptionTest,
       ValidChecksumOverCorruptPayloadNeverCrashes) {
  // The body checksum catches a flipped *file*; here the adversary writes
  // a whole new envelope (valid header, valid checksum) around a damaged
  // compressed payload, so the decoders themselves must reject or survive
  // every byte: lying element counts, impossible bit widths, truncated
  // code streams, hostile granularities.  ASan in CI turns any overread
  // into a hard failure.
  for (const std::string& bytes : envelopes_) {
    const ParsedEnvelope env = ParseV3(bytes);
    const std::size_t step = std::max<std::size_t>(1, env.payload.size() / 97);
    for (std::size_t pos = 0; pos < env.payload.size(); pos += step) {
      for (const unsigned char mask : {0x01, 0x80, 0xff}) {
        ParsedEnvelope hostile = env;
        hostile.payload[pos] =
            static_cast<char>(hostile.payload[pos] ^ mask);
        std::ostringstream out;
        ASSERT_TRUE(WriteSynopsis(out, hostile.metadata, hostile.options_text,
                                  hostile.payload)
                        .ok());
        auto loaded = LoadFromString(std::move(out).str());
        // Most flips must fail; a benign flip (e.g. inside a stored double)
        // may load — then the synopsis must still be fully functional.
        if (loaded.ok()) {
          std::ostringstream resaved;
          EXPECT_TRUE(loaded.value()->Save(resaved).ok());
        }
      }
    }
    // Truncating the payload inside a valid envelope must always fail: the
    // decoders demand full consumption.
    for (std::size_t len = 0; len < env.payload.size();
         len += std::max<std::size_t>(1, env.payload.size() / 53)) {
      ParsedEnvelope hostile = env;
      hostile.payload.resize(len);
      std::ostringstream out;
      ASSERT_TRUE(WriteSynopsis(out, hostile.metadata, hostile.options_text,
                                hostile.payload)
                      .ok());
      EXPECT_FALSE(LoadFromString(std::move(out).str()).ok())
          << env.metadata.method << " payload truncated to " << len;
    }
  }
}

}  // namespace
}  // namespace privtree::release
