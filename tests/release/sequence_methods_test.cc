// The sequence-kind registry backends (pst_privtree, ngram): registration
// metadata, bit-for-bit fit parity with the direct builders, SequenceQuery
// batch semantics, and envelope round-trips with a corruption sweep and
// crafted-payload rejection.
#include "release/sequence_methods.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/serialization.h"
#include "release/session.h"
#include "seq/ngram.h"
#include "seq/pst_privtree.h"
#include "seq/sequence.h"
#include "seq/topk.h"

namespace privtree::release {
namespace {

constexpr std::size_t kAlphabet = 4;
constexpr std::size_t kLTop = 12;

SequenceDataset TestSequences(std::size_t n = 400) {
  Rng rng(0x5EC7E57);
  SequenceDataset data(kAlphabet);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(14);
    Symbol last = static_cast<Symbol>(rng.NextBounded(kAlphabet));
    for (std::size_t j = 0; j < len; ++j) {
      // Mildly Markovian so the PST actually splits.
      last = static_cast<Symbol>(
          rng.NextDouble() < 0.6 ? last : rng.NextBounded(kAlphabet));
      s.push_back(last);
    }
    data.Add(s);
  }
  return data.Truncate(kLTop);
}

MethodOptions SeqOptions() {
  MethodOptions options;
  options.Set("l_top", std::to_string(kLTop));
  return options;
}

std::vector<SequenceQuery> MixedQueries() {
  std::vector<SequenceQuery> queries;
  queries.push_back(SequenceQuery::Frequency({0}));
  queries.push_back(SequenceQuery::Frequency({1, 2}));
  queries.push_back(SequenceQuery::Frequency({3, 3, 0}));
  queries.push_back(SequenceQuery::PrefixCount({2}));
  queries.push_back(SequenceQuery::PrefixCount({0, 1}));
  queries.push_back(SequenceQuery::TopK(5, 3));
  queries.push_back(SequenceQuery::TopK(1, 2));
  return queries;
}

TEST(SequenceMethodsTest, RegistrationMetadata) {
  auto& registry = GlobalMethodRegistry();
  for (const char* name : {"pst_privtree", "ngram"}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(registry.Contains(name));
    const auto& entry = registry.Get(name);
    EXPECT_EQ(entry.kind, DatasetKind::kSequence);
    EXPECT_EQ(entry.required_dim, 0u);
    EXPECT_FALSE(entry.description.empty());
    EXPECT_FALSE(entry.allowed_keys.empty());
    EXPECT_TRUE(entry.loader != nullptr);
  }
}

// The OptionKey ranges must reject the hostile values a socket client
// could send *before* any fitter contract check runs: l⊤ >= 1, n_max >= 1,
// threshold_factor >= 0, tree fraction in (0, 1).
TEST(SequenceMethodsTest, OptionRangesScreenHostileValues) {
  auto& registry = GlobalMethodRegistry();
  const auto check = [&](const char* method, const char* key,
                         const char* value) -> Status {
    const OptionKey* advertised = registry.Get(method).FindKey(key);
    if (advertised == nullptr) {
      ADD_FAILURE() << method << " does not advertise option " << key;
      return Status::InvalidArgument("no such key");
    }
    return CheckOptionValue(*advertised, value);
  };
  EXPECT_FALSE(check("pst_privtree", "l_top", "0").ok());
  EXPECT_FALSE(check("pst_privtree", "l_top", "-3").ok());
  EXPECT_TRUE(check("pst_privtree", "l_top", "50").ok());
  EXPECT_FALSE(check("pst_privtree", "tree_budget_fraction", "0").ok());
  EXPECT_FALSE(check("pst_privtree", "tree_budget_fraction", "1").ok());
  EXPECT_TRUE(check("pst_privtree", "tree_budget_fraction", "0.25").ok());
  EXPECT_FALSE(check("pst_privtree", "max_depth", "0").ok());
  EXPECT_FALSE(check("ngram", "n_max", "0").ok());
  EXPECT_FALSE(check("ngram", "n_max", "99").ok());
  EXPECT_TRUE(check("ngram", "n_max", "5").ok());
  EXPECT_FALSE(check("ngram", "l_top", "0").ok());
  EXPECT_FALSE(check("ngram", "threshold_factor", "-1").ok());
  EXPECT_TRUE(check("ngram", "threshold_factor", "3").ok());
}

TEST(SequenceQueryTest, ValidationScreensHostileSpecs) {
  EXPECT_TRUE(
      ValidateSequenceQuery(SequenceQuery::Frequency({0, 1}), 4).ok());
  EXPECT_FALSE(ValidateSequenceQuery(SequenceQuery::Frequency({}), 4).ok());
  EXPECT_FALSE(
      ValidateSequenceQuery(SequenceQuery::Frequency({4}), 4).ok());
  EXPECT_FALSE(
      ValidateSequenceQuery(SequenceQuery::PrefixCount({9}), 4).ok());
  EXPECT_TRUE(ValidateSequenceQuery(SequenceQuery::TopK(3, 2), 4).ok());
  EXPECT_FALSE(ValidateSequenceQuery(SequenceQuery::TopK(0, 2), 4).ok());
  EXPECT_FALSE(ValidateSequenceQuery(SequenceQuery::TopK(3, 0), 4).ok());
  EXPECT_FALSE(ValidateSequenceQuery(SequenceQuery::TopK(3, 8), 4).ok());
  // Top-k enumeration packs candidates into 8-bit symbols.
  EXPECT_FALSE(ValidateSequenceQuery(SequenceQuery::TopK(3, 2), 300).ok());
}

// The registry adapter must release the very synopsis the direct builder
// releases: same dataset, same ε, same Rng stream => identical estimates.
TEST(SequenceMethodsTest, PstFitMatchesDirectBuilderBitForBit) {
  const SequenceDataset data = TestSequences();
  const std::uint64_t seed = 0xC0FFEE;

  ReleaseSession session(data, /*total_epsilon=*/1.0, seed);
  const auto method = session.ReleaseRemaining("pst_privtree", SeqOptions());

  Rng direct_rng(seed);
  Rng release_rng = direct_rng.Fork();  // The session derivation.
  PrivatePstOptions options;
  options.l_top = kLTop;
  const auto direct = BuildPrivatePst(data, 1.0, options, release_rng);

  const auto metadata = method->Metadata();
  EXPECT_EQ(metadata.method, "pst_privtree");
  EXPECT_EQ(metadata.dim, kAlphabet);
  EXPECT_EQ(metadata.synopsis_size, direct.model.size());
  EXPECT_DOUBLE_EQ(metadata.epsilon_spent, 1.0);

  for (const SequenceQuery& q : MixedQueries()) {
    if (q.kind != SequenceQueryKind::kFrequency) continue;
    const std::vector<double> got =
        method->QueryBatch(std::span<const SequenceQuery>(&q, 1));
    EXPECT_EQ(got[0], direct.model.EstimateStringFrequency(q.symbols));
  }
}

TEST(SequenceMethodsTest, NgramFitMatchesDirectBuilderBitForBit) {
  const SequenceDataset data = TestSequences();
  const std::uint64_t seed = 0xBEEF;

  ReleaseSession session(data, 1.0, seed);
  const auto method = session.ReleaseRemaining("ngram", SeqOptions());

  Rng direct_rng(seed);
  Rng release_rng = direct_rng.Fork();
  NgramOptions options;
  options.l_top = kLTop;
  const NgramModel direct(data, 1.0, options, release_rng);

  EXPECT_EQ(method->Metadata().synopsis_size, direct.ReleasedGramCount());
  const SequenceQuery q = SequenceQuery::Frequency({1, 2, 3});
  EXPECT_EQ(method->QueryBatch(std::span<const SequenceQuery>(&q, 1))[0],
            direct.EstimateStringFrequency(q.symbols));
}

// Every query kind must agree with the model-level definition.
TEST(SequenceMethodsTest, QueryBatchAnswersAllKinds) {
  const SequenceDataset data = TestSequences();
  ReleaseSession session(data, 1.0, 0xAB);
  const auto method = session.ReleaseRemaining("pst_privtree", SeqOptions());

  Rng direct_rng(0xAB);
  Rng release_rng = direct_rng.Fork();
  PrivatePstOptions options;
  options.l_top = kLTop;
  const auto direct = BuildPrivatePst(data, 1.0, options, release_rng);

  const std::vector<SequenceQuery> queries = MixedQueries();
  const std::vector<double> answers =
      method->QueryBatch(std::span(queries));
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const SequenceQuery& q = queries[i];
    switch (q.kind) {
      case SequenceQueryKind::kFrequency:
        EXPECT_EQ(answers[i],
                  direct.model.EstimateStringFrequency(q.symbols));
        break;
      case SequenceQueryKind::kPrefixCount:
        EXPECT_EQ(answers[i], direct.model.EstimatePrefixCount(q.symbols));
        break;
      case SequenceQueryKind::kTopK: {
        const TopKStrings top = TopKFromModel(direct.model, q.k, q.max_len);
        EXPECT_EQ(answers[i],
                  q.k <= top.counts.size() ? top.counts[q.k - 1] : 0.0);
        break;
      }
    }
  }
}

TEST(SequenceMethodsDeathTest, WrongKindIsAProgrammingError) {
  const SequenceDataset data = TestSequences(50);
  ReleaseSession session(data, 1.0, 1);
  EXPECT_DEATH(session.Release("privtree", 0.5), "Kind");

  // And a sequence method never answers boxes.
  ReleaseSession seq_session(data, 1.0, 2);
  const auto method = seq_session.ReleaseRemaining("pst_privtree",
                                                   SeqOptions());
  EXPECT_DEATH(method->Query(Box::UnitCube(1)), "PRIVTREE_CHECK");
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

// Envelope round-trip: accounting restored identically, every SequenceQuery
// kind answered bit-for-bit.
TEST(SequenceMethodsTest, EnvelopeRoundTripsBitForBit) {
  const SequenceDataset data = TestSequences();
  const std::vector<SequenceQuery> queries = MixedQueries();
  std::uint64_t seed = 31;
  for (const char* name : {"pst_privtree", "ngram"}) {
    SCOPED_TRACE(name);
    ReleaseSession session(data, 1.0, seed++);
    const auto fitted = session.ReleaseRemaining(name, SeqOptions());
    const std::string bytes = SaveToString(*fitted);

    auto loaded = LoadFromString(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const MethodMetadata want = fitted->Metadata();
    const MethodMetadata got = loaded.value()->Metadata();
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.dim, want.dim);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.synopsis_size, want.synopsis_size);
    EXPECT_EQ(got.height, want.height);

    const std::vector<double> want_answers =
        fitted->QueryBatch(std::span(queries));
    const std::vector<double> got_answers =
        loaded.value()->QueryBatch(std::span(queries));
    ASSERT_EQ(got_answers.size(), want_answers.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got_answers[i], want_answers[i]) << "query " << i;
    }
    // Re-saving reproduces the bytes: the structure and every released
    // histogram survive the load.
    EXPECT_EQ(SaveToString(*loaded.value()), bytes);
  }
}

// Corruption never crashes and never yields a loadable synopsis: every
// truncation prefix and every flipped bit fails with a clean Status (or,
// for a flipped payload bit that survives the checksum, never — the
// checksum covers the whole body).
TEST(SequenceMethodsTest, CorruptionSweepYieldsCleanErrors) {
  const SequenceDataset data = TestSequences(120);
  ReleaseSession session(data, 1.0, 99);
  const auto fitted = session.ReleaseRemaining("pst_privtree", SeqOptions());
  const std::string bytes = SaveToString(*fitted);

  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 97)) {
    const auto loaded = LoadFromString(bytes.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut;
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8;
       bit += std::max<std::size_t>(1, bytes.size() / 13)) {
    std::string corrupt = bytes;
    corrupt[bit / 8] = static_cast<char>(corrupt[bit / 8] ^ (1 << (bit % 8)));
    const auto loaded = LoadFromString(corrupt);
    EXPECT_FALSE(loaded.ok()) << "bit flip at " << bit;
  }
}

/// A pst_privtree envelope around a hand-built payload: `declared_nodes`,
/// the packed `parents`, then one all-ones histogram per parent entry.
std::string CraftPstEnvelope(std::size_t alphabet,
                             const std::vector<NodeId>& parents,
                             std::uint64_t declared_nodes) {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(declared_nodes);
  w.Str(PackDeltaI32(parents));
  for (std::size_t i = 0; i < parents.size(); ++i) {
    w.F64Span(std::vector<double>(alphabet + 1, 1.0));
  }
  MethodMetadata metadata;
  metadata.method = "pst_privtree";
  metadata.dim = alphabet;
  metadata.synopsis_size = parents.size();
  std::ostringstream out;
  EXPECT_TRUE(WriteSynopsis(out, metadata, "", payload).ok());
  return std::move(out).str();
}

// A structurally inconsistent payload under a valid checksum must still be
// rejected with a clean InvalidArgument — never an abort (a parent split
// twice) or a huge allocation (a lying node count).
TEST(SequenceMethodsTest, CraftedPayloadStructureIsRejected) {
  // ngram restore: parents [-1, 0 x (alphabet+1)] is consistent; breaking
  // the group parent mid-way is not.
  const std::size_t alphabet = 2;
  const std::vector<NodeId> fractured = {-1, 0, 0, 1};
  const std::vector<double> counts(fractured.size(), 1.0);
  EXPECT_FALSE(NgramModel::Restore(alphabet, fractured, counts).ok());
  const std::vector<NodeId> consistent = {-1, 0, 0, 0};
  EXPECT_TRUE(NgramModel::Restore(alphabet, consistent, counts).ok());

  // pst_privtree envelopes, each with the reason it must be refused.
  struct Case {
    std::string bytes;
    const char* reason;
  };
  const std::vector<Case> cases = {
      // alphabet 1 => β = 2: node 0 named as group-start parent twice.
      {CraftPstEnvelope(1, {-1, 0, 0, 0, 0}, 5), "split twice"},
      // alphabet 2 => β = 3: 3 nodes cannot be root + whole groups.
      {CraftPstEnvelope(2, {-1, 0, 0}, 3), "fanout"},
      // β = 2: the group {3, 4} names two different parents.
      {CraftPstEnvelope(1, {-1, 0, 0, 1, 2}, 5), "fractured"},
      // An implausible node count in a tiny payload.
      {CraftPstEnvelope(1, {-1}, 2000000001), "bad node count"},
      // Alphabet 0 is no alphabet at all.
      {CraftPstEnvelope(0, {-1}, 1), "dimensionality"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    const auto loaded = LoadFromString(c.bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(c.reason), std::string::npos)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace privtree::release
