// Golden pins for the synopsis envelope bytes.  Each case fits one
// registered method with a fixed Rng — on the spatial points and options of
// serialization_test's EveryMethodRoundTripsBitForBit, or on the sequences
// of sequence_methods_test — saves it, and compares an FNV-1a digest of the
// whole envelope (header + body) against a recorded value.
//
// The round-trip tests prove that a save loads back bit for bit; these pin
// the bytes themselves, so a codec refactor that keeps round-tripping but
// moves a single byte of the on-disk format fails here.  A deliberate
// format change re-records them (the failure message prints the digest).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "release/dataset.h"
#include "release/options.h"
#include "release/registry.h"
#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::release {
namespace {

// FNV-1a over bytes.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

const PointSet& TestPoints() {
  static const PointSet points = [] {
    Rng rng(0x5EED);
    PointSet out(2);
    std::vector<double> p(2);
    for (std::size_t i = 0; i < 4000; ++i) {
      p[0] = rng.NextDouble() * rng.NextDouble();
      p[1] = rng.NextDouble();
      out.Add(p);
    }
    return out;
  }();
  return points;
}

const SequenceDataset& TestSequences() {
  static const SequenceDataset sequences = [] {
    Rng rng(0x5EC7E57);
    SequenceDataset data(4);
    std::vector<Symbol> s;
    for (std::size_t i = 0; i < 400; ++i) {
      s.clear();
      const std::size_t len = 1 + rng.NextBounded(14);
      Symbol last = static_cast<Symbol>(rng.NextBounded(4));
      for (std::size_t j = 0; j < len; ++j) {
        last = static_cast<Symbol>(rng.NextDouble() < 0.6
                                       ? last
                                       : rng.NextBounded(4));
        s.push_back(last);
      }
      data.Add(s);
    }
    return data.Truncate(12);
  }();
  return sequences;
}

struct EnvelopeCase {
  const char* label;
  const char* method;
  const char* options;  // Canonical "k=v,..." text.
  std::uint64_t seed;
  std::uint64_t digest;
};

// Seeds 17..26 match EveryMethodRoundTripsBitForBit's case order.
const EnvelopeCase kCases[] = {
    {"privtree", "privtree", "", 17, 0x0410e95b89c91ab3ULL},
    {"privtree_i1", "privtree", "dims_per_split=1", 18, 0x663475cb6c3f10b0ULL},
    {"simpletree", "simpletree", "height=5", 19, 0xcf380348bfe79e40ULL},
    {"ug", "ug", "cell_scale=2", 20, 0xe4da77679e602eecULL},
    {"ag", "ag", "", 21, 0x7f7f3bbd6df9bedfULL},
    {"kdtree", "kdtree", "height=6", 22, 0xfd076b797f1505d0ULL},
    {"dawa", "dawa", "target_total_cells=4096", 23, 0x75a5bee35874ac9fULL},
    {"hierarchy", "hierarchy", "", 24, 0x3de4cc2050f50f94ULL},
    {"hierarchy_raw", "hierarchy", "constrained_inference=false", 25,
     0x4eca5c508b174428ULL},
    {"wavelet", "wavelet", "target_total_cells=4096", 26,
     0xd909350449d792dbULL},
    {"pst_privtree", "pst_privtree", "l_top=12", 27, 0xa25cd90c0c94f21bULL},
    {"ngram", "ngram", "l_top=12", 28, 0x59f615730eabee88ULL},
};

void PrintTo(const EnvelopeCase& c, std::ostream* os) { *os << c.label; }

class GoldenEnvelopeTest : public ::testing::TestWithParam<EnvelopeCase> {};

TEST_P(GoldenEnvelopeTest, SaveBytesMatchRecordedDigest) {
  const EnvelopeCase& c = GetParam();
  const MethodRegistry& registry = GlobalMethodRegistry();
  auto method = registry.Create(c.method, MethodOptions::Parse(c.options));
  PrivacyBudget budget(1.0);
  Rng rng(c.seed);
  if (registry.Get(c.method).kind == DatasetKind::kSequence) {
    method->Fit(Dataset(TestSequences()), budget, rng);
  } else {
    method->Fit(TestPoints(), Box::UnitCube(2), budget, rng);
  }
  std::ostringstream out;
  ASSERT_TRUE(method->Save(out).ok());
  const std::string bytes = std::move(out).str();
  EXPECT_EQ(Fnv1a(bytes), c.digest)
      << "bytes=" << bytes.size() << " digest=0x" << std::hex
      << Fnv1a(bytes);
}

INSTANTIATE_TEST_SUITE_P(EveryRegisteredMethod, GoldenEnvelopeTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(GoldenEnvelopeCoverageTest, EveryRegisteredMethodIsPinned) {
  std::set<std::string> pinned;
  for (const EnvelopeCase& c : kCases) pinned.insert(c.method);
  for (const std::string& name : GlobalMethodRegistry().Names()) {
    EXPECT_TRUE(pinned.count(name)) << name << " has no golden envelope";
  }
}

}  // namespace
}  // namespace privtree::release
