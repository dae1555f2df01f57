#include "release/dataset.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "core/byteio.h"
#include "core/sync.h"
#include "dp/check.h"
#include "obs/metrics.h"

namespace privtree::release {

namespace {

// The shared fingerprint mixer (core/byteio.h); word-at-a-time keeps the
// whole-dataset hash to a few ops per coordinate/symbol.
constexpr auto MixWord = MixFingerprintWord;
constexpr auto MixDouble = MixFingerprintDouble;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Per-kind domain-separation tags (arbitrary distinct constants).
constexpr std::uint64_t kKindTag[] = {0x53504154'49414C00ULL,   // spatial
                                      0x53455155'454E4345ULL};  // sequence

// Bytes held by the built indexes of every live Dataset.  The gauge is Set
// from this total rather than Added to, so a Registry::Reset while indexes
// are alive cannot make a later release wrap it below zero.
std::atomic<std::uint64_t> g_index_bytes{0};

void AccountIndexBytes(const MortonIndex& index, bool built) {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("spatial.index_bytes");
  const std::uint64_t bytes = index.keys().capacity() * sizeof(MortonKey);
  gauge.Set(built ? g_index_bytes.fetch_add(bytes) + bytes
                  : g_index_bytes.fetch_sub(bytes) - bytes);
}

}  // namespace

/// The lazily built index every copy of a spatial Dataset shares.  The
/// gauge counts its keys from the build until the last copy goes away.
struct Dataset::IndexSlot {
  ~IndexSlot() {
    MutexLock lock(mu);
    if (index != nullptr) AccountIndexBytes(*index, /*built=*/false);
  }

  Mutex mu;
  std::unique_ptr<const MortonIndex> index GUARDED_BY(mu);
};

std::string_view DatasetKindName(DatasetKind kind) {
  return kind == DatasetKind::kSpatial ? "spatial" : "sequence";
}

Dataset::Dataset(const PointSet& points, Box domain)
    : kind_(DatasetKind::kSpatial),
      points_(&points),
      domain_(std::move(domain)),
      index_slot_(std::make_shared<IndexSlot>()) {
  PRIVTREE_CHECK_EQ(points.dim(), domain_.dim());
}

Dataset::Dataset(const SequenceDataset& sequences)
    : kind_(DatasetKind::kSequence), sequences_(&sequences) {
  PRIVTREE_CHECK_GE(sequences.alphabet_size(), 1u);
}

const PointSet& Dataset::points() const {
  PRIVTREE_CHECK(is_spatial());
  return *points_;
}

const Box& Dataset::domain() const {
  PRIVTREE_CHECK(is_spatial());
  return domain_;
}

const MortonIndex& Dataset::morton_index() const {
  PRIVTREE_CHECK(is_spatial());
  IndexSlot& slot = *index_slot_;
  MutexLock lock(slot.mu);
  if (slot.index == nullptr) {
    static obs::Counter& builds =
        obs::Registry::Global().GetCounter("spatial.index_builds");
    static obs::Histogram& build_us =
        obs::Registry::Global().GetHistogram("spatial.index_build_us");
    const auto start = std::chrono::steady_clock::now();
    slot.index = std::make_unique<const MortonIndex>(*points_, domain_);
    build_us.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    builds.Inc();
    AccountIndexBytes(*slot.index, /*built=*/true);
  }
  return *slot.index;
}

const SequenceDataset& Dataset::sequences() const {
  PRIVTREE_CHECK(is_sequence());
  return *sequences_;
}

std::size_t Dataset::size() const {
  return is_spatial() ? points_->size() : sequences_->size();
}

std::size_t Dataset::dim() const {
  return is_spatial() ? points_->dim() : sequences_->alphabet_size();
}

std::uint64_t Dataset::UntaggedContentDigest() const {
  std::uint64_t hash = kFnvBasis;
  if (is_spatial()) {
    hash = MixWord(hash, points_->dim());
    hash = MixWord(hash, points_->size());
    for (const double c : points_->coords()) hash = MixDouble(hash, c);
    for (std::size_t j = 0; j < domain_.dim(); ++j) {
      hash = MixDouble(hash, domain_.lo(j));
      hash = MixDouble(hash, domain_.hi(j));
    }
    return hash;
  }
  const SequenceDataset& data = *sequences_;
  hash = MixWord(hash, data.alphabet_size());
  hash = MixWord(hash, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    hash = MixWord(hash, (static_cast<std::uint64_t>(data.length(i)) << 1) |
                             (data.has_end(i) ? 1 : 0));
    for (const Symbol s : data.sequence(i)) hash = MixWord(hash, s);
  }
  return hash;
}

std::uint64_t Dataset::Fingerprint() const {
  // The kind tag is mixed on top of the content digest, so equal content
  // words under different kinds can never produce equal fingerprints.
  return MixWord(UntaggedContentDigest(),
                 kKindTag[static_cast<std::size_t>(kind_)]);
}

}  // namespace privtree::release
