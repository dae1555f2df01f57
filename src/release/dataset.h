// The dataset abstraction of the release layer: one tagged, non-owning view
// over every sensitive-input shape the registry's methods can fit — spatial
// point sets with a declared domain (the paper's Sections 3 and 6.1) and
// symbol-sequence datasets (Sections 4–5).  Threading a Dataset instead of
// a (PointSet, Box) pair through ReleaseSession, the serving cache, the
// ParallelRunner and the AsyncEngine is what lets the PST and n-gram
// builders live behind the same `release::Method` interface as the eight
// spatial backends.
//
// A Dataset is a cheap value: it stores a pointer to the caller's data
// (which must outlive every use, exactly as the previous `const PointSet&`
// contracts required) plus, for spatial data, a copy of the declared
// domain box and a shared slot for the dataset's MortonIndex.  The index is
// built lazily, on the first morton_index() call (the first tree fit), and
// every copy of the Dataset shares it, so a tenant, a session or a fit
// sweep sorts its keys once instead of once per release.  It costs 16 B per
// point and lives as long as the last copy of the Dataset.  Because the
// index is cached, the viewed data must not change while it is viewed.
//
// Fingerprints are *domain-separated by kind*: the digest mixes a per-kind
// tag on top of the content words, so a sequence dataset and a spatial
// dataset can
// never collide on a SynopsisCache key or a spill-file name even if their
// raw content words coincide (UntaggedContentDigest exists to let tests
// demonstrate exactly that collision).
#ifndef PRIVTREE_RELEASE_DATASET_H_
#define PRIVTREE_RELEASE_DATASET_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"

namespace privtree::release {

/// Which input shape a dataset (or a registered method) works over.
enum class DatasetKind : std::uint8_t {
  kSpatial = 0,   ///< PointSet over a declared Box domain.
  kSequence = 1,  ///< SequenceDataset over a finite alphabet.
};

/// Human-readable kind name ("spatial" / "sequence") for diagnostics.
std::string_view DatasetKindName(DatasetKind kind);

/// A tagged non-owning view of one sensitive dataset.
class Dataset {
 public:
  /// Spatial view; `points` must outlive the Dataset.  The domain is
  /// declared by the caller — deriving it from the data would leak.
  Dataset(const PointSet& points, Box domain);

  /// Sequence view; `sequences` must outlive the Dataset.
  explicit Dataset(const SequenceDataset& sequences);

  DatasetKind kind() const { return kind_; }
  bool is_spatial() const { return kind_ == DatasetKind::kSpatial; }
  bool is_sequence() const { return kind_ == DatasetKind::kSequence; }

  /// Spatial accessors; abort unless is_spatial().
  const PointSet& points() const;
  const Box& domain() const;

  /// The Morton index of (points, domain), shared by every copy of this
  /// Dataset.  The first call builds it; concurrent first callers wait for
  /// that one build.  Aborts unless is_spatial().
  const MortonIndex& morton_index() const;

  /// Sequence accessor; aborts unless is_sequence().
  const SequenceDataset& sequences() const;

  /// Records in the dataset (points or sequences).
  std::size_t size() const;

  /// The method-facing dimensionality: the spatial dim, or the sequence
  /// alphabet size (what sequence-method metadata reports as `dim`).
  std::size_t dim() const;

  /// Order-sensitive 64-bit digest of (content, kind): the content digest
  /// (dim/size/coordinates/bounds for spatial data,
  /// alphabet/size/lengths/symbols for sequences) finalized with a per-kind
  /// tag.  Equal content under different kinds therefore always yields
  /// different fingerprints; within a kind collisions are astronomically
  /// unlikely (the cache trades that risk for never storing the data).
  std::uint64_t Fingerprint() const;

  /// The same digest *without* the kind tag — the value a naive scheme
  /// would have used as a cache key.  Exposed so tests can construct a
  /// cross-kind content collision and verify Fingerprint() separates it;
  /// never use this as a key.
  std::uint64_t UntaggedContentDigest() const;

 private:
  DatasetKind kind_;
  const PointSet* points_ = nullptr;
  Box domain_;  // Meaningful for spatial datasets only.
  const SequenceDataset* sequences_ = nullptr;
  // Spatial datasets only; shared by every copy (see dataset.cc).
  struct IndexSlot;
  std::shared_ptr<IndexSlot> index_slot_;
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_DATASET_H_
