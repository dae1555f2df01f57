// The universal synopsis on-disk format: every registered release::Method
// persists through one versioned, self-describing binary envelope, so
// `privtree_cli build`/`query` and the SynopsisCache spill tier work for
// all backends, not just the spatial tree.
//
// ── Format spec (v3) ───────────────────────────────────────────────────────
//
// A synopsis file is a fixed header followed by a checksummed body.  All
// integers are little-endian; doubles are IEEE-754 binary64 bit patterns
// (so released values round-trip bit for bit).
//
//   offset  size  field
//   0       8     magic "PRIVTSYN"
//   8       4     u32 format version (3, the only readable version)
//   12      8     u64 body size in bytes
//   20      8     u64 body checksum (core/byteio.h ByteChecksum)
//   28      8     u64 header checksum (ByteChecksum of bytes [0, 28)) —
//                 lets the spill tier's warm-restart scan verify a file
//                 header-only, without reading the body
//   36      ...   body (exactly `body size` bytes; nothing may follow)
//
// The body compresses the structured payload sections with the
// core/codec.h primitives (delta + bit-packed tree topology, 2-bit
// box-bound codes against the parent, group-varint quantized counts — see
// spatial/serialization.h for the compressed tree body and the per-backend
// notes below).  Released doubles are stored verbatim unless the method
// opted into `count_quantum`, so loading stays bit-for-bit lossless.
//
//   body:
//     str   method name          (u32 length + bytes; a registry name)
//     str   options text         (canonical "k1=v1,k2=v2", sorted keys —
//                                 exactly what the method was created with)
//     u64   dim                  (dimensionality of the fitted domain;
//                                 sequence methods record the alphabet
//                                 size here)
//     f64   epsilon spent        (total ε consumed by Fit)
//     u64   synopsis size        (released nodes / cells, as Metadata())
//     i32   height               (decomposition height, as Metadata())
//     ...   per-backend payload  (the rest of the body)
//
// Per-backend payloads:
//   privtree, simpletree   compressed spatial tree body
//                          (spatial/serialization.h: packed parents, root
//                          box + 2-bit bound codes, counts section)
//   kdtree                 the same body over plain boxes
//   ug, dawa, wavelet      grid body (hist/grid_codec.h): domain box,
//                          u64 cells per dim, f64 counts row-major
//   ag                     compressed AG body (hist/grid_codec.h): i64 m1,
//                          domain box, f64 level-1 counts, u32 box mode,
//                          group-varint per-cell granularities (2 per
//                          cell), then the concatenated raw sub-grid
//                          counts — in box mode 1 the sub-grid boxes are
//                          recomputed from the level-1 cell geometry
//   hierarchy              domain box, i32 height, i64 branching,
//                          u32 consistent flag (0/1), then per level
//                          1..height-1 the flat f64 counts (sizes derived
//                          from branching; post-inference)
//   pst_privtree           u64 node count, packed parents (core/codec.h
//                          PackDeltaI32, id order, root = -1), then the f64
//                          histograms (alphabet+1 each) in id order;
//                          children are implied by parent links + creation
//                          order (the SplitNode sibling-group invariant)
//   ngram                  u64 node count, packed parents, then the f64
//                          noisy counts in id order, under the same
//                          sibling-group invariant
//
// Any other version, and the old text formats, are refused with
// InvalidArgument; in the spill tier such a file is quarantined and its
// key refits.
//
// Loading re-derives every piece of derived state (prefix-sum lattices,
// summed-area tables, tree depths) deterministically from the released
// values, so a loaded synopsis answers Query/QueryBatch bit-for-bit
// identically to the in-memory fit, and Metadata() reports identical
// accounting.  Any corruption — truncation, bit flips, a wrong magic, an
// unknown method, trailing bytes — surfaces as a clean Status error.
#ifndef PRIVTREE_RELEASE_SERIALIZATION_H_
#define PRIVTREE_RELEASE_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "dp/status.h"
#include "release/method.h"
#include "release/registry.h"

namespace privtree::release {

inline constexpr std::string_view kSynopsisMagic = "PRIVTSYN";
inline constexpr std::uint32_t kSynopsisFormatVersion = 3;

/// The whole envelope, header and body, of a fitted method whose payload
/// is `payload`: the bytes WriteSynopsis writes.  A method that keeps them
/// saves with one write.
std::string SealSynopsis(const MethodMetadata& metadata,
                         std::string_view options_text,
                         std::string_view payload);

/// Writes the envelope header + body for a fitted method; backends call
/// this from their Save overrides with the payload they encoded.
Status WriteSynopsis(std::ostream& out, const MethodMetadata& metadata,
                     std::string_view options_text, std::string_view payload);

/// Writes an envelope SealSynopsis built.
Status WriteSealedSynopsis(std::ostream& out, std::string_view envelope);

/// Reads one serialized synopsis from `in` (the whole remaining stream) and
/// reconstructs the fitted method through `registry`'s loader for the
/// recorded method name.  Every malformed input — including a file in any
/// format other than v3 — yields a Status error, never a crash or a partial
/// synopsis.
Result<std::unique_ptr<Method>> LoadMethod(std::istream& in,
                                           const MethodRegistry& registry);

/// As above, against the global registry.
Result<std::unique_ptr<Method>> LoadMethod(std::istream& in);

/// File-path convenience wrappers (binary mode, whole-file).  `durable`
/// fsyncs the file before returning — the crash-safety contract the spill
/// tier's temp-write + atomic-rename discipline needs (a rename can outlive
/// an unsynced write in a crash, leaving a torn file under the final name).
Status SaveMethodToFile(const Method& method, const std::string& path,
                        bool durable = false);
Result<std::unique_ptr<Method>> LoadMethodFromFile(const std::string& path);

/// Cheap integrity probe of a synopsis file — no payload decode, no
/// registry lookup.  Header-only: magic, version, header checksum, and
/// declared body size vs the file's actual size, all from one small read
/// (the body checksum is deferred to LoadMethod, which verifies it on
/// first access).  OK means "worth loading"; any other version, and any
/// structural corruption (truncation, a torn tail, a damaged header, zero
/// length) yields the reason.  The spill tier's warm-restart scan
/// quarantines files this rejects.  `bytes_scanned`, when non-null, is
/// incremented by the number of file bytes actually read — the startup-cost
/// stat the cache surfaces.
Status ProbeSynopsisFile(const std::string& path,
                         std::uint64_t* bytes_scanned = nullptr);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_SERIALIZATION_H_
