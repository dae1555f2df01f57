// Little-endian byte-buffer primitives for the synopsis on-disk format.
//
// ByteWriter appends fixed-width scalars and length-prefixed strings to an
// in-memory byte string; ByteReader consumes the same encoding with
// bounds-checked, non-aborting reads (every getter reports failure instead
// of crashing, so a truncated or corrupted file surfaces as a clean error
// at the caller).  All multi-byte values are little-endian regardless of
// host order; doubles are IEEE-754 binary64 bit patterns, so a value
// round-trips bit for bit.
#ifndef PRIVTREE_CORE_BYTEIO_H_
#define PRIVTREE_CORE_BYTEIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace privtree {

/// Appends little-endian scalars to `*out` (which must outlive the writer).
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v);
  void I64(std::int64_t v);
  void F64(double v);
  /// Each element as F64, without a length prefix (callers encode counts
  /// explicitly so readers can bounds-check before allocating).
  void F64Span(std::span<const double> values);
  /// U32 byte length followed by the raw bytes.
  void Str(std::string_view s);

 private:
  std::string* out_;
};

/// Consumes the ByteWriter encoding from an in-memory view.  Every read
/// returns false (leaving the output untouched) on underflow; once a read
/// fails the reader stays failed.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool I32(std::int32_t* v);
  bool I64(std::int64_t* v);
  bool F64(double* v);
  /// Reads exactly `n` doubles; fails (without allocating) unless 8·n bytes
  /// remain.
  bool F64Vec(std::size_t n, std::vector<double>* out);
  /// Reads a U32 length prefix + bytes; fails unless the full string fits
  /// in the remaining input.
  bool Str(std::string* out);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// The unread input, from the current position to the end.
  std::string_view rest() const { return data_.substr(pos_); }
  bool AtEnd() const { return pos_ == data_.size(); }
  bool failed() const { return failed_; }

 private:
  bool Take(std::size_t n, const char** p);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Order-sensitive 64-bit digest of a byte string (SplitMix64-style mixing
/// over 8-byte words plus the length).  Used as the synopsis envelope
/// integrity check; it detects corruption, it is not cryptographic.
std::uint64_t ByteChecksum(std::string_view bytes);

/// Order-sensitive accumulation of one 64-bit word into a running digest:
/// xor-then-avalanche (SplitMix64 finalizer).  The one mixer behind every
/// fingerprint in the serving stack — dataset content digests
/// (release/dataset.cc) and synopsis cache keys / spill-file names
/// (serve/synopsis_cache.cc) — kept in one place so the two can never
/// silently diverge.
inline std::uint64_t MixFingerprintWord(std::uint64_t hash,
                                        std::uint64_t word) {
  std::uint64_t x = hash ^ word;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x + 0x9e3779b97f4a7c15ULL;
}

/// As MixFingerprintWord, over a double's IEEE-754 bit pattern.
std::uint64_t MixFingerprintDouble(std::uint64_t hash, double value);

}  // namespace privtree

#endif  // PRIVTREE_CORE_BYTEIO_H_
