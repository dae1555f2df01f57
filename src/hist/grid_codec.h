// Binary codec for released GridHistogram lattices (the synopsis payload
// of the grid-family backends) and the compressed AG body built on them.
//
// Body layout, relative to a known dimensionality d:
//
//   f64 lo_j, f64 hi_j   for j = 0..d-1     (domain box)
//   u64 cells_j          for j = 0..d-1     (per-dimension granularity)
//   f64 count            × Π_j cells_j      (row-major released counts)
//
// The prefix-sum lattice is derived state and is rebuilt on read, which
// reproduces it bit for bit from identical counts.
#ifndef PRIVTREE_HIST_GRID_CODEC_H_
#define PRIVTREE_HIST_GRID_CODEC_H_

#include "core/byteio.h"
#include "dp/status.h"
#include "hist/ag.h"
#include "hist/grid.h"

namespace privtree {

/// Appends the grid's domain, granularities and counts to `out`.
void WriteGridHistogram(ByteWriter& out, const GridHistogram& grid);

/// Reads a `dim`-dimensional grid written by WriteGridHistogram and rebuilds
/// its prefix sums.  Every malformed input (truncation, zero granularity,
/// cell totals that overflow or exceed the payload) yields a clean error.
Result<GridHistogram> ReadGridHistogram(ByteReader& in, std::size_t dim);

/// Compressed AG body used inside synopsis envelopes.  The level-2
/// sub-grid boxes are the level-1 lattice geometry — fully determined by
/// the domain and m1 — and the granularities are small integers, so the
/// body drops the boxes and group-varint-packs the granularities; the noisy
/// counts stay raw (they do not compress).
///
///   i64  m1
///   box  domain                      (raw f64 pairs)
///   f64  × m1²  level-1 counts
///   u32  box mode                    (1 = implicit, 0 = explicit)
///   str  packed granularities        (PackVarintGB, 2 per cell, cell order)
///   mode 0 only: box × m1²           (per-cell sub-grid domains)
///   f64… concatenated sub-grid counts (cell order, Π granularities each)
///
/// Mode 1 is written whenever every sub-grid's domain matches the level-1
/// cell box *bitwise* (always true for grids this codebase fit; any other
/// AdaptiveGrid falls back to mode 0), and decoding recomputes
/// the boxes with the exact GridHistogram::CellBox arithmetic, so the
/// round-trip is bit-for-bit either way.
void WriteAdaptiveGridBodyCompressed(ByteWriter& out, const AdaptiveGrid& grid);

/// Reads a body written by WriteAdaptiveGridBodyCompressed; 2-d only.
Result<AdaptiveGrid> ReadAdaptiveGridBodyCompressed(ByteReader& in);

}  // namespace privtree

#endif  // PRIVTREE_HIST_GRID_CODEC_H_
