#include "hist/grid_kernels.h"

#include <algorithm>
#include <cmath>

#include "core/simd.h"

namespace privtree {

namespace {

// One axis position resolved to a lattice coordinate: base cell + fraction.
struct AxisCoord {
  std::size_t base;
  double frac;
};

// The per-dimension block of GridHistogram::Cdf (subtract, divide,
// multiply; clamp; floor; top-edge fixup), with two exact shortcuts for
// domain-edge positions.  The view's width is `dhi - dlo` bitwise
// (KernelView2D), so for x == dlo the general path computes
// t = 0/w·m = 0 → (0, +0.0) (including the x = -0.0, dlo = +0.0 tie,
// where t = -0.0 clamps, floors and subtracts to the same pair), and for
// x == dhi it computes t = w/w·m = m → fixup m-1 → (m-1, 1.0), both
// division-free here.  AG's boundary cells hit these shortcuts on every
// side the query fully covers, which is most of their sides.
inline AxisCoord CoordOf(double x, double dlo, double dhi, double w,
                         double md) {
  if (x == dlo) return {0, 0.0};
  if (x == dhi) return {static_cast<std::size_t>(md) - 1, 1.0};
  double t = (x - dlo) / w * md;
  t = std::clamp(t, 0.0, md);
  double i = std::floor(t);
  if (i >= md) i = md - 1.0;
  return {static_cast<std::size_t>(i), t - i};
}

// Bilinear CDF value at one corner pair.  Corner order matches the generic
// mask loop: (0,0) (1,0) (0,1) (1,1), with the `weight != 0` skip.
inline double Cdf2DAt(const Grid2DView& g, const AxisCoord& c0,
                      const AxisCoord& c1) {
  const double f0 = c0.frac, f1 = c1.frac;
  const double* row = g.prefix + c0.base * g.stride0 + c1.base;
  double value = 0.0;
  {
    const double w = (1.0 - f0) * (1.0 - f1);
    if (w != 0.0) value += w * row[0];
  }
  {
    const double w = f0 * (1.0 - f1);
    if (w != 0.0) value += w * row[g.stride0];
  }
  {
    const double w = (1.0 - f0) * f1;
    if (w != 0.0) value += w * row[1];
  }
  {
    const double w = f0 * f1;
    if (w != 0.0) value += w * row[g.stride0 + 1];
  }
  return value;
}

}  // namespace

double GridQueryOne2D(const Grid2DView& g, const Box& q) {
  // Clip to the domain; max/min argument order matches QueryImpl so tie
  // behavior (and thus every downstream bit) is identical.
  const double lo0 = std::max(q.lo(0), g.dlo0);
  const double hi0 = std::min(q.hi(0), g.dhi0);
  if (lo0 >= hi0) return 0.0;
  const double lo1 = std::max(q.lo(1), g.dlo1);
  const double hi1 = std::min(q.hi(1), g.dhi1);
  if (lo1 >= hi1) return 0.0;
  // Each axis coordinate once (QueryImpl recomputes them per corner, but
  // they are pure in the inputs, so hoisting cannot change a bit).
  const AxisCoord clo0 = CoordOf(lo0, g.dlo0, g.dhi0, g.w0, g.m0d);
  const AxisCoord chi0 = CoordOf(hi0, g.dlo0, g.dhi0, g.w0, g.m0d);
  const AxisCoord clo1 = CoordOf(lo1, g.dlo1, g.dhi1, g.w1, g.m1d);
  const AxisCoord chi1 = CoordOf(hi1, g.dlo1, g.dhi1, g.w1, g.m1d);
  // Inclusion-exclusion in mask order; `sign *` is an exact ±1 multiply.
  double ans = 0.0;
  ans += 1.0 * Cdf2DAt(g, clo0, clo1);
  ans += -1.0 * Cdf2DAt(g, chi0, clo1);
  ans += -1.0 * Cdf2DAt(g, clo0, chi1);
  ans += 1.0 * Cdf2DAt(g, chi0, chi1);
  return ans;
}

void GridQueryBatch2DScalar(const Grid2DView& g, std::span<const Box> queries,
                            double* answers) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    answers[i] = GridQueryOne2D(g, queries[i]);
  }
}

#if defined(PRIVTREE_SIMD_SSE2)

namespace {

// One lattice coordinate for 2 queries: integer base cells + fractions.
struct Coord2 {
  int base0;  // Integer base cell, lane 0 / lane 1.
  int base1;
  __m128d frac;
};

// Vector version of the per-dimension block of Cdf.  std::clamp(t, 0, m)
// keeps t on ties, so the max/min operand order below (mask constant first)
// reproduces it exactly; truncation == floor for the clamped t >= 0; the
// top-edge fixup subtracts an exact 1.0 under the ge mask.
inline Coord2 CdfCoord2(__m128d x, __m128d dlo, __m128d w, __m128d md) {
  __m128d t = _mm_mul_pd(_mm_div_pd(_mm_sub_pd(x, dlo), w), md);
  t = _mm_max_pd(_mm_setzero_pd(), t);
  t = _mm_min_pd(md, t);
  __m128d integral = _mm_cvtepi32_pd(_mm_cvttpd_epi32(t));
  const __m128d ge = _mm_cmpge_pd(integral, md);
  integral = _mm_sub_pd(integral, _mm_and_pd(ge, _mm_set1_pd(1.0)));
  const __m128i base = _mm_cvttpd_epi32(integral);
  Coord2 c;
  c.base0 = _mm_cvtsi128_si32(base);
  c.base1 = _mm_cvtsi128_si32(_mm_shuffle_epi32(base, 1));
  c.frac = _mm_sub_pd(t, integral);
  return c;
}

// Bilinear CDF value for 2 queries at one corner pair.  The scalar
// `if (weight != 0) value += weight * p` becomes a NEQ-masked add; the
// accumulator can never be -0.0 (it starts at +0.0 and IEEE addition only
// yields -0.0 from two -0.0 inputs), so adding a masked-out +0.0 term is
// bit-identical to skipping it.
inline __m128d CdfValue2(const Grid2DView& g, const Coord2& c0,
                         const Coord2& c1) {
  const double* r0 = g.prefix + static_cast<std::size_t>(c0.base0) * g.stride0 +
                     static_cast<std::size_t>(c1.base0);
  const double* r1 = g.prefix + static_cast<std::size_t>(c0.base1) * g.stride0 +
                     static_cast<std::size_t>(c1.base1);
  const __m128d p00 = _mm_set_pd(r1[0], r0[0]);
  const __m128d p10 = _mm_set_pd(r1[g.stride0], r0[g.stride0]);
  const __m128d p01 = _mm_set_pd(r1[1], r0[1]);
  const __m128d p11 = _mm_set_pd(r1[g.stride0 + 1], r0[g.stride0 + 1]);
  const __m128d ones = _mm_set1_pd(1.0);
  const __m128d om0 = _mm_sub_pd(ones, c0.frac);
  const __m128d om1 = _mm_sub_pd(ones, c1.frac);
  const __m128d zero = _mm_setzero_pd();
  __m128d value = zero;
  __m128d wgt = _mm_mul_pd(om0, om1);
  value = _mm_add_pd(value, _mm_and_pd(_mm_cmpneq_pd(wgt, zero),
                                       _mm_mul_pd(wgt, p00)));
  wgt = _mm_mul_pd(c0.frac, om1);
  value = _mm_add_pd(value, _mm_and_pd(_mm_cmpneq_pd(wgt, zero),
                                       _mm_mul_pd(wgt, p10)));
  wgt = _mm_mul_pd(om0, c1.frac);
  value = _mm_add_pd(value, _mm_and_pd(_mm_cmpneq_pd(wgt, zero),
                                       _mm_mul_pd(wgt, p01)));
  wgt = _mm_mul_pd(c0.frac, c1.frac);
  value = _mm_add_pd(value, _mm_and_pd(_mm_cmpneq_pd(wgt, zero),
                                       _mm_mul_pd(wgt, p11)));
  return value;
}

}  // namespace

void GridQueryBatch2DSimd(const Grid2DView& g, std::span<const Box> queries,
                          double* answers) {
  const __m128d dlo0 = _mm_set1_pd(g.dlo0);
  const __m128d dhi0 = _mm_set1_pd(g.dhi0);
  const __m128d dlo1 = _mm_set1_pd(g.dlo1);
  const __m128d dhi1 = _mm_set1_pd(g.dhi1);
  const __m128d w0 = _mm_set1_pd(g.w0);
  const __m128d w1 = _mm_set1_pd(g.w1);
  const __m128d m0 = _mm_set1_pd(g.m0d);
  const __m128d m1 = _mm_set1_pd(g.m1d);
  const std::size_t n = queries.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Box& a = queries[i];
    const Box& b = queries[i + 1];
    // std::max(q, dom) returns q on ties; _mm_max_pd(x, y) returns y on
    // ties — so the domain bound rides in the first operand.
    const __m128d lo0 = _mm_max_pd(dlo0, _mm_set_pd(b.lo(0), a.lo(0)));
    const __m128d hi0 = _mm_min_pd(dhi0, _mm_set_pd(b.hi(0), a.hi(0)));
    const __m128d lo1 = _mm_max_pd(dlo1, _mm_set_pd(b.lo(1), a.lo(1)));
    const __m128d hi1 = _mm_min_pd(dhi1, _mm_set_pd(b.hi(1), a.hi(1)));
    const __m128d valid =
        _mm_and_pd(_mm_cmplt_pd(lo0, hi0), _mm_cmplt_pd(lo1, hi1));
    const Coord2 clo0 = CdfCoord2(lo0, dlo0, w0, m0);
    const Coord2 chi0 = CdfCoord2(hi0, dlo0, w0, m0);
    const Coord2 clo1 = CdfCoord2(lo1, dlo1, w1, m1);
    const Coord2 chi1 = CdfCoord2(hi1, dlo1, w1, m1);
    const __m128d plus = _mm_set1_pd(1.0);
    const __m128d minus = _mm_set1_pd(-1.0);
    __m128d ans = _mm_setzero_pd();
    ans = _mm_add_pd(ans, _mm_mul_pd(plus, CdfValue2(g, clo0, clo1)));
    ans = _mm_add_pd(ans, _mm_mul_pd(minus, CdfValue2(g, chi0, clo1)));
    ans = _mm_add_pd(ans, _mm_mul_pd(minus, CdfValue2(g, clo0, chi1)));
    ans = _mm_add_pd(ans, _mm_mul_pd(plus, CdfValue2(g, chi0, chi1)));
    // Degenerate-overlap lanes return exactly +0.0, like the early return.
    ans = _mm_and_pd(valid, ans);
    _mm_storeu_pd(answers + i, ans);
  }
  for (; i < n; ++i) answers[i] = GridQueryOne2D(g, queries[i]);
}

#else  // No vector ISA: the "SIMD" entry point is the scalar kernel.

void GridQueryBatch2DSimd(const Grid2DView& g, std::span<const Box> queries,
                          double* answers) {
  GridQueryBatch2DScalar(g, queries, answers);
}

#endif

}  // namespace privtree
