#include "hist/grid_kernels.h"

#include <algorithm>
#include <cmath>

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

}  // namespace privtree
