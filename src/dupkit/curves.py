"""Concave revenue curves on quantile space.

A curve maps a sale probability q in [0,1] to the expected revenue
Rev(q) = q * F^{-1}(1-q) of posting the price that sells with probability q.
Regularity of the underlying value distribution is exactly concavity of this
curve, so every query (value, quantile-of-value, virtual value, monopoly
point, sampling) reduces to piecewise-linear algebra on breakpoints.

A curve is its breakpoints plus an optional unbounded tail.  A positive
``scale`` marks the equal-revenue curve: the distribution
F(v) = 1 - 1/(v/scale + 1), giving Rev(q) = scale*(1-q) on (0,1].  Its
breakpoints ((0, scale), (1, 0)) record that linear branch, but its support
is unbounded and Rev jumps at q=0 (sup Rev = scale is attained only in the
limit q -> 0), so the ``EPS_MIN`` quantile floor below stands in for that
limit wherever a concrete number is needed.  Triangles, point masses and
piecewise curves are only different ways to write the breakpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConcavityViolation, DomainError

# Smallest representable quantile: unbounded-support curves are clamped here
# when a limiting q -> 0 quantity must be materialized.
EPS_MIN = 1e-12

# Slack used when validating concavity of user-supplied breakpoints.
_SLOPE_TOL = 1e-9
# Relative slack of CurveTable's ray test: a breakpoint further below the
# ray starts a segment whose values stay below the slope after rounding.
_RAY_SLACK = 4 * 2.0**-52


class CurveTable:
    """Breakpoint data: Python floats for scalar queries, arrays for sampling.

    ``floor`` is value(1) and ``ceiling`` value(0) (inf for an unbounded
    tail); ``cuts`` are the interior breakpoints.

    A bounded curve's first segment, whose values read its slope exactly,
    also runs through the leading run of later breakpoints on its ray or
    just below it (r_j*q_1 >= r_1*q_j*(1 - _RAY_SLACK)), where Rev(q)/q
    could round above the slope.
    """

    def __init__(self, curve: RevenueCurve):
        points = curve.breakpoints
        if not curve.scale and len(points) > 2:
            (q1, r1), last = points[1], 1
            while last + 1 < len(points) and (
                    points[last + 1][1] * q1 >= r1 * points[last + 1][0] * (1.0 - _RAY_SLACK)):
                last += 1
            points = points[:1] + points[last:]
        self.qs = qs = tuple(q for q, _ in points)
        self.rs = rs = tuple(r for _, r in points)
        segs = []
        for j in range(1, len(qs)):
            slope = (rs[j] - rs[j - 1]) / (qs[j] - qs[j - 1])
            segs.append((qs[j - 1], qs[j], slope, rs[j - 1] - slope * qs[j - 1]))
        self.segments = tuple(segs)
        self.floor = rs[-1]
        self.ceiling = math.inf if curve.scale else segs[0][2]
        self.q_arr = np.array(qs)
        self.r_arr = np.array(rs)
        self.slope_arr = np.array([seg[2] for seg in segs])
        self.cuts = list(qs[1:-1])
        # a sampling chunk keeps every bidder's segment index alive, so it
        # takes the narrowest type (uint8 for up to 255 interior cuts)
        self.seg_dtype = np.min_scalar_type(len(self.cuts))
        # the bits every sampled value depends on, as a row store key
        self.key = np.array([curve.scale, *qs, *rs]).tobytes()
        # the curve's kink_values, filled in by their first call
        self.kinks = None
        # value_piece's tests as an array, filled in by value_pieces
        self.piece_tests = None


@dataclass(frozen=True)
class RevenueCurve:
    """Breakpoints plus, when scale > 0, an equal-revenue tail; build via make_*."""

    breakpoints: tuple[tuple[float, float], ...]
    scale: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.scale, *(x for p in self.breakpoints for x in p)))):
            raise DomainError(f"curve numbers must be finite, got {self.breakpoints}")

    @cached_property
    def table(self) -> CurveTable:
        """The breakpoint table, built on first use and kept on the curve."""
        return CurveTable(self)

    @cached_property
    def breakpoint_prices(self) -> np.ndarray:
        """value at each of the table's breakpoints (at EPS_MIN for q = 0),
        the prices Myerson's auction charges; built on first use and kept."""
        return np.array([value(self, max(q, EPS_MIN)) for q in self.table.qs])


@dataclass(frozen=True)
class BidderProfile:
    """Ordered bidders; indices are the stable identities used everywhere."""

    curves: tuple[RevenueCurve, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.curves) == 0:
            raise DomainError("profile must contain at least one bidder")
        if self.names is not None and len(self.names) != len(self.curves):
            raise DomainError("names length must match curves length")

    @property
    def n(self) -> int:
        return len(self.curves)


def make_profile(curves, names=None) -> BidderProfile:
    return BidderProfile(tuple(curves), None if names is None else tuple(names))


def make_triangle(peak_q: float, peak_r: float) -> RevenueCurve:
    """Curve with vertices (0,0), (peak_q, peak_r), (1,0).

    peak_q = 1 encodes a point mass at value peak_r (the top vertex absorbs
    the falling edge), so Rev(1) = peak_r > 0 is allowed for that case only.
    """
    if not (0.0 < peak_q <= 1.0):
        raise DomainError(f"peak_q must be in (0,1], got {peak_q}")
    if not peak_r > 0.0:
        raise DomainError(f"peak_r must be positive, got {peak_r}")
    if peak_q == 1.0:
        points = ((0.0, 0.0), (1.0, float(peak_r)))
    else:
        points = ((0.0, 0.0), (float(peak_q), float(peak_r)), (1.0, 0.0))
    return RevenueCurve(points)


def make_point_mass(v: float) -> RevenueCurve:
    """Deterministic value v >= 0 (v=0 gives the worthless bidder)."""
    if v < 0.0:
        raise DomainError(f"point mass value must be >= 0, got {v}")
    return RevenueCurve(((0.0, 0.0), (1.0, float(v))))


def make_equal_revenue(scale: float) -> RevenueCurve:
    if not scale > 0.0:
        raise DomainError(f"equal_revenue scale must be positive, got {scale}")
    # Breakpoints record the linear branch Rev(q) = scale*(1-q) on (0,1].
    return RevenueCurve(((0.0, float(scale)), (1.0, 0.0)), float(scale))


def make_piecewise(points) -> RevenueCurve:
    """Validated concave piecewise-linear curve through the given (q, R)."""
    pts = [(float(q), float(r)) for q, r in points]
    if len(pts) < 2:
        raise DomainError("need at least two breakpoints")
    if pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise DomainError("breakpoints must start at q=0 and end at q=1")
    if not abs(pts[0][1]) <= 1e-15:
        raise DomainError("Rev(0) must be 0")
    pts[0] = (0.0, 0.0)
    curve = RevenueCurve(tuple(pts))  # rejects non-finite numbers before the slope checks
    prev_slope = math.inf
    for j in range(1, len(pts)):
        q0, r0 = pts[j - 1]
        q1, r1 = pts[j]
        if not (0.0 <= q1 <= 1.0):
            raise DomainError(f"breakpoint {j} has q={q1} outside [0,1]")
        if r1 < 0.0:
            raise DomainError(f"breakpoint {j} has negative revenue {r1}")
        if q1 <= q0:
            raise DomainError(f"breakpoint {j} has non-increasing q ({q0} -> {q1})")
        slope = (r1 - r0) / (q1 - q0)
        if slope > prev_slope + _SLOPE_TOL * max(1.0, abs(prev_slope)):
            raise ConcavityViolation(
                f"chord slope increases at breakpoint {j} (q={q1}): "
                f"{prev_slope:.6g} -> {slope:.6g}"
            )
        prev_slope = slope
    return curve


def is_unbounded(curve: RevenueCurve) -> bool:
    """True when the value support has no finite upper end."""
    return curve.scale > 0.0


def has_unbounded(profile: BidderProfile) -> bool:
    return any(is_unbounded(c) for c in profile.curves)


def segments(curve: RevenueCurve):
    """Per-segment data (q_lo, q_hi, slope, c) with value(q) = slope + c/q."""
    return curve.table.segments


def rev(curve: RevenueCurve, q: float) -> float:
    """Revenue at sale probability q, exact at breakpoints.

    A bounded curve reads rs[j] + slope_j * (q - qs[j]) on segment
    j = bisect_right(qs, q) - 1, the expression and operation order of the
    sampler's simulate._values, so sample_value(c, u) is the sampled value
    of u bit for bit (on the first segment both read the slope instead of
    Rev(q)/q).  q = 1 returns the last breakpoint's revenue.
    """
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q={q} outside [0,1]")
    if curve.scale:
        return 0.0 if q == 0.0 else curve.scale * (1.0 - q)
    t = curve.table
    if q == 1.0:
        return t.rs[-1]
    j = bisect_right(t.qs, q) - 1
    return t.rs[j] + t.segments[j][2] * (q - t.qs[j])


def value(curve: RevenueCurve, q: float) -> float:
    """Posted price selling with probability q, i.e. Rev(q)/q.

    A bounded curve's first segment runs through the origin, so on it (q
    below the first interior breakpoint, or any q on a one-segment curve)
    the value is that segment's slope exactly, which is also the supremum
    value(c, 0); elsewhere it is rev(c, q) / q.  At q=0 a bounded curve
    returns the limit, and an unbounded one raises DomainError.
    """
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q={q} outside [0,1]")
    if q == 0.0:
        if curve.scale:
            raise DomainError("value at q=0 is infinite for unbounded support")
        return curve.table.ceiling
    if curve.scale:
        return curve.scale * (1.0 - q) / q
    t = curve.table
    # at q = qs[1] = 1 on a one-segment curve rev/q is rs[1]/1, the slope too
    if q < t.qs[1]:
        return t.ceiling
    return rev(curve, q) / q


def value_piece(curve: RevenueCurve, v: float) -> tuple[float, float, float]:
    """The piece (k, slope, c) of q(.) = Pr[value >= .] at v >= 0: q(v) = k + c/(v - slope).

    Inside the support it is one segment's (0.0, slope, c); at or below the
    floor q is 1.0 and above the ceiling 0.0, as k with slope -inf and c 0.0
    (c/(v - slope) = 0/inf = 0).  The piece changes only at kink_values.
    """
    t = curve.table
    if v <= t.floor:
        return 1.0, -math.inf, 0.0
    if v > t.ceiling:
        return 0.0, -math.inf, 0.0
    for q0, q1, slope, c in t.segments:
        if v > slope + c / q1:  # the value at the right end, the segment minimum
            return 0.0, slope, c
    return 1.0, -math.inf, 0.0


def _piece_tests(t: CurveTable) -> np.ndarray:
    """value_piece's tests on a table, in its order, as rows (lo, hi, k,
    slope, c): v in (lo, hi] reads the piece (k, slope, c)."""
    if t.piece_tests is None:
        t.piece_tests = np.array([
            (-math.inf, t.floor, 1.0, -math.inf, 0.0),
            (t.ceiling, math.inf, 0.0, -math.inf, 0.0),
            *((slope + c / q1, math.inf, 0.0, slope, c) for _, q1, slope, c in t.segments)])
    return t.piece_tests


def value_pieces(curves, v: np.ndarray) -> np.ndarray:
    """value_piece of every curve at every value of the 1-D array v, as a
    (len(v), len(curves), 3) array of (k, slope, c).

    A piece is the first of value_piece's tests that v passes, made for
    all values and curves at once with value_piece's own comparisons: v <=
    floor, v > ceiling, then v > slope + c/q1 for each segment in turn.
    Where none passes, the first row, the floor's (1, -inf, 0), is read,
    as value_piece returns.  So every piece is value_piece's.
    """
    tests = [_piece_tests(curve.table) for curve in curves]
    tab = np.empty((len(tests), max(map(len, tests)), 5))
    tab.fill(math.inf)  # lo = inf passes no v
    for row, test in zip(tab, tests):
        row[: len(test)] = test
    v = np.asarray(v, dtype=float)[:, None, None]
    first = ((v > tab[:, :, 0]) & (v <= tab[:, :, 1])).argmax(axis=2)
    return tab[np.arange(len(tests)), first, 2:]


def quantile_of_value(curve: RevenueCurve, v: float) -> float:
    """Sale probability q(v) = Pr[value >= v]: largest q with value(q) >= v."""
    if not v >= 0.0:
        raise DomainError(f"value must be >= 0, got {v}")
    k, slope, c = value_piece(curve, v)
    # v==slope cannot occur here: that needs c==0, making the segment's
    # value constant, and value_piece returns it only for v > slope + c/q1 == slope.
    return k + c / (v - slope)


def quantile_lower_of_value(curve: RevenueCurve, v: float) -> float:
    """Smallest q with value(q) <= v, i.e. Pr[value > v] = 1 - F(v).

    Together with quantile_of_value this brackets the quantile interval a
    bid can occupy; the two differ exactly when v carries an atom.  Values
    below the support floor clamp to 1.
    """
    if not v >= 0.0:
        raise DomainError(f"value must be >= 0, got {v}")
    t = curve.table
    if v >= t.ceiling:
        return 0.0
    if v < t.floor:
        return 1.0
    for q0, q1, slope, c in t.segments:
        v_hi = slope + c / q1
        if v >= v_hi:
            # value exceeds v on [q0, q) only; c>0 because a c==0 segment
            # has constant value equal to its left endpoint's, already > v.
            return c / (v - slope)
    return 1.0


def monopoly(curve: RevenueCurve) -> tuple[float, float]:
    """Peak of the curve as (q*, R*); ties resolve to the smallest q.

    The equal_revenue supremum sits at q -> 0, reported as (EPS_MIN, scale).
    """
    if curve.scale:
        return (EPS_MIN, curve.scale)
    t = curve.table
    best_r = max(t.rs)
    return (t.qs[t.rs.index(best_r)], best_r)


def monopoly_reserve(curve: RevenueCurve) -> float:
    """Price attaining the monopoly revenue: value at the curve's peak."""
    q_star, _ = monopoly(curve)
    return value(curve, max(q_star, EPS_MIN))


def virtual_value(curve: RevenueCurve, q: float) -> float:
    """Right-derivative of Rev at q in (0,1); kinks resolve rightward."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"virtual value defined on (0,1), got q={q}")
    return slope_at(curve, q)


def slope_at(curve: RevenueCurve, q: float) -> float:
    """Right-derivative extended to [0,1] (q=1 uses the final slope)."""
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q={q} outside [0,1]")
    t = curve.table
    return t.segments[min(max(bisect_right(t.qs, q) - 1, 0), len(t.qs) - 2)][2]


def sample_value(curve: RevenueCurve, u: float) -> float:
    """Inverse-quantile sample: the value at quantile max(u, EPS_MIN).

    Quantiles of i.i.d. draws are uniform, so feeding u ~ U[0,1) here draws
    from the curve's distribution; the clamp keeps unbounded curves finite.
    This is the sampler's value of u bit for bit: a first-segment draw reads
    the slope exactly, and any other the segment expression of rev.
    """
    if not (0.0 <= u < 1.0):
        raise DomainError(f"uniform draw must be in [0,1), got {u}")
    return value(curve, max(u, EPS_MIN))


def kink_values(curve: RevenueCurve) -> tuple[float, ...]:
    """Finite values where q(v) kinks or jumps (atom and breakpoint values).

    Between two consecutive kink values q(v) is one value_piece, so
    quadrature cuts its panels here and reads each panel's piece once.
    They are computed once per curve and kept on its table.
    """
    t = curve.table
    if t.kinks is None:
        t.kinks = (curve.scale,) if curve.scale else tuple(
            sorted(v for v in {value(curve, q) for q in t.qs} if v > 0.0))
    return t.kinks


def rev_dominates(a: RevenueCurve, b: RevenueCurve) -> bool:
    """Pointwise Rev_a >= Rev_b on (0,1], checked at the merged breakpoints.

    Both curves are linear between consecutive merged breakpoints (EPS_MIN
    stands in for 0), so the check is exact up to float noise.
    """
    qs = {EPS_MIN, 1.0}
    qs.update(q for q, _ in a.breakpoints if q > 0.0)
    qs.update(q for q, _ in b.breakpoints if q > 0.0)
    return all(rev(a, q) >= rev(b, q) - 1e-12 for q in qs)
