"""Ex ante revenue relaxation: max sum_i Rev_i(q_i) s.t. sum q_i <= k, q_i in [0,1].

The objective is separable and concave, and every curve is piecewise linear
in quantile space, so the exact optimum is a water-fill over positive-slope
segments in decreasing slope order.  The slope at which the budget runs out
is the dual multiplier; ties across bidders fill in index order, which keeps
solutions deterministic.

Weak duality certifies it: for any lam >= 0, lam*k + sum_i max_q (Rev_i(q) -
lam*q) bounds the optimum, and equality at the reported ``dual`` certifies
both ``opt`` and ``dual`` (``verify.exante_dual_bound``, which reads an
unbounded curve as the sliver below).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import curves as cv
from .errors import NonConvergence, check_rank


@dataclass(frozen=True)
class ExAnteSolution:
    quantiles: tuple[float, ...]
    opt: float
    k: int
    dual: float


def _positive_segments(curve: cv.RevenueCurve, index: int):
    """Yield (slope, index, q_lo, width) for the rising part of the curve.

    The equal_revenue supremum lives at q -> 0; it enters as a single sliver
    of width EPS_MIN whose effective slope rev(EPS_MIN)/EPS_MIN dwarfs any
    bounded curve's slope, so it is always filled first.
    """
    if cv.is_unbounded(curve):
        r = cv.rev(curve, cv.EPS_MIN)
        return [(r / cv.EPS_MIN, index, 0.0, cv.EPS_MIN)]
    out = []
    for q0, q1, slope, _ in cv.segments(curve):
        if slope <= 0.0:
            break  # concavity: slopes only decrease from here
        out.append((slope, index, q0, q1 - q0))
    return out


def solve_exante(profile: cv.BidderProfile, k: int = 1) -> ExAnteSolution:
    """Exact optimum of the ex ante program with k items."""
    check_rank("k", k)

    peaks = []
    for c in profile.curves:
        q_star, _ = cv.monopoly(c)
        peaks.append(max(q_star, cv.EPS_MIN) if cv.is_unbounded(c) else q_star)

    if sum(peaks) <= k:
        quantiles = tuple(peaks)
        opt = sum(cv.rev(c, q) for c, q in zip(profile.curves, quantiles))
        return ExAnteSolution(quantiles, opt, k, 0.0)

    segs = []
    for i, c in enumerate(profile.curves):
        segs.extend(_positive_segments(c, i))
    # Highest slope first; ties fill the lowest bidder index, lowest q first.
    segs.sort(key=lambda s: (-s[0], s[1], s[2]))

    alloc = [0.0] * profile.n
    budget = float(k)
    dual = 0.0
    for slope, i, _, width in segs:
        if budget <= 0.0:
            break
        take = min(width, budget)
        alloc[i] += take
        budget -= take
        dual = slope

    quantiles = tuple(min(q, 1.0) for q in alloc)
    if sum(quantiles) > k + 1e-9 or any(q < 0.0 for q in quantiles):
        raise NonConvergence("water-fill produced an infeasible allocation")
    opt = sum(cv.rev(c, q) for c, q in zip(profile.curves, quantiles))
    return ExAnteSolution(quantiles, opt, k, dual)


def exante_triangle_reduction(
    profile: cv.BidderProfile, solution: ExAnteSolution
) -> cv.BidderProfile:
    """Replace each curve by the triangle peaking at (q_i, Rev_i(q_i)).

    Re-solving the reduced profile reproduces the quantiles and objective;
    bidders allocated nothing degenerate to a worthless point mass.
    """
    reduced = []
    for c, q in zip(profile.curves, solution.quantiles):
        r = cv.rev(c, q)
        if q <= 0.0 or r <= 0.0:
            reduced.append(cv.make_point_mass(0.0))
        else:
            reduced.append(cv.make_triangle(q, r))
    return cv.BidderProfile(tuple(reduced), profile.names)
