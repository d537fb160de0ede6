"""Worked examples with exact answers, and the two-triangle ratio analysis.

The flagship instance pairs a deterministic bidder (a point mass at 1,
encoded as the peak_q=1 triangle) with an equal-revenue bidder of scale 1.
Its ex ante optimum approaches 2 while every duplicate experiment lands
strictly below: 1.5 with both bidders duplicated, ln 4 duplicating only the
second, and exactly 1 duplicating only the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from .duplication import all_once, extend_profile
from .errors import DomainError, DominanceViolation
from .exante import solve_exante
from .mechanisms import NO_CONSTRAINT
from .simulate import Estimate, estimate_revenue, mechanism_revenue_quadrature, paired_compare

# Fewest steps min_ratio_two_triangles accepts.
MIN_GRID_STEPS = 100


@dataclass(frozen=True)
class LbHrReport:
    exante_opt: float
    spa_all_duplicates: float
    spa_dup_bidder1: float
    spa_dup_bidder2: float


def lbhr_profile() -> cv.BidderProfile:
    return cv.make_profile(
        [cv.make_triangle(1.0, 1.0), cv.make_equal_revenue(1.0)], names=("point", "tail")
    )


def lbhr_duplicates() -> tuple:
    """(profile, exact SPA revenue) of the flagship pair with both bidders
    duplicated, only the first, and only the second."""
    base = lbhr_profile()
    return (
        (extend_profile(base, all_once())[0], 1.5),
        (cv.make_profile([*base.curves, base.curves[0]]), 1.0),
        (cv.make_profile([*base.curves, base.curves[1]]), math.log(4.0)),
    )


def example_lbhr() -> LbHrReport:
    """The flagship pair, every revenue via quadrature (no sampling)."""
    revs = [mechanism_revenue_quadrature(prof, k=1) for prof, _ in lbhr_duplicates()]
    return LbHrReport(solve_exante(lbhr_profile(), k=1).opt, *revs)


def n3_profile() -> cv.BidderProfile:
    return cv.make_profile(
        [cv.make_equal_revenue(1.0), cv.make_triangle(0.5, 0.5), cv.make_triangle(0.5, 0.5)]
    )


def example_n3(n_samples: int = 1_000_000, seed: int = 7):
    """Three bidders whose duplicate SPA stays strictly below 3/4 of opt.

    Returns (exante_opt, Estimate of the six-bidder SPA revenue).  The gap
    claim is strict, so consumers should check mean + 4*stderr < 1.5 rather
    than the point estimate.
    """
    base = n3_profile()
    opt = solve_exante(base, k=1).opt
    both, _ = extend_profile(base, all_once())
    est = estimate_revenue(both, NO_CONSTRAINT, "spa", n_samples, seed)
    return opt, est


def ratio_two_triangles(q1: float, r1: float, q2: float, r2: float) -> float:
    """Lookahead revenue as a fraction of the ex ante optimum, two triangles.

    Ordering puts the higher peak value first; with a = R2/R1 the fraction
    is (R1 + R2*s)/(R1 + R2) where s = a(1-q1)/(q2 + (1-q1)a).
    """
    for q, r in ((q1, r1), (q2, r2)):
        if not (0.0 < q <= 1.0 and r > 0.0):
            raise DomainError(f"triangle needs q in (0,1] and R > 0, got ({q}, {r})")
    if r1 / q1 < r2 / q2:
        q1, r1, q2, r2 = q2, r2, q1, r1
    a = r2 / r1
    s = a * (1.0 - q1) / (q2 + (1.0 - q1) * a)
    return (r1 + r2 * s) / (r1 + r2)


def min_ratio_two_triangles(grid_steps: int = 1000):
    """Grid minimum of the two-triangle ratio along the worst-case slice.

    The slice q2 = 1-q1 makes the ratio depend only on a = R2/R1, where it
    falls to exactly 3/4 at a = 1.  The 1-q1 factors cancel, so every row
    of the (q1, a) grid is the same up to rounding, and only the row
    q1 = 1/grid_steps is evaluated, in O(grid_steps) memory: the whole
    grid's first minimum lies in it.  Returns (min_ratio, {"q1", "alpha"}).
    """
    if grid_steps < MIN_GRID_STEPS:
        raise DomainError(f"grid_steps must be >= {MIN_GRID_STEPS}, got {grid_steps}")
    q1 = 1 / grid_steps
    a = np.arange(1, grid_steps + 1) / grid_steps  # (0,1] includes a = 1
    one_minus = 1.0 - q1
    s = a * one_minus / (one_minus + one_minus * a)
    ratio = (1.0 + a * s) / (1.0 + a)
    j = np.argmin(ratio)
    return float(ratio[j]), {"q1": q1, "alpha": float(a[j])}


def spa_flat_check(curve_pair, n_samples: int, seed: int) -> bool:
    """Replacing a bidder by a revenue-dominated curve cannot help the SPA.

    Runs [a, a] against [a, b] with common random numbers and accepts when
    the revenue drop is nonnegative within 3 standard errors.
    """
    a, b = curve_pair
    if not cv.rev_dominates(a, b):
        raise DominanceViolation("second curve is not revenue-dominated by the first")
    original = cv.make_profile([a, a])
    replaced = cv.make_profile([a, b])
    diff: Estimate = paired_compare(
        original, replaced, NO_CONSTRAINT, NO_CONSTRAINT, "spa", n_samples, seed
    )
    return diff.mean >= -3.0 * diff.stderr
