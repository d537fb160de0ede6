"""Seeded random instance generators for sweeps and property tests."""

from __future__ import annotations

import random

from . import curves as cv
from .errors import check_rank


def random_triangle(rng: random.Random) -> cv.RevenueCurve:
    return cv.make_triangle(rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0))


def random_profile(n: int, rng: random.Random, allow_unbounded: bool = True) -> cv.BidderProfile:
    """n independent bidders: triangles, with ER curves mixed in at rate 0.2.

    Triangles span the worst cases (every concave curve revenue-dominates
    its inscribed triangle), and the ER mix exercises heavy tails.
    """
    check_rank("n", n)
    curves = []
    for _ in range(n):
        if allow_unbounded and rng.random() < 0.2:
            curves.append(cv.make_equal_revenue(rng.uniform(0.1, 1.0)))
        else:
            curves.append(random_triangle(rng))
    return cv.make_profile(curves)


def random_concave_curve(rng: random.Random) -> cv.RevenueCurve:
    """Piecewise-linear concave curve through (0,0) with 1-3 pieces per leg.

    Rising slopes are sampled, sorted decreasing, and rescaled to hit a
    random peak; falling slopes likewise rescaled to land on a random final
    revenue, so concavity holds by construction.
    """
    peak_q = rng.uniform(0.1, 0.9)
    peak_r = rng.uniform(0.1, 1.0)
    end_r = rng.uniform(0.0, peak_r)

    def leg(q_lo, q_hi, r_lo, r_hi, pieces):
        """Concave breakpoints from (q_lo,r_lo) to (q_hi,r_hi), exclusive of start."""
        qs = sorted(rng.uniform(q_lo, q_hi) for _ in range(pieces - 1))
        qs = [q_lo] + qs + [q_hi]
        widths = [b - a for a, b in zip(qs, qs[1:])]
        # scale flips sign on the falling leg, so pre-sort ascending there
        # to keep the final slope sequence decreasing
        raw = sorted((rng.uniform(0.1, 1.0) for _ in widths), reverse=r_hi > r_lo)
        scale = (r_hi - r_lo) / sum(s * w for s, w in zip(raw, widths))
        pts = []
        r = r_lo
        for q, s, w in zip(qs[1:], raw, widths):
            r += s * scale * w
            pts.append((q, r))
        pts[-1] = (q_hi, r_hi)  # absorb float drift at the endpoint
        return pts

    points = [(0.0, 0.0)]
    points += leg(0.0, peak_q, 0.0, peak_r, rng.randint(1, 3))
    if end_r < peak_r:
        points += leg(peak_q, 1.0, peak_r, end_r, rng.randint(1, 3))
    else:
        points.append((1.0, peak_r))
    return cv.make_piecewise(points)
