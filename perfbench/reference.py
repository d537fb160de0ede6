"""Fixed reference kernels that time the host, not dupkit.

The host this benchmark was tuned on drifts by up to a quarter in speed
between runs a minute apart, for numpy and pure-Python work alike, and on
a scale of seconds.  After every op the benchmark therefore also times one
run of a kernel that never changes with dupkit: a frozen, simplified copy of
the work the workload does (counter hashing, value lookup, a second-highest
reduction and a median-of-means summary for the Monte Carlo workloads; an
adaptive-Simpson quadrature of Poisson-binomial tails for ``exact``).  Dividing
a run's timings by its kernel time per round cancels most of the
drift; the raw seconds are reported as well.
"""

from __future__ import annotations

import math

import numpy as np

_U = np.uint64
_QS = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
_RS = np.array([0.0, 0.3, 0.45, 0.4, 0.2])
_SLOPES = np.diff(_RS) / np.diff(_QS)
_CHUNK = 1 << 16


def _mix(z):
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def sampling_kernel(n_draws: int, n_bidders: int = 4) -> float:
    """Second-highest of hashed draws through a piecewise curve, then median of means."""
    out = np.empty(n_draws)
    with np.errstate(over="ignore"):
        for lo in range(0, n_draws, _CHUNK):
            counters = np.arange(lo, min(lo + _CHUNK, n_draws), dtype=np.uint64)
            rows = []
            for b in range(n_bidders):
                z = _mix(_U(b + 1) * _U(0x9E6C63D0876A9A63) + _U(0x9E3779B97F4A7C15) * counters)
                u = np.maximum((z >> _U(11)).astype(np.float64) * 2.0**-53, 1e-12)
                j = np.clip(np.searchsorted(_QS, u, side="right") - 1, 0, len(_SLOPES) - 1)
                rows.append((_RS[j] + _SLOPES[j] * (u - _QS[j])) / u)
            out[lo:lo + counters.shape[0]] = np.partition(np.stack(rows), n_bidders - 2, axis=0)[-2]
    blocks = math.isqrt(n_draws - 1) + 1
    return float(np.median([b.mean() for b in np.array_split(out, blocks)]))


class _Segment:
    __slots__ = ("q0", "q1", "slope", "c")

    def __init__(self, q0, r0, q1, r1):
        self.q0, self.q1 = q0, q1
        self.slope = (r1 - r0) / (q1 - q0)
        self.c = r0 - self.slope * q0


def _curve(points):
    segs = [_Segment(q0, r0, q1, r1) for (q0, r0), (q1, r1) in zip(points, points[1:])]
    return segs, points[-1][1], segs[0].slope  # value range: [rev(1), slope at 0]


_CURVES = [
    _curve([(0.0, 0.0), (0.2, 0.3), (0.5, 0.45), (0.8, 0.4), (1.0, 0.2)]),
    _curve([(0.0, 0.0), (0.4, 0.6), (1.0, 0.0)]),
    _curve([(0.0, 0.0), (0.1, 0.2), (0.3, 0.35), (1.0, 0.5)]),
    _curve([(0.0, 0.0), (0.6, 0.5), (1.0, 0.3)]),
    _curve([(0.0, 0.0), (0.25, 0.4), (0.7, 0.55), (1.0, 0.45)]),
    _curve([(0.0, 0.0), (1.0, 0.7)]),
]


def _quantile_of_value(curve, v):
    segs, floor, top = curve
    if v <= floor:
        return 1.0
    if v > top:
        return 0.0
    for seg in segs:
        if v > seg.slope + seg.c / seg.q1:
            return seg.c / (v - seg.slope)
    return 1.0


def _tail_at_least(probs, r):
    pmf = [1.0]
    for p in probs:
        nxt = [0.0] * (len(pmf) + 1)
        for s, mass in enumerate(pmf):
            nxt[s] += mass * (1.0 - p)
            nxt[s + 1] += mass * p
        pmf = nxt
    return math.fsum(pmf[r:])


def _simpson(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth > 40 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(g, a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
            + _simpson(g, m, b, fm, frm, fb, right, tol / 2.0, depth + 1))


def scalar_kernel(tol: float = 1e-7, rank: int = 2) -> float:
    """E[rank-th highest value] of a fixed profile: adaptive Simpson over t =
    x/(1-x) of exact Poisson-binomial tails, each node inverting every curve
    by a scan of its segments (the shape of the exact workload's quadrature)."""

    def g(x):
        if x >= 1.0:
            return 0.0
        t = x / (1.0 - x)
        probs = [_quantile_of_value(c, t) for c in _CURVES]
        return _tail_at_least(probs, rank) / ((1.0 - x) * (1.0 - x))

    fa, fm, fb = g(0.0), g(0.5), g(1.0)
    return _simpson(g, 0.0, 1.0, fa, fm, fb, (fa + 4.0 * fm + fb) / 6.0, tol, 0)


# One kernel per workload, run after each op; a round's runs together take
# about a tenth to a quarter of the round's own time.
KERNELS = {
    "mc_large": lambda: sampling_kernel(1 << 17),
    "mc_sweep": lambda: sampling_kernel(1 << 16),
    "exact": lambda: scalar_kernel(tol=1e-3),
}
