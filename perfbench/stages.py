"""Stage table of the sampling pipeline, measured from public entry points only.

Each stage is the difference of two public calls on the same draws:

* values: a one-bidder ``spa`` (the kernel returns zeros) minus ``uniforms``
  called chunk by chunk, as ``sample_revenues`` calls it;
* kernel: ``sample_revenues`` minus n * (uniforms + values of each curve);
* summary: ``estimate_revenue`` minus ``sample_revenues``.

Each timing is the fastest of a few repetitions, which filters out pauses
from other load on the host; a difference can still come out slightly
negative when a stage is cheaper than the noise of the two calls around it,
and is reported as measured.  The worker-pool figure compares ``workers=0`` with
``workers=nproc``; every workload runs with ``workers=0``, so its
prediction for the workloads is no change.
"""

from __future__ import annotations

import os
from time import perf_counter

from dupkit import analysis, curves as cv, duplication as dup, exante, simulate as sim
from dupkit.mechanisms import NO_CONSTRAINT, PairConstraint
from workloads import CHUNK

MECHANISMS = ("spa", "vcg", "vcg_constrained", "myerson", "lookahead", "spald", "posted")
KINDS = ("triangle", "point_mass", "piecewise", "equal_revenue")
WORKERS_PREDICTION = "no change on any workload: every workload runs with workers=0"


def kind_curve(kind: str) -> cv.RevenueCurve:
    if kind == "triangle":
        return cv.make_triangle(0.4, 0.6)
    if kind == "point_mass":
        return cv.make_point_mass(0.7)
    if kind == "piecewise":
        return cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.5, 0.45), (0.8, 0.4), (1.0, 0.2)])
    return cv.make_equal_revenue(0.5)


def mixed(n: int) -> cv.BidderProfile:
    return cv.make_profile([kind_curve(KINDS[i % len(KINDS)]) for i in range(n)])


def kernel_args(mechanism: str, n: int):
    """(constraint, params) for a mechanism on an n-bidder profile."""
    params = {}
    con = NO_CONSTRAINT
    if mechanism in ("vcg", "vcg_constrained"):
        params["k"] = 1 if n == 2 else 2
    if mechanism == "vcg_constrained":
        con = PairConstraint(tuple((i, i + 1) for i in range(0, min(n, 4), 2)))
    if mechanism == "posted":
        params["prices"] = [0.5] * n
    return con, params


def best_times(fns, reps: int) -> list:
    """Fastest of `reps` timings of each function, run in turn so drift hits all alike."""
    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, acc in zip(fns, times):
            t0 = perf_counter()
            fn()
            acc.append(perf_counter() - t0)
    return [min(acc) for acc in times]


def best_time(fn, reps: int) -> float:
    return best_times([fn], reps)[0]


def stage_table(n_draws: int = 1 << 17, reps: int = 5, quick_reps: int = 50,
                pool_reps: int = 3, pool_draws: int = 2_000_000,
                pool_bsd_draws: int = 20_000) -> dict:
    """{metric name: (value, unit)} for every stage.* figure."""
    out = {}
    per_draw = 1e9 / n_draws

    def put(name, value, unit):
        out[name] = (value, unit)

    def spa_one(kind):
        one = cv.make_profile([kind_curve(kind)])
        return lambda: sim.sample_revenues(one, NO_CONSTRAINT, "spa", n_draws, 7)

    chunks = [(lo, min(lo + CHUNK, n_draws)) for lo in range(0, n_draws, CHUNK)]
    t_u, *t_one = best_times(
        [lambda: [sim.uniforms(7, 0, lo, hi) for lo, hi in chunks]] + [spa_one(k) for k in KINDS],
        reps,
    )
    t_u *= per_draw
    put("stage.uniforms.ns_per_draw", t_u, "ns/draw")
    values = {kind: t * per_draw - t_u for kind, t in zip(KINDS, t_one)}
    for kind in KINDS:
        put(f"stage.values.{kind}.ns_per_draw", values[kind], "ns/draw")

    def kernel(prof, mechanism):
        con, params = kernel_args(mechanism, prof.n)
        return lambda: sim.sample_revenues(prof, con, mechanism, n_draws, 7, **params)

    for n in (2, 4, 8):
        prof = mixed(n)
        feed = sum(t_u + values[KINDS[i % len(KINDS)]] for i in range(n))
        times = best_times([kernel(prof, m) for m in MECHANISMS], reps)
        for mechanism, t in zip(MECHANISMS, times):
            put(f"stage.kernel.{mechanism}.n{n}.ns_per_draw", t * per_draw - feed, "ns/draw")

    p4 = mixed(4)
    t_s, *t_est = best_times(
        [lambda: sim.sample_revenues(p4, NO_CONSTRAINT, "spa", n_draws, 7)]
        + [lambda est=est: sim.estimate_revenue(p4, NO_CONSTRAINT, "spa", n_draws, 7, est)
           for est in ("plain", "median_of_means")],
        reps,
    )
    for est, t in zip(("plain", "median_of_means"), t_est):
        put(f"stage.summary.{est}.ns_per_draw", (t - t_s) * per_draw, "ns/draw")

    t = best_time(lambda: sim.sample_revenues(p4, NO_CONSTRAINT, "spa", 1, 7), quick_reps)
    put("stage.call_overhead_us", t * 1e6, "us")

    lbhr_both = cv.make_profile([cv.make_triangle(1.0, 1.0), cv.make_equal_revenue(1.0)] * 2)
    t = best_time(lambda: sim.mechanism_revenue_quadrature(lbhr_both, 1), reps)
    put("stage.quadrature.lbhr_ms", t * 1e3, "ms")
    p12 = mixed(12)
    t = best_time(lambda: exante.solve_exante(p12, 1), quick_reps)
    put("stage.solve_exante.n12_us", t * 1e6, "us")
    for n in (6, 12, 24):
        probs = [(i + 1) / (n + 2) for i in range(n)]
        t = best_time(lambda: analysis.poisson_binomial(probs), quick_reps)
        put(f"stage.poisson_binomial.n{n}_us", t * 1e6, "us")

    nproc = len(os.sched_getaffinity(0))
    for name, call in (
        ("sample_revenues", lambda w: sim.sample_revenues(
            p4, NO_CONSTRAINT, "spa", pool_draws, 7, workers=w)),
        ("best_single_duplicate", lambda w: dup.best_single_duplicate(
            mixed(6),
            lambda prof, con: sim.estimate_revenue(prof, con, "spa", pool_bsd_draws, 7).mean,
            workers=w)),
    ):
        t0, tn = best_times([lambda: call(0), lambda: call(nproc)], pool_reps)
        put(f"stage.workers.{name}.workers0_s", t0, "s")
        put(f"stage.workers.{name}.workers_nproc_s", tn, "s")
        put(f"stage.workers.{name}.speedup", t0 / tn, "ratio")
    return out
