"""The three workloads: seeded inputs, the timed ops, and their oracles.

Every input is built here from ``random.Random`` and dupkit's public
``make_*`` constructors, never from ``dupkit.instances``, so a change to the
package cannot change what is measured.  Ops call dupkit through module
attributes at call time (``sim.estimate_revenue``), so the tracer's wrappers
see them.  Each round draws fresh instances from (seed, round), so a cache
keyed on curve values cannot turn later rounds into repeats of the first.

Why these workloads:

* ``mc_large``: 10^6 draws per call on fixed and seeded profiles, the shape
  of acceptance criteria 2, 8 and 9 and of the headline ``dupkit simulate``.
  Draws dominate, so uniforms, the value transforms, the mechanism kernels
  and the median-of-means summary carry their real share.
* ``mc_sweep``: small random instances at the call sizes of criteria 3 and
  5 (2*10^4 and 4*10^4 draws, single partial chunks).  Per-call set-up and
  search glue are a larger share here, so cost moved into set-up shows.
* ``exact``: scalar quadrature, water-filling, classifiers and curve
  queries (criteria 1, 6 and 7) with zero Monte Carlo draws.

Oracles run outside the timed region.  An op fails when it raises or when
any oracle finds a problem; ``cover`` records (estimate, exact) pairs that
feed ``cover_miss_frac`` and are not failures: the median-of-means default
on heavy-tailed profiles is known to be biased low at this version.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dupkit import analysis, cli, curves as cv, duplication as dup, exante, simulate as sim
from dupkit import mechanisms as mech

LN4 = math.log(4.0)
QUAD_TOL = 1e-6
PATH_ATOL = 1e-9
# summation order may change; a wrong mean or a skipped path may not
SUMMARY_RTOL = 1e-9
SLICE = 32
CHUNK = 1 << 16  # sample_revenues draws in chunks of this size
QUERY_QS = (0.01, 0.05, 0.13, 0.25, 0.4, 0.5, 0.62, 0.77, 0.9, 1.0)


@dataclass(frozen=True)
class Scale:
    """Call sizes; the self-test shrinks them, the benchmark uses FULL."""

    mc_large_draws: int = 1_000_000
    sweep_bsd_draws: int = 20_000
    sweep_draws: int = 40_000
    sweep_n: tuple = (2, 3, 4, 5, 6)
    exact_n: tuple = tuple(range(1, 13))


FULL = Scale()
# Warm-up size: one call per code path at a size that costs little.
SMALL = Scale(
    mc_large_draws=2_000, sweep_bsd_draws=500, sweep_draws=1_000, sweep_n=(2, 3), exact_n=(1, 2, 3)
)


@dataclass
class Call:
    """One call into a sampling entry point, kept for the pathwise oracle."""

    entry: str  # "estimate", "sample" or "paired"
    profiles: tuple
    constraints: tuple
    mechanism: str
    n_samples: int
    seed: int
    params: dict
    result: object


class Sampling:
    """Times the benchmark's own calls into simulate's sampling entry points."""

    def __init__(self):
        self.draws = 0
        self.seconds = 0.0
        self.calls = []

    def _timed(self, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += perf_counter() - t0
        return out

    def estimate(self, profile, con, mechanism, n, seed, **params):
        est = self._timed(sim.estimate_revenue, profile, con, mechanism, n, seed, **params)
        self.draws += n
        self.calls.append(Call("estimate", (profile,), (con,), mechanism, n, seed, params, est))
        return est

    def sample(self, profile, con, mechanism, n, seed, **params):
        rev = self._timed(sim.sample_revenues, profile, con, mechanism, n, seed, **params)
        self.draws += n
        self.calls.append(Call("sample", (profile,), (con,), mechanism, n, seed, params, rev))
        return rev

    def paired(self, pa, pb, ca, cb, mechanism, n, seed, **params):
        est = self._timed(sim.paired_compare, pa, pb, ca, cb, mechanism, n, seed, **params)
        self.draws += 2 * n
        self.calls.append(Call("paired", (pa, pb), (ca, cb), mechanism, n, seed, params, est))
        return est


@dataclass
class Notes:
    """Findings that are shown but are not failed ops.

    ``cover``: (mean, stderr, exact) of each estimate with a quadrature
    value.  ``rev_end``: per checked curve, whether rev(c, 1.0) reads below
    0 (float rounding in rev's interpolation at its last breakpoint).
    ``ref_floor`` of ``path_draws``: pathwise-checked draws on which the
    scalar myerson reference, not the kernel, is off (see ``check_call``).
    ``above_sup`` of ``queries``: curve queries whose value(c, q) reads a
    few ulps above the curve's supremum value(c, 0), so that inverting it
    gives quantile 0 (see ``check_queries``).
    """

    cover: list = field(default_factory=list)
    rev_end: list = field(default_factory=list)
    ref_floor: int = 0
    path_draws: int = 0
    above_sup: int = 0
    queries: int = 0


@dataclass
class Op:
    kind: str
    run: object  # (Sampling) -> result, timed
    check: object  # (result, calls, notes) -> list of problems, untimed


# ---------------------------------------------------------------- inputs


def rand_triangle(rng):
    return cv.make_triangle(rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0))


def rand_point_mass(rng):
    return cv.make_point_mass(rng.uniform(0.1, 1.0))


def rand_equal_revenue(rng):
    return cv.make_equal_revenue(rng.uniform(0.1, 1.0))


def rand_piecewise(rng):
    """Chords of Rev(q) = a*q - b*q^2 at random breakpoints: concave by construction."""
    a = rng.uniform(0.3, 2.0)
    b = rng.uniform(0.0, a)
    qs = sorted({round(rng.uniform(0.02, 0.98), 6) for _ in range(rng.randint(1, 4))})
    return cv.make_piecewise([(0.0, 0.0)] + [(q, a * q - b * q * q) for q in qs] + [(1.0, a - b)])


KIND_MAKERS = {
    "triangle": rand_triangle,
    "point_mass": rand_point_mass,
    "piecewise": rand_piecewise,
    "equal_revenue": rand_equal_revenue,
}


def mixed_profile(rng, kinds):
    kinds = list(kinds)
    rng.shuffle(kinds)
    return cv.make_profile([KIND_MAKERS[k](rng) for k in kinds])


def random_instance(rng, n, bounded_kinds, er_prob=0.2):
    curves = []
    for _ in range(n):
        kind = "equal_revenue" if rng.random() < er_prob else rng.choice(bounded_kinds)
        curves.append(KIND_MAKERS[kind](rng))
    return cv.make_profile(curves)


def lbhr_profile():
    return cv.make_profile([cv.make_triangle(1.0, 1.0), cv.make_equal_revenue(1.0)])


def lbhr_variants():
    """(name, profile, exact SPA revenue): both, point and tail duplicated."""
    base = lbhr_profile()
    point, tail = base.curves
    return (
        ("both", cv.make_profile([point, tail, point, tail]), 1.5),
        ("point", cv.make_profile([point, tail, point]), 1.0),
        ("tail", cv.make_profile([point, tail, tail]), LN4),
    )


def n3_six_profile():
    er, tri = cv.make_equal_revenue(1.0), cv.make_triangle(0.5, 0.5)
    return cv.make_profile([er, tri, tri, er, tri, tri])


def round_rng(seed: int, rnd: int) -> random.Random:
    return random.Random(seed * 1_000_003 + rnd)


# ---------------------------------------------------------------- oracles


def scalar_revenues(profile, con, mechanism, seed, lo, hi, params, snap_floor=False):
    """Reference revenues for samples [lo, hi): scalar mechanisms on scalar draws.

    ``snap_floor`` raises each bid to its curve's support floor value(c, 1);
    it is used only to attribute a myerson mismatch to the reference (see
    ``check_call``), never to pass a check.
    """
    nb = profile.n
    u = [sim.uniforms(seed, i, lo, hi) for i in range(nb)]
    if mechanism == "spald":
        du = [sim.uniforms(seed, nb + i, lo, hi) for i in range(nb)]
    floors = [cv.value(c, 1.0) if snap_floor else 0.0 for c in profile.curves]
    out = []
    for t in range(hi - lo):
        vals = [max(cv.sample_value(c, float(u[i][t])), floors[i])
                for i, c in enumerate(profile.curves)]
        if mechanism == "spa":
            res = mech.run_spa(vals)
        elif mechanism == "vcg":
            res = mech.run_vcg_k(vals, params["k"])
        elif mechanism == "vcg_constrained":
            res = mech.run_vcg_constrained(vals, params["k"], con)
        elif mechanism == "myerson":
            res = mech.run_myerson_single(profile, vals)
        elif mechanism == "lookahead":
            res = mech.run_lookahead(profile, vals)
        elif mechanism == "spald":
            top = min(range(nb), key=lambda i: (-vals[i], i))
            res = mech.run_spald(profile, vals, float(du[top][t]))
        elif mechanism == "posted":
            res = mech.run_posted(params["prices"], vals)
        else:
            raise ValueError(f"no scalar reference for {mechanism!r}")
        out.append(res.revenue)
    return np.array(out)


def slices_for(n):
    """Fixed slices of draws checked pathwise: one at the start, or straddling
    the first chunk boundary when there is one, and the last SLICE draws,
    which sit in the final (partial) chunk."""
    lo = CHUNK - SLICE // 2 if n >= CHUNK + SLICE // 2 else 0
    first = (lo, min(lo + SLICE, n))
    last = (max(n - SLICE, first[1]), n)
    return [first, last] if last[0] < last[1] else [first]


def _scalar(call, lo, hi, snap_floor=False):
    slow = None
    for prof, con in zip(call.profiles, call.constraints):
        part = scalar_revenues(prof, con, call.mechanism, call.seed, lo, hi, call.params,
                               snap_floor)
        slow = part if slow is None else slow - part
    return slow


def summarize(rev, estimator):
    """(mean, stderr, blocks) of a revenue array, by the estimator's definition."""
    n = rev.shape[0]
    if estimator == "plain":
        return float(rev.mean()), float(rev.std(ddof=1) / math.sqrt(n)), 0
    blocks = math.isqrt(n - 1) + 1
    means = np.array([b.mean() for b in np.array_split(rev, blocks)])
    return float(np.median(means)), float(means.std(ddof=1) / math.sqrt(blocks)), blocks


def _revenues(call):
    """The call's full revenue array, recomputed untimed (rev_a - rev_b when paired)."""
    rev = None
    for prof, con in zip(call.profiles, call.constraints):
        part = sim.sample_revenues(prof, con, call.mechanism, call.n_samples, call.seed,
                                   **call.params)
        if rev is None:
            rev = part
        else:
            rev -= part
    return rev


def _estimate_problems(call, rev) -> list:
    """The Estimate must be the summary of the call's own revenue array."""
    est = call.result
    heavy = any(cv.has_unbounded(p) for p in call.profiles)
    want = "median_of_means" if heavy else "plain"
    mean, stderr, blocks = summarize(rev, want)
    problems = []
    if (est.n_samples, est.seed, est.estimator, est.blocks) != (
        call.n_samples, call.seed, want, blocks
    ):
        problems.append(f"{call.mechanism}: estimate metadata {est}")
    for name, got, ref in (("mean", est.mean, mean), ("stderr", est.stderr, stderr)):
        if not math.isclose(got, ref, rel_tol=SUMMARY_RTOL, abs_tol=1e-12):
            problems.append(f"{call.mechanism}: estimate {name} {got!r} != summary {ref!r}")
    return problems


def check_call(call: Call, notes: Notes) -> list:
    """Pathwise oracle for one sampling call, plus the Estimate's own summary.

    The revenue array is the call's result for ``sample``, and is recomputed
    untimed for ``estimate`` and ``paired``; its fixed slices must match the
    scalar mechanisms, and an Estimate must equal that array's summary.

    A myerson mismatch is the reference's, not the kernel's, when snapping
    the bids to the support floor makes the reference agree: a point-mass
    draw reads one ulp under value(c, 1.0), and run_myerson_single then
    gives that bidder virtual value -inf.  Those draws are counted in
    ``notes.ref_floor`` and shown; any other mismatch fails the op.
    """
    problems = []
    if call.entry == "sample":
        rev = call.result
    else:
        rev = _revenues(call)
    if rev.shape != (call.n_samples,) or not np.all(np.isfinite(rev)):
        return [f"{call.mechanism}: revenue array malformed"]
    if call.entry != "paired" and rev.min() < 0.0:
        problems.append(f"{call.mechanism}: negative revenue {rev.min()!r}")
    if call.entry != "sample":
        problems += _estimate_problems(call, rev)
    for lo, hi in slices_for(call.n_samples):
        fast = rev[lo:hi]
        slow = _scalar(call, lo, hi)
        notes.path_draws += hi - lo
        off = ~np.isclose(fast, slow, atol=PATH_ATOL, rtol=0.0)
        if off.any() and call.mechanism == "myerson" and np.allclose(
            fast, _scalar(call, lo, hi, snap_floor=True), atol=PATH_ATOL, rtol=0.0
        ):
            notes.ref_floor += int(off.sum())
        elif off.any():
            bad = int(np.argmax(off))
            problems.append(
                f"{call.mechanism}: draw {lo + bad} kernel {fast[bad]!r} != scalar {slow[bad]!r}"
            )
    return problems


def check_calls(calls, notes: Notes) -> list:
    problems = []
    for call in calls:
        problems += check_call(call, notes)
    return problems


def check_answer(result, calls, notes: Notes) -> list:
    """Oracle for an op that is exactly one sampling call returning `result`."""
    if len(calls) != 1:
        return [f"expected one sampling call, saw {len(calls)}"]
    return check_call(dataclasses.replace(calls[0], result=result), notes)


def check_exante(profile, sol, k) -> list:
    """Feasibility and objective identity of an ex ante solution."""
    qs = sol.quantiles
    problems = []
    if sol.k != k or len(qs) != profile.n:
        problems.append(f"exante k={sol.k} len={len(qs)} for k={k} n={profile.n}")
        return problems
    if any(not 0.0 <= q <= 1.0 for q in qs) or math.fsum(qs) > k + 1e-9:
        problems.append(f"exante infeasible: sum q = {math.fsum(qs)} > {k}")
    opt = sum(cv.rev(c, q) for c, q in zip(profile.curves, qs))
    if not abs(opt - sol.opt) <= 1e-12 * max(1.0, abs(opt)):
        problems.append(f"exante opt {sol.opt} != sum rev {opt}")
    if not (sol.dual >= 0.0 and math.isfinite(sol.opt)):
        problems.append(f"exante dual {sol.dual} opt {sol.opt}")
    return problems


def _value_at(curve, q):
    """Value at quantile q with the package's floor for unbounded curves."""
    if cv.is_unbounded(curve) or q > 0.0:
        return cv.value(curve, max(q, cv.EPS_MIN))
    return cv.value(curve, 0.0)


def tail_at_least(probs, m) -> float:
    """Pr[at least m of the independent events happen], by direct DP."""
    pmf = [1.0]
    for p in probs:
        pmf = [a * (1.0 - p) + b * p for a, b in zip(pmf + [0.0], [0.0] + pmf)]
    return math.fsum(pmf[m:])


def check_single_case(profile, case, alpha, beta, opt) -> list:
    target = alpha * opt
    w = case.witness
    if not math.isclose(w["target"], target, rel_tol=1e-12, abs_tol=1e-15):
        return [f"classify_single target {w['target']} != {target}"]
    reach = [i for i, c in enumerate(profile.curves) if _value_at(c, beta) >= target]
    if case.which == analysis.CASE1:
        if not reach or tuple(reach) != tuple(w["indices"]):
            return [f"classify_single case1 witness {w['indices']} != {reach}"]
        return []
    if case.which == analysis.CASE2:
        total = math.fsum(cv.quantile_of_value(c, target) for c in profile.curves)
        need = (1.0 - alpha) / alpha * (1.0 - beta)
        if reach or total < need - 1e-9:
            return [f"classify_single case2 fails: reach={reach} sum={total} need={need}"]
        return []
    return [f"classify_single unknown case {case.which}"]


def check_k_case(profile, case, k, beta, gamma, delta, sol) -> list:
    theta = gamma * sol.opt / k
    w = case.witness
    if not math.isclose(w["theta"], theta, rel_tol=1e-12, abs_tol=1e-15):
        return [f"classify_k theta {w['theta']} != {theta}"]
    curves = profile.curves
    if case.which == analysis.CASE1:
        idx = w["indices"]
        adj = w["adjusted_quantiles"]
        ok = len(idx) <= k and set(adj) == set(idx)
        ok = ok and all(_value_at(curves[i], beta) >= theta for i in idx)
        ok = ok and all(_value_at(curves[i], sol.quantiles[i]) >= theta for i in idx)
        ok = ok and all(0.0 <= q <= 1.0 for q in adj.values())
        total = math.fsum(cv.rev(curves[i], q) for i, q in adj.items())
        if not (ok and total >= delta * sol.opt - 1e-9):
            return [f"classify_k case1 witness fails: {w}"]
        return []
    if case.which == analysis.CASE2:
        idx = w["indices"]
        if len(idx) < k or not all(_value_at(curves[i], beta) >= theta for i in idx):
            return [f"classify_k case2 witness fails: {w}"]
        return []
    if case.which == analysis.CASE3:
        tail = tail_at_least([cv.quantile_of_value(c, theta) for c in curves], k + 1)
        if tail < 0.5 - 1e-9 or abs(tail - w["tail"]) > 1e-9:
            return [f"classify_k case3 tail {w['tail']} (recomputed {tail})"]
        return []
    return [f"classify_k unknown case {case.which}"]


ABOVE_SUP_ULPS = 4


def check_queries(profile, answers, notes: Notes) -> list:
    """Scalar curve answers against the identities that define them.

    quantile_of_value is queried at exactly value(c, q), clamped at 0 where
    rounding reads it below 0 (counted in ``notes.rev_end``).  When value(c,
    q) reads at most ABOVE_SUP_ULPS ulps above the supremum value(c, 0),
    the inversion returns 0; that rounding is counted in ``notes.above_sup``
    and the inversion is checked at value(c, 0) instead.  Any other miss
    fails the op.
    """
    problems = []
    for c, rows in zip(profile.curves, answers):
        for q, r, v, qv, s in rows:
            notes.queries += 1
            if not abs(v * q - r) <= 1e-9 * max(1.0, abs(r)) or v < -1e-12:
                problems.append(f"value({q}) = {v} inconsistent with rev = {r}")
            if qv < q - 1e-9:
                sup = cv.value(c, 0.0) if not cv.is_unbounded(c) else math.inf
                if sup < v <= sup + ABOVE_SUP_ULPS * math.ulp(sup) and (
                    cv.quantile_of_value(c, sup) >= q - 1e-9
                ):
                    notes.above_sup += 1
                else:
                    problems.append(f"quantile_of_value(value({q})) = {qv} < {q}")
            # the right derivative of a concave curve is a supergradient
            for x in (0.5 * q, 0.5 * (q + 1.0), 1.0):
                if x > 0.0 and cv.rev(c, x) > r + s * (x - q) + 1e-9:
                    problems.append(f"slope_at({q}) = {s} is not a supergradient at {x}")
    return problems


# ---------------------------------------------------------------- mc_large


def mc_large_round(seed: int, rnd: int, scale: Scale = FULL, workdir: str = ".") -> list:
    rng = round_rng(seed, rnd)
    n_draws = scale.mc_large_draws
    none = mech.NO_CONSTRAINT
    ops = []

    def seed_next():
        return rng.getrandbits(31)

    def estimate_op(kind, profile, mechanism, exact=None, **params):
        s = seed_next()

        def run(smp):
            return smp.estimate(profile, none, mechanism, n_draws, s, **params)

        def check(est, calls, notes):
            if exact is not None:
                notes.cover.append((est.mean, est.stderr, exact()))
            return check_answer(est, calls, notes)

        ops.append(Op(kind, run, check))
        return s

    lbhr_seed = None
    for name, prof, exact in lbhr_variants():
        s = estimate_op(f"lbhr.{name}.spa", prof, "spa", lambda e=exact: e)
        lbhr_seed = lbhr_seed if lbhr_seed is not None else s
    estimate_op("n3.six.spa", n3_six_profile(), "spa", lambda: 1.46875)

    kinds = ("triangle", "point_mass", "piecewise", "equal_revenue")
    p4 = mixed_profile(rng, kinds)
    p8 = mixed_profile(rng, kinds * 2)
    estimate_op("n4.spa", p4, "spa", lambda: sim.mechanism_revenue_quadrature(p4, 1))
    estimate_op("n4.vcg", p4, "vcg", lambda: sim.mechanism_revenue_quadrature(p4, 2), k=2)
    prices = [round(rng.uniform(0.2, 1.0), 3) for _ in range(p4.n)]
    pairs = mech.PairConstraint(((0, 1), (2, 3)))
    for mechanism, con, params in (
        ("vcg_constrained", pairs, {"k": 2}),
        ("myerson", none, {}),
        ("lookahead", none, {}),
        ("spald", none, {}),
        ("posted", none, {"prices": prices}),
    ):
        s = seed_next()

        def run(smp, mechanism=mechanism, con=con, params=params, s=s):
            return smp.sample(p4, con, mechanism, n_draws, s, **params)

        ops.append(Op(f"n4.{mechanism}", run, check_answer))
    estimate_op("n8.spa", p8, "spa", lambda: sim.mechanism_revenue_quadrature(p8, 1))
    estimate_op("n8.vcg", p8, "vcg", lambda: sim.mechanism_revenue_quadrature(p8, 3), k=3)

    p4_dups = cv.make_profile([*p4.curves, *p4.curves])
    s_pair = seed_next()

    def run_paired(smp):
        return smp.paired(p4_dups, p4, none, none, "spa", n_draws, s_pair)

    def check_paired(est, calls, notes):
        exact = sim.mechanism_revenue_quadrature(p4_dups, 1) - sim.mechanism_revenue_quadrature(p4, 1)
        notes.cover.append((est.mean, est.stderr, exact))
        return check_answer(est, calls, notes)

    ops.append(Op("n4.dups_vs_base.paired_spa", run_paired, check_paired))
    ops.append(cli_op(workdir, rnd, n_draws, lbhr_seed))
    return ops


def cli_config_text(n_draws: int, seed: int) -> str:
    return json.dumps(
        {
            "profile": {"curves": [{"triangle": {"q": 1.0, "r": 1.0}}, {"equal_revenue": 1.0}]},
            "mechanism": "spa",
            "plan": {"mode": "all_once"},
            "sampling": {"n_samples": n_draws, "seed": seed},
        }
    )


def cli_op(workdir: str, rnd: int, n_draws: int, seed: int) -> Op:
    """`dupkit simulate` in process; its seed matches the lbhr.both op's."""
    cfg_path = os.path.join(workdir, f"cli-config-{rnd}.json")
    out_path = os.path.join(workdir, f"cli-report-{rnd}.json")
    with open(cfg_path, "w") as fh:
        fh.write(cli_config_text(n_draws, seed))

    def run(smp):
        code = cli.main(["simulate", "--config", cfg_path, "--out", out_path])
        with open(out_path) as fh:
            return code, json.load(fh)

    def check(result, calls, notes):
        code, report = result
        est = report["estimate"]
        both = lbhr_variants()[0][1]
        direct = sim.estimate_revenue(both, mech.NO_CONSTRAINT, "spa", n_draws, seed)
        notes.cover.append((est["mean"], est["stderr"], 1.5))
        problems = []
        if code != 0:
            problems.append(f"dupkit simulate exited {code}")
        if (est["mean"], est["stderr"], est["n_samples"]) != (
            direct.mean, direct.stderr, direct.n_samples
        ):
            problems.append(f"dupkit simulate {est} != estimate_revenue {direct}")
        if report["exante_opt"] != exante.solve_exante(lbhr_profile(), 1).opt:
            problems.append(f"dupkit simulate exante_opt {report['exante_opt']}")
        return problems

    return Op("cli.simulate.lbhr_both", run, check)


# ---------------------------------------------------------------- mc_sweep


def mc_sweep_round(seed: int, rnd: int, scale: Scale = FULL, workdir: str = ".") -> list:
    """Every (n, k) pair once per round, in random order, so rounds cost alike."""
    rng = round_rng(seed, rnd)
    shapes = [(n, k) for n in scale.sweep_n for k in (2, 3)]
    rng.shuffle(shapes)
    return [_sweep_op(rng, n, k, scale) for n, k in shapes]


def _sweep_op(rng, n, k, scale: Scale) -> Op:
    profile = random_instance(rng, n, ("triangle",))
    s = rng.getrandbits(31)
    bsd_n, n_draws = scale.sweep_bsd_draws, scale.sweep_draws

    def run(smp):
        sol1 = exante.solve_exante(profile, 1)
        solk = exante.solve_exante(profile, k)

        def spa(prof, con):
            return smp.estimate(prof, con, "spa", bsd_n, s).mean

        best = dup.best_single_duplicate(profile, spa)
        copies = []
        for j in range(profile.n):
            ext, con = dup.extend_profile(profile, dup.k_copies_of(j, k))
            copies.append(smp.estimate(ext, con, "vcg", n_draws, s, k=k))
        ext, con = dup.extend_profile(profile, dup.all_once(pair_constrained=True))
        once = smp.estimate(ext, con, "vcg_constrained", n_draws, s, k=k)
        return sol1, solk, best, copies, (ext, con, once)

    def check(result, calls, notes):
        sol1, solk, (idx, best_rev), copies, (ext, con, once) = result
        problems = check_exante(profile, sol1, 1) + check_exante(profile, solk, k)
        problems += check_calls(calls, notes)
        bsd_revs = [c.result.mean for c in calls if c.n_samples == bsd_n and c.mechanism == "spa"]
        if len(bsd_revs) != profile.n or not 0 <= idx < profile.n:
            problems.append(f"best_single_duplicate: {len(bsd_revs)} evaluations, index {idx}")
        elif best_rev != max(bsd_revs) or bsd_revs.index(best_rev) != idx:
            problems.append(f"best_single_duplicate ({idx}, {best_rev}) is not the argmax")
        want_n = profile.n + k
        if any(c.result.n_samples != n_draws for c in calls if c.mechanism == "vcg") or any(
            c.profiles[0].n != want_n for c in calls if c.mechanism == "vcg"
        ):
            problems.append("k_copies_of search ran on wrong environments")
        if ext.n != 2 * profile.n or len(con.pairs) != profile.n:
            problems.append(f"all_once(pair_constrained) gave n={ext.n}, pairs={con.pairs}")
        return problems

    return Op(f"sweep.n{n}.k{k}", run, check)


# ---------------------------------------------------------------- exact


def exact_round(seed: int, rnd: int, scale: Scale = FULL, workdir: str = ".") -> list:
    """Every n once per round, with k = 2 and 3 split evenly, plus the closed forms."""
    rng = round_rng(seed, rnd)
    ns = list(scale.exact_n)
    ks = [2, 3] * (len(ns) // 2) + [2] * (len(ns) % 2)
    rng.shuffle(ns)
    rng.shuffle(ks)
    ops = [_exact_op(rng, n, k) for n, k in zip(ns, ks)]
    ops.insert(rng.randrange(len(ops) + 1), _closed_form_op())
    return ops


def _exact_op(rng, n, k) -> Op:
    profile = random_instance(rng, n, ("triangle", "piecewise", "point_mass"))

    def run(smp):
        sol1 = exante.solve_exante(profile, 1)
        solk = exante.solve_exante(profile, k)
        single = analysis.classify_single(profile, 0.27, 0.4, sol1)
        multi = analysis.classify_k(profile, k, 0.5, 0.2, 0.1, solk)
        ext, _ = dup.extend_profile(profile, dup.all_once())
        q_spa = sim.mechanism_revenue_quadrature(ext, 1)
        q_vcg = sim.mechanism_revenue_quadrature(profile, k) if profile.n >= k + 1 else None
        answers = []
        for c in profile.curves:
            rows = []
            for q in QUERY_QS:
                v = cv.value(c, q)
                qv = cv.quantile_of_value(c, max(v, 0.0))
                rows.append((q, cv.rev(c, q), v, qv, cv.slope_at(c, q)))
            answers.append(rows)
        return sol1, solk, single, multi, q_spa, q_vcg, answers

    def check(result, calls, notes):
        sol1, solk, single, multi, q_spa, q_vcg, answers = result
        problems = check_exante(profile, sol1, 1) + check_exante(profile, solk, k)
        problems += check_single_case(profile, single, 0.27, 0.4, sol1.opt)
        problems += check_k_case(profile, multi, k, 0.5, 0.2, 0.1, solk)
        ext = cv.make_profile([*profile.curves, *profile.curves])
        # revenue never exceeds the ex ante bound, and adding bidders never
        # lowers second-price revenue (it holds draw by draw)
        if not 0.0 <= q_spa <= exante.solve_exante(ext, 1).opt + QUAD_TOL:
            problems.append(f"duplicate SPA quadrature {q_spa} outside [0, exante]")
        if profile.n >= 2 and q_spa < sim.mechanism_revenue_quadrature(profile, 1) - QUAD_TOL:
            problems.append(f"duplicate SPA quadrature {q_spa} below the plain SPA")
        if q_vcg is not None and not 0.0 <= q_vcg <= solk.opt + QUAD_TOL:
            problems.append(f"{k}-item VCG quadrature {q_vcg} outside [0, exante]")
        if (q_vcg is None) != (profile.n < k + 1):
            problems.append("k-item VCG quadrature skipped on the wrong instance")
        problems += check_queries(profile, answers, notes)
        notes.rev_end += [cv.rev(c, 1.0) < 0.0 for c in profile.curves]
        return problems

    return Op(f"exact.n{n}", run, check)


def _closed_form_op() -> Op:
    variants = lbhr_variants()
    six = n3_six_profile()

    def run(smp):
        opt = exante.solve_exante(lbhr_profile(), 1).opt
        quads = [sim.mechanism_revenue_quadrature(p, 1) for _, p, _ in variants]
        return opt, quads, sim.mechanism_revenue_quadrature(six, 1)

    def check(result, calls, notes):
        opt, quads, n3 = result
        problems = []
        if abs(opt - 2.0) > 1e-9:
            problems.append(f"lb-HR ex ante opt {opt} != 2")
        for (name, _, exact), got in zip(variants, quads):
            if abs(got - exact) > QUAD_TOL:
                problems.append(f"lb-HR {name} quadrature {got} != {exact}")
        if abs(n3 - 1.46875) > QUAD_TOL:
            problems.append(f"n3 six-bidder quadrature {n3} != 1.46875")
        return problems

    return Op("exact.closed_forms", run, check)


# op_ms_tail's percentile: the highest of p75/p90/p95/p99 that leaves at
# least 10 ops beyond it even in a 30 s run that completes only half the ops
# this version does (about 120, 290 and 1350 ops).  It is fixed so that a
# change in op rate cannot move the tail to another percentile.
TAIL_PERCENTILE = {"mc_large": 75.0, "mc_sweep": 90.0, "exact": 95.0}

WORKLOADS = {
    "mc_large": mc_large_round,
    "mc_sweep": mc_sweep_round,
    "exact": exact_round,
}
