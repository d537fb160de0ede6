"""Acceptance suite: one table (ALL_CRITERIA) of number, name, budget, check.

A check re-derives its expected numbers from scratch (closed forms, exact
DP, quadrature) at a fixed scale (the constants beside it), checks the
library against them at stated tolerances and returns (passed, detail);
calling a row times it.  Results are deterministic for a fixed seed, and
timing is kept out of the summary text, so summaries are byte-stable.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import analysis, curves as cv
from .duplication import (
    all_once,
    extend_profile,
    k_copies_of,
    set_once,
    single_of,
)
from .errors import LemmaViolation
from .examples import example_lbhr, example_n3, lbhr_duplicates, min_ratio_two_triangles, n3_profile
from .exante import solve_exante
from .instances import random_concave_curve, random_profile, random_triangle
from .mechanisms import NO_CONSTRAINT
from .simulate import (
    estimate_revenue,
    mechanism_revenue_quadrature,
    sample_revenues,
)

LN4 = math.log(4.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _all_dups(profile):
    extended, _ = extend_profile(profile, all_once())
    return extended


def _lbhr_exact(seed):
    """lb-HR exact values by quadrature."""
    rep = example_lbhr()
    checks = [
        abs(rep.exante_opt - 2.0) <= 1e-9,
        abs(rep.spa_all_duplicates - 1.5) <= 1e-12,
        abs(rep.spa_dup_bidder1 - 1.0) <= 1e-12,
        abs(rep.spa_dup_bidder2 - LN4) <= 1e-12,
    ]
    detail = (
        f"opt={rep.exante_opt:.12f} both={rep.spa_all_duplicates:.15f} "
        f"dup1={rep.spa_dup_bidder1:.15f} dup2={rep.spa_dup_bidder2:.15f} (ln4={LN4:.15f})"
    )
    return all(checks), detail


_LBHR_SEEDS, _LBHR_SAMPLES = 100, 1_000_000


def _lbhr_monte_carlo(seed):
    """Monte Carlo agrees with the lb-HR exact values across seeds."""
    targets = lbhr_duplicates()
    ok = 0
    for i in range(_LBHR_SEEDS):
        hit = True
        for prof, exact in targets:
            est = estimate_revenue(prof, NO_CONSTRAINT, "spa", _LBHR_SAMPLES, seed + i)
            hit &= abs(est.mean - exact) <= 0.03
        ok += hit
    detail = f"{ok}/{_LBHR_SEEDS} seeds had all three SPA values within 0.03"
    return ok >= 0.95 * _LBHR_SEEDS, detail


_PAIRS, _PAIR_SAMPLES = 10_000, 20_000


def _two_triangle_ratio(seed):
    """Two-triangle ratio floor: grid minimum and random-pair sweep."""
    m, arg = min_ratio_two_triangles(1000)
    grid_ok = abs(m - 0.75) <= 1e-4 and abs(arg["alpha"] - 1.0) <= 0.01
    rng = random.Random(seed)
    worst = math.inf
    failures = 0
    for i in range(_PAIRS):
        pair = cv.make_profile([random_triangle(rng), random_triangle(rng)])
        opt = solve_exante(pair, k=1).opt
        est = estimate_revenue(_all_dups(pair), NO_CONSTRAINT, "spa", _PAIR_SAMPLES, seed + i)
        margin = est.mean - (0.75 * opt - 4.0 * est.stderr)
        worst = min(worst, margin / opt)
        failures += margin < 0.0
    detail = (
        f"grid min={m:.6f} at alpha={arg['alpha']:.3f}; "
        f"{failures}/{_PAIRS} pairs below 0.75*opt-4se (worst margin {worst:+.4f}*opt)"
    )
    return grid_ok and failures == 0, detail


def _constants(seed):
    """Closed-form constants, reproduced as arithmetic."""
    checks = []
    checks.append(abs(analysis.bound_single(0.27, 0.4) - 0.108) <= 1e-12)
    beta = 0.355
    alpha_hi = (1.0 - beta) / (2.0 - beta)  # hypothesis edge: x(alpha, beta) = 1
    c1 = max(
        analysis.bound_single_noisy(a, beta, 0.0)
        for a in np.linspace(0.01, alpha_hi - 1e-9, 4000)
    )
    checks.append(c1 >= 0.099)
    checks.append(analysis.bound_sample(0.26, 0.51, 0.34) >= 0.0446)
    checks.append(abs(analysis.bound_k_free(0.377, 0.15, 0.3) - 0.009375) <= 1e-12)
    checks.append(analysis.bound_k_free(0.377, 0.15, 0.3) >= 0.009)
    checks.append(abs(analysis.bound_k_constrained(0.5, 0.2, 0.1) - 0.1) <= 1e-12)
    checks.append(
        all(
            analysis.bound_k_noisy(0.5, 0.2, 0.1, e) >= (1.0 - e) ** 3 * 0.1 - 1e-12
            for e in np.linspace(0.0, 0.3, 31)
        )
    )
    w = analysis.warmup_constant()
    checks.append(w > 0.05 and abs(w - (1.0 - 2.0 * math.exp(-0.75))) == 0.0)
    detail = f"bound_single=0.108 c1(0.355)={c1:.4f} warmup={w:.6f}; {sum(checks)}/{len(checks)} ok"
    return all(checks), detail


# The existential sweeps' families, in the order each instance draws them:
# (name, the item counts it draws k from (None: one item), the mechanism,
# the duplicate plans for n bidders and k items, the share of opt that the
# best plan must reach).
_FAMILIES = (
    # single item: some duplicated bidder reaches 0.108*opt under the SPA
    ("single-0.108", None, "spa", lambda n, k: [single_of(i) for i in range(n)], 0.108),
    # free k-item: k copies of some bidder reach 0.009*opt under k-VCG
    ("kfree-0.009", (2, 3), "vcg", lambda n, k: [k_copies_of(j, k) for j in range(n)], 0.009),
    # constrained k-item: some k-subset duplicated once reaches 0.1*opt
    ("kcon-0.1", (2, 3), "vcg_constrained",
     lambda n, k: [set_once(sub, pair_constrained=True)
                   for sub in itertools.combinations(range(n), k)], 0.1),
    # everyone duplicated once, pair-constrained VCG: half of opt
    ("vcg2-0.5", (2, 3), "vcg_constrained", lambda n, k: [all_once(pair_constrained=True)], 0.5),
    # everyone duplicated once, plain SPA: half of the 1-item opt
    ("hr-0.5", None, "spa", lambda n, k: [all_once()], 0.5),
)
_SWEEP_INSTANCES, _SWEEP_SAMPLES = 50, 40_000


def _existential_sweeps(seed):
    """Existential sweeps: the promised duplicate always exists at desk scale.

    Each instance draws one random profile per family and estimates every
    plan of the family at one seed; the first Estimate with the largest mean
    is the candidate, and that same Estimate is checked against
    share*opt - 4*stderr, so each plan is sampled once.
    """
    rng = random.Random(seed)
    fails = dict.fromkeys((family[0] for family in _FAMILIES), 0)
    for i in range(_SWEEP_INSTANCES):
        s = seed * 1_000_003 + i
        for name, items, mechanism, plans, share in _FAMILIES:
            k = rng.choice(items) if items else 1
            prof = random_profile(rng.randint(max(k, 2), 6), rng)
            opt = solve_exante(prof, k=k).opt
            params = {"k": k} if items else {}
            best = max((estimate_revenue(*extend_profile(prof, plan), mechanism, _SWEEP_SAMPLES, s,
                                         **params) for plan in plans(prof.n, k)),
                       key=lambda e: e.mean)
            fails[name] += best.mean < share * opt - 4.0 * best.stderr
    detail = "; ".join(f"{k}: {_SWEEP_INSTANCES - v}/{_SWEEP_INSTANCES}" for k, v in fails.items())
    return all(v == 0 for v in fails.values()), detail


def _recertify(profile, case, k, beta, gamma, delta, opt) -> bool:
    """Check a classifier witness against its defining inequality, from scratch."""
    theta = gamma * opt / k if k else None
    if case.which == analysis.CASE1 and k is None:
        return all(
            cv.value(profile.curves[i], beta) >= case.witness["target"]
            for i in case.witness["indices"]
        )
    if case.which == analysis.CASE2 and k is None:
        qs = [cv.quantile_of_value(c, case.witness["target"]) for c in profile.curves]
        return math.fsum(qs) >= case.witness["need"] - 1e-9
    if case.which == analysis.CASE1:
        if len(case.witness["indices"]) > k:
            return False
        total = math.fsum(
            cv.rev(profile.curves[i], q) for i, q in case.witness["adjusted_quantiles"].items()
        )
        vals_ok = all(
            cv.value(profile.curves[i], beta) >= theta for i in case.witness["indices"]
        )
        return vals_ok and total >= delta * opt - 1e-9
    if case.which == analysis.CASE2:
        return len(case.witness["indices"]) >= k and all(
            cv.value(profile.curves[i], beta) >= theta for i in case.witness["indices"]
        )
    if case.which == analysis.CASE3:
        pb = analysis.poisson_binomial(
            [cv.quantile_of_value(c, theta) for c in profile.curves]
        )
        return pb.tail_at_least(k + 1) >= 0.5 - 1e-9
    return False


_CLASSIFIED = 1000


def _lemma_classifiers(seed):
    """Classifiers always land in a case and their witnesses re-certify."""
    rng = random.Random(seed)
    single_counts = {analysis.CASE1: 0, analysis.CASE2: 0}
    k_counts = {analysis.CASE1: 0, analysis.CASE2: 0, analysis.CASE3: 0}
    bad = 0
    for _ in range(_CLASSIFIED):
        prof = random_profile(rng.randint(1, 12), rng)
        sol = solve_exante(prof, k=1)
        try:
            case = analysis.classify_single(prof, 0.27, 0.4, sol)
        except LemmaViolation:
            bad += 1
            continue
        single_counts[case.which] += 1
        bad += not _recertify(prof, case, None, 0.4, None, None, sol.opt)

        k = rng.choice((2, 3))
        prof = random_profile(rng.randint(k, 12), rng)
        sol = solve_exante(prof, k=k)
        try:
            case = analysis.classify_k(prof, k, 0.5, 0.2, 0.1, sol)
        except LemmaViolation:
            bad += 1
            continue
        k_counts[case.which] += 1
        bad += not _recertify(prof, case, k, 0.5, 0.2, 0.1, sol.opt)
    return bad == 0, (f"single {dict(single_counts)}, k-item {dict(k_counts)}, "
                      f"{bad} violations/miscertifications")


def _random_curve_mixed(rng):
    roll = rng.random()
    if roll < 0.25:
        return cv.make_equal_revenue(rng.uniform(0.1, 2.0))
    if roll < 0.6:
        return random_triangle(rng)
    return random_concave_curve(rng)


def exante_dual_bound(profile, k, lam) -> float:
    """Lagrangian weak-duality bound on the ex ante optimum with k items.

    For any lam >= 0 and any feasible allocation, sum_i Rev_i(q_i) is at most
    lam*k + sum_i max_q (Rev_i(q) - lam*q).  Each bounded curve is piecewise
    linear and concave, so the inner max over q in [0, 1] sits at a
    breakpoint; only ``curve.breakpoints`` is read, so the bound is
    independent of the water-fill and of the curve table.  An unbounded
    curve enters as the water-fill models it, the sliver q in [0, EPS_MIN]
    of revenue up to rev(EPS_MIN), whose inner max is at an end of it.
    """
    inner = (max(0.0, cv.rev(c, cv.EPS_MIN) - lam * cv.EPS_MIN) if cv.is_unbounded(c)
             else max(r - lam * q for q, r in c.breakpoints) for c in profile.curves)
    return lam * k + math.fsum(inner)


_TUPLES = 10_000


def _property_suites(seed):
    """Property suites: curve claims, tail bounds, DP, quadrature, ex ante."""
    rng = random.Random(seed)
    problems = []

    # Claim: for 0 <= q <= q' <= b, Rev(q') >= (1-b) Rev(q)
    bad = 0
    for _ in range(_TUPLES):
        c = _random_curve_mixed(rng)
        q, q2, b = sorted(rng.random() for _ in range(3))
        bad += cv.rev(c, q2) < (1.0 - b) * cv.rev(c, q) - 1e-9
    if bad:
        problems.append(f"reg:{bad}")

    # Claim: |q - q'| <= eps*q with q <= 1/2 pins Rev(q') within (1 -+ eps)
    bad = 0
    for _ in range(_TUPLES):
        c = _random_curve_mixed(rng)
        q = rng.uniform(1e-6, 0.5)
        eps = rng.uniform(0.0, 0.99)
        q2 = min(1.0, rng.uniform(q * (1.0 - eps), q * (1.0 + eps)))
        r, r2 = cv.rev(c, q), cv.rev(c, q2)
        bad += not ((1.0 - eps) * r - 1e-9 <= r2 <= r / (1.0 - eps) + 1e-9)
    if bad:
        problems.append(f"reg_delta2:{bad}")

    # median corollary on random probability vectors, exact DP
    bad = 0
    for _ in range(_TUPLES):
        n = rng.randint(1, 20)
        bad += not analysis.median_lower_bound_check([rng.random() for _ in range(n)])
    if bad:
        problems.append(f"median:{bad}")

    # DP pmf vs brute-force enumeration over all outcomes
    bad = 0
    for n in range(1, 16):
        for _ in range(7):
            probs = [rng.random() for _ in range(n)]
            pmf = np.asarray(analysis.poisson_binomial(probs).pmf)
            masks = np.arange(1 << n, dtype=np.uint64)
            bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
            p = np.asarray(probs)
            mass = np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)
            brute = np.bincount(bits.sum(axis=1).astype(int), weights=mass, minlength=n + 1)
            bad += not np.allclose(pmf, brute, atol=1e-12, rtol=0.0)
    if bad:
        problems.append(f"dp-enum:{bad}")

    # quadrature vs Monte Carlo (bounded curves: plain CLT error bars apply)
    bad = 0
    for i in range(12):
        n = rng.randint(2, 6)
        prof = random_profile(n, rng, allow_unbounded=False)
        k = rng.choice((1, 2)) if n >= 3 else 1
        exact = mechanism_revenue_quadrature(prof, k)
        est = estimate_revenue(prof, NO_CONSTRAINT, "vcg", 100_000, seed + i, "plain", k=k)
        bad += abs(est.mean - exact) > 4.0 * est.stderr + 1e-6
    if bad:
        problems.append(f"quad-mc:{bad}")

    # water-fill certified by weak duality at its own reported multiplier
    bad = 0
    for _ in range(1000):
        prof = random_profile(rng.randint(1, 6), rng, allow_unbounded=False)
        k = rng.randint(1, 3)
        sol = solve_exante(prof, k=k)
        bad += not (
            all(0.0 <= q <= 1.0 for q in sol.quantiles)
            and math.fsum(sol.quantiles) <= k + 1e-9
            and abs(sol.opt - math.fsum(map(cv.rev, prof.curves, sol.quantiles))) <= 1e-12
            and sol.dual >= 0.0
            and exante_dual_bound(prof, k, sol.dual) <= sol.opt + 1e-9
        )
    if bad:
        problems.append(f"exante-dual:{bad}")

    detail = "all property families hold" if not problems else "failures " + ",".join(problems)
    return not problems, detail


_N3_SAMPLES = 1_000_000


def _n3_strict_gap(seed):
    """Example n=3: six-bidder SPA certified strictly below 1.5 by Monte Carlo and quadrature."""
    opt, est = example_n3(_N3_SAMPLES, seed + 7)
    upper = est.mean + 4.0 * est.stderr
    exact = mechanism_revenue_quadrature(_all_dups(n3_profile()), k=1)
    ok = abs(opt - 2.0) <= 1e-9 and upper < 1.5 and exact < 1.5 and abs(exact - 1.46875) <= 1e-12
    detail = (
        f"opt={opt:.12f} spa6={est.mean:.5f}+4se={upper:.5f} (< 1.5 required); "
        f"quadrature spa6={exact:.15f} (< 1.5 and within 1e-12 of 1.46875 required)"
    )
    return ok, detail


_CHAIN_INSTANCES, _CHAIN_SAMPLES = 100, 100_000


def _spald_lookahead_chain(seed):
    """Mechanism chain: SPA+dups >= SPALD (pathwise) >= LA - 4se; My <= 2LA + 4se."""
    rng = random.Random(seed)
    bad_pathwise = bad_la = bad_myerson = 0
    for i in range(_CHAIN_INSTANCES):
        prof = cv.make_profile([random_triangle(rng) for _ in range(rng.randint(2, 5))])
        s = seed + 31 * i
        la = sample_revenues(prof, NO_CONSTRAINT, "lookahead", _CHAIN_SAMPLES, s)
        my = sample_revenues(prof, NO_CONSTRAINT, "myerson", _CHAIN_SAMPLES, s)
        spa_d = sample_revenues(_all_dups(prof), NO_CONSTRAINT, "spa", _CHAIN_SAMPLES, s)
        spald = sample_revenues(prof, NO_CONSTRAINT, "spald", _CHAIN_SAMPLES, s)
        bad_pathwise += (spa_d - spald).min() < -1e-9
        d = spald - la
        bad_la += d.mean() < -4.0 * d.std(ddof=1) / math.sqrt(_CHAIN_SAMPLES)
        g = my - 2.0 * la
        bad_myerson += g.mean() > 4.0 * g.std(ddof=1) / math.sqrt(_CHAIN_SAMPLES)
    detail = (
        f"pathwise spa>=spald fails {bad_pathwise}, spald>=la-4se fails {bad_la}, "
        f"myerson<=2la+4se fails {bad_myerson} (of {_CHAIN_INSTANCES})"
    )
    return bad_pathwise == bad_la == bad_myerson == 0, detail


@dataclass(frozen=True)
class Criterion:
    """A row of ALL_CRITERIA; calling it times check(seed) into a result."""

    number: int
    name: str
    budget: float  # wall-time budget in seconds at full scale on seed 0
    check: Callable

    def __call__(self, seed: int) -> CriterionResult:
        t0 = time.perf_counter()
        passed, detail = self.check(seed)
        return CriterionResult(self.number, self.name, passed, detail, time.perf_counter() - t0)


ALL_CRITERIA = (
    Criterion(1, "lbhr-exact", 1.0, _lbhr_exact),
    Criterion(2, "lbhr-monte-carlo", 60.0, _lbhr_monte_carlo),
    Criterion(3, "two-triangle-ratio", 300.0, _two_triangle_ratio),
    Criterion(4, "constants", 1.0, _constants),
    Criterion(5, "existential-sweeps", 600.0, _existential_sweeps),
    Criterion(6, "lemma-classifiers", 60.0, _lemma_classifiers),
    Criterion(7, "property-suites", 300.0, _property_suites),
    Criterion(8, "n3-strict-gap", 30.0, _n3_strict_gap),
    Criterion(9, "spald-lookahead-chain", 300.0, _spald_lookahead_chain),
)
BUDGETS = {c.number: c.budget for c in ALL_CRITERIA}


def verify_all(seed: int = 0, only=None):
    """Run the acceptance criteria; returns (exit_code, results, summary)."""
    results = [c(seed) for c in ALL_CRITERIA if not only or c.number in only]
    failed = [r.number for r in results if not r.passed]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.number}. {r.name}: {r.detail}"
             for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed"
                 + (f"; failed: {failed}" if failed else ""))
    return (0 if not failed else 1), results, "\n".join(lines)
