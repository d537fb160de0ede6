"""Acceptance suite: one callable per criterion plus a table runner.

Each criterion re-derives its expected numbers from scratch (closed forms,
exact DP, quadrature) and checks the library against them at stated
tolerances.  Results are deterministic for a fixed seed; timing is carried
separately from the summary text so summaries are byte-stable.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, curves as cv
from .duplication import (
    all_once,
    best_single_duplicate,
    extend_profile,
    k_copies_of,
    set_once,
    single_of,
)
from .errors import LemmaViolation
from .examples import example_lbhr, example_n3, lbhr_profile, min_ratio_two_triangles
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


def criterion_1(seed: int = 0) -> CriterionResult:
    """lb-HR exact values by quadrature."""
    t0 = time.perf_counter()
    rep = example_lbhr()
    checks = [
        abs(rep.exante_opt - 2.0) <= 1e-9,
        abs(rep.spa_all_duplicates - 1.5) <= 1e-6,
        abs(rep.spa_dup_bidder1 - 1.0) <= 1e-6,
        abs(rep.spa_dup_bidder2 - LN4) <= 1e-6,
    ]
    detail = (
        f"opt={rep.exante_opt:.12f} both={rep.spa_all_duplicates:.8f} "
        f"dup1={rep.spa_dup_bidder1:.8f} dup2={rep.spa_dup_bidder2:.8f} (ln4={LN4:.8f})"
    )
    return CriterionResult(1, "lbhr-exact", all(checks), detail, time.perf_counter() - t0)


def criterion_2(seed: int = 0, n_seeds: int = 100, n_samples: int = 1_000_000) -> CriterionResult:
    """Monte Carlo agrees with the lb-HR exact values across seeds."""
    t0 = time.perf_counter()
    base = lbhr_profile()
    targets = [
        (_all_dups(base), 1.5),
        (cv.make_profile([*base.curves, base.curves[0]]), 1.0),
        (cv.make_profile([*base.curves, base.curves[1]]), LN4),
    ]
    ok = 0
    for i in range(n_seeds):
        hit = True
        for prof, exact in targets:
            est = estimate_revenue(prof, NO_CONSTRAINT, "spa", n_samples, seed + i)
            hit &= abs(est.mean - exact) <= 0.03
        ok += hit
    detail = f"{ok}/{n_seeds} seeds had all three SPA values within 0.03"
    return CriterionResult(2, "lbhr-monte-carlo", ok >= 0.95 * n_seeds, detail, time.perf_counter() - t0)


def criterion_3(seed: int = 0, n_pairs: int = 10_000, n_samples: int = 20_000) -> CriterionResult:
    """Two-triangle ratio floor: grid minimum and random-pair sweep."""
    t0 = time.perf_counter()
    m, arg = min_ratio_two_triangles(1000)
    grid_ok = abs(m - 0.75) <= 1e-4 and abs(arg["alpha"] - 1.0) <= 0.01
    rng = random.Random(seed)
    worst = math.inf
    failures = 0
    for i in range(n_pairs):
        pair = cv.make_profile([random_triangle(rng), random_triangle(rng)])
        opt = solve_exante(pair, k=1).opt
        est = estimate_revenue(_all_dups(pair), NO_CONSTRAINT, "spa", n_samples, seed + i)
        margin = est.mean - (0.75 * opt - 4.0 * est.stderr)
        worst = min(worst, margin / opt)
        failures += margin < 0.0
    detail = (
        f"grid min={m:.6f} at alpha={arg['alpha']:.3f}; "
        f"{failures}/{n_pairs} pairs below 0.75*opt-4se (worst margin {worst:+.4f}*opt)"
    )
    return CriterionResult(
        3, "two-triangle-ratio", grid_ok and failures == 0, detail, time.perf_counter() - t0
    )


def criterion_4(seed: int = 0) -> CriterionResult:
    """Closed-form constants, reproduced as arithmetic."""
    t0 = time.perf_counter()
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
    return CriterionResult(4, "constants", all(checks), detail, time.perf_counter() - t0)


def criterion_5(seed: int = 0, n_instances: int = 50, n_samples: int = 40_000) -> CriterionResult:
    """Existential sweeps: the promised duplicate always exists at desk scale."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    fails = {"single-0.108": 0, "kfree-0.009": 0, "kcon-0.1": 0, "vcg2-0.5": 0, "hr-0.5": 0}

    def spa_eval(s):
        return lambda prof, con: estimate_revenue(prof, con, "spa", n_samples, s).mean

    for i in range(n_instances):
        s = seed * 1_000_003 + i

        # single item: some duplicated bidder reaches 0.108*opt under the SPA
        prof = random_profile(rng.randint(2, 6), rng)
        opt1 = solve_exante(prof, k=1).opt
        idx, _ = best_single_duplicate(prof, spa_eval(s))
        ext, con = extend_profile(prof, single_of(idx))
        est = estimate_revenue(ext, con, "spa", n_samples, s)
        fails["single-0.108"] += est.mean < 0.108 * opt1 - 4.0 * est.stderr

        # free k-item: k copies of some bidder reach 0.009*opt under k-VCG
        k = rng.choice((2, 3))
        prof = random_profile(rng.randint(k, 6), rng)
        optk = solve_exante(prof, k=k).opt
        best = None
        for j in range(prof.n):
            ext, con = extend_profile(prof, k_copies_of(j, k))
            e = estimate_revenue(ext, con, "vcg", n_samples, s, k=k)
            if best is None or e.mean > best.mean:
                best = e
        fails["kfree-0.009"] += best.mean < 0.009 * optk - 4.0 * best.stderr

        # constrained k-item: some k-subset duplicated once reaches 0.1*opt
        k = rng.choice((2, 3))
        prof = random_profile(rng.randint(k, 6), rng)
        optk = solve_exante(prof, k=k).opt
        best = None
        for subset in itertools.combinations(range(prof.n), k):
            ext, con = extend_profile(prof, set_once(subset, pair_constrained=True))
            e = estimate_revenue(ext, con, "vcg_constrained", n_samples, s, k=k)
            if best is None or e.mean > best.mean:
                best = e
        fails["kcon-0.1"] += best.mean < 0.1 * optk - 4.0 * best.stderr

        # everyone duplicated once, pair-constrained VCG: half of opt
        k = rng.choice((2, 3))
        prof = random_profile(rng.randint(k, 6), rng)
        optk = solve_exante(prof, k=k).opt
        ext, con = extend_profile(prof, all_once(pair_constrained=True))
        e = estimate_revenue(ext, con, "vcg_constrained", n_samples, s, k=k)
        fails["vcg2-0.5"] += e.mean < 0.5 * optk - 4.0 * e.stderr

        # everyone duplicated once, plain SPA: half of the 1-item opt
        prof = random_profile(rng.randint(2, 6), rng)
        opt1 = solve_exante(prof, k=1).opt
        e = estimate_revenue(_all_dups(prof), NO_CONSTRAINT, "spa", n_samples, s)
        fails["hr-0.5"] += e.mean < 0.5 * opt1 - 4.0 * e.stderr

    detail = "; ".join(f"{k}: {n_instances - v}/{n_instances}" for k, v in fails.items())
    return CriterionResult(
        5, "existential-sweeps", all(v == 0 for v in fails.values()), detail,
        time.perf_counter() - t0,
    )


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


def criterion_6(seed: int = 0, n_instances: int = 1000) -> CriterionResult:
    """Classifiers always land in a case and their witnesses re-certify."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    single_counts = {analysis.CASE1: 0, analysis.CASE2: 0}
    k_counts = {analysis.CASE1: 0, analysis.CASE2: 0, analysis.CASE3: 0}
    bad = 0
    for _ in range(n_instances):
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
    detail = (
        f"single {dict(single_counts)}, k-item {dict(k_counts)}, {bad} violations/miscertifications"
    )
    return CriterionResult(6, "lemma-classifiers", bad == 0, detail, time.perf_counter() - t0)


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
    independent of the water-fill and of the curve table.
    """
    inner = (max(r - lam * q for q, r in c.breakpoints) for c in profile.curves)
    return lam * k + math.fsum(inner)


def criterion_7(seed: int = 0, n_tuples: int = 10_000) -> CriterionResult:
    """Property suites: curve claims, tail bounds, DP, quadrature, ex ante."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    problems = []

    # Claim: for 0 <= q <= q' <= b, Rev(q') >= (1-b) Rev(q)
    bad = 0
    for _ in range(n_tuples):
        c = _random_curve_mixed(rng)
        q, q2, b = sorted(rng.random() for _ in range(3))
        bad += cv.rev(c, q2) < (1.0 - b) * cv.rev(c, q) - 1e-9
    if bad:
        problems.append(f"reg:{bad}")

    # Claim: |q - q'| <= eps*q with q <= 1/2 pins Rev(q') within (1 -+ eps)
    bad = 0
    for _ in range(n_tuples):
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
    for _ in range(n_tuples):
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
        exact = mechanism_revenue_quadrature(prof, k, tol=1e-8)
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
    return CriterionResult(7, "property-suites", not problems, detail, time.perf_counter() - t0)


def criterion_8(seed: int = 0, n_samples: int = 1_000_000) -> CriterionResult:
    """Example n=3: six-bidder SPA certified strictly below 1.5."""
    t0 = time.perf_counter()
    opt, est = example_n3(n_samples, seed + 7)
    upper = est.mean + 4.0 * est.stderr
    ok = abs(opt - 2.0) <= 1e-9 and upper < 1.5
    detail = f"opt={opt:.12f} spa6={est.mean:.5f}+4se={upper:.5f} (< 1.5 required)"
    return CriterionResult(8, "n3-strict-gap", ok, detail, time.perf_counter() - t0)


def criterion_9(seed: int = 0, n_instances: int = 100, n_samples: int = 100_000) -> CriterionResult:
    """Mechanism chain: SPA+dups >= SPALD (pathwise) >= LA - 4se; My <= 2LA + 4se."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    bad_pathwise = bad_la = bad_myerson = 0
    for i in range(n_instances):
        prof = cv.make_profile([random_triangle(rng) for _ in range(rng.randint(2, 5))])
        s = seed + 31 * i
        # Every call draws prof's rows at seed s.  The two calls that read
        # only those rows go first, so the row store holds them for the
        # other two before the duplicates' rows pass through it.
        la = sample_revenues(prof, NO_CONSTRAINT, "lookahead", n_samples, s)
        my = sample_revenues(prof, NO_CONSTRAINT, "myerson", n_samples, s)
        spa_d = sample_revenues(_all_dups(prof), NO_CONSTRAINT, "spa", n_samples, s)
        spald = sample_revenues(prof, NO_CONSTRAINT, "spald", n_samples, s)
        bad_pathwise += (spa_d - spald).min() < -1e-9
        d = spald - la
        bad_la += d.mean() < -4.0 * d.std(ddof=1) / math.sqrt(n_samples)
        g = my - 2.0 * la
        bad_myerson += g.mean() > 4.0 * g.std(ddof=1) / math.sqrt(n_samples)
    ok = bad_pathwise == 0 and bad_la == 0 and bad_myerson == 0
    detail = (
        f"pathwise spa>=spald fails {bad_pathwise}, spald>=la-4se fails {bad_la}, "
        f"myerson<=2la+4se fails {bad_myerson} (of {n_instances})"
    )
    return CriterionResult(9, "spald-lookahead-chain", ok, detail, time.perf_counter() - t0)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)

# Wall-time budget in seconds for each criterion at full scale on seed 0.
BUDGETS = {1: 1.0, 2: 60.0, 3: 300.0, 4: 1.0, 5: 600.0, 6: 60.0, 7: 300.0, 8: 30.0, 9: 300.0}


def verify_all(seed: int = 0, only=None):
    """Run the acceptance criteria; returns (exit_code, results, summary)."""
    results = []
    for number, fn in enumerate(ALL_CRITERIA, start=1):
        if only and number not in only:
            continue
        results.append(fn(seed))
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.number}. {r.name}: {r.detail}" for r in results
    ]
    failed = [r.number for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; failed: {failed}" if failed else "")
    )
    summary = "\n".join(lines)
    return (0 if not failed else 1), results, summary
