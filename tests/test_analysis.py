import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupkit import analysis, curves as cv
from dupkit.errors import DomainError, HypothesisViolated
from dupkit.exante import solve_exante

probs_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10)


def brute_pmf(probs):
    n = len(probs)
    pmf = [0.0] * (n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        mass = 1.0
        for p, x in zip(probs, outcome):
            mass *= p if x else 1.0 - p
        pmf[sum(outcome)] += mass
    return pmf


def test_poisson_binomial_hand_values():
    pb = analysis.poisson_binomial([0.5, 0.5])
    assert pb.pmf == pytest.approx([0.25, 0.5, 0.25])
    assert pb.tail_at_least(0) == 1.0
    assert pb.tail_at_least(2) == pytest.approx(0.25)
    assert pb.tail_at_least(3) == 0.0
    with pytest.raises(DomainError):
        analysis.poisson_binomial([1.5])


@given(probs_lists)
def test_poisson_binomial_matches_enumeration(probs):
    pb = analysis.poisson_binomial(probs)
    assert list(pb.pmf) == pytest.approx(brute_pmf(probs), abs=1e-12)


# exact 0 and 1, subnormals, and probabilities a subnormal away from 0 and 1
_EDGES = [0.0, 1.0, 2.0**-1074, 2.0**-1022 / 3, 2.0**-1022, 1.0 - 2.0**-53]
_prob = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=0.0, max_value=1.0))


def _assert_rows_match_scalar(rows):
    got = analysis.poisson_binomial_rows(np.array(rows))
    assert got.shape == (len(rows), len(rows[0]) + 1)
    for probs, pmf in zip(rows, got):
        assert np.array(analysis.poisson_binomial(probs).pmf).tobytes() == pmf.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 24).flatmap(
    lambda n: st.lists(st.lists(_prob, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_poisson_binomial_rows_match_scalar(rows):
    _assert_rows_match_scalar(rows)


@pytest.mark.parametrize("n", range(1, 25))
def test_poisson_binomial_rows_match_scalar_at_every_width(n):
    # each step touches only the elements the scalar pmf has so far; rows
    # of edge probabilities in every position, and runs of 0, 1 and
    # subnormals, pin that at every width
    rng = np.random.default_rng(n)
    rows = [rng.choice(_EDGES, n).tolist() for _ in range(12)]
    rows += [rng.random(n).tolist() for _ in range(4)]
    rows += [[edge] * n for edge in _EDGES]
    rows += [[1.0] * (n // 2) + [2.0**-1074] * (n - n // 2), [0.5] * n]
    _assert_rows_match_scalar(rows)


def test_poisson_binomial_rows_refuse_bad_probabilities():
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError):
            analysis.poisson_binomial_rows(np.array([[0.5, 0.5], [0.2, bad]]))
    assert analysis.poisson_binomial_rows(np.empty((0, 3))).shape == (0, 4)


def test_poisson_binomial_rows_of_no_bidders():
    # the quadrature passes (rows, 0) arrays where no bidder's piece is fractional
    got = analysis.poisson_binomial_rows(np.empty((5, 0)))
    assert got.shape == (5, 1) and (got == 1.0).all()
    assert analysis.poisson_binomial([]).pmf == (1.0,)


def test_median_lower_bound():
    assert analysis.median_lower_bound_check([0.3] * 10)  # Binom(10, 0.3), floor 3
    assert analysis.median_lower_bound_check([0.9])
    assert analysis.median_lower_bound_check([0.5] * 7)


@given(probs_lists)
def test_median_lower_bound_always(probs):
    assert analysis.median_lower_bound_check(probs)


def test_classify_single_case1_lbhr():
    prof = cv.make_profile([cv.make_triangle(1.0, 1.0), cv.make_equal_revenue(1.0)])
    sol = solve_exante(prof, k=1)
    case = analysis.classify_single(prof, 0.27, 0.4, sol)
    assert case.which == analysis.CASE1
    assert 0 in case.witness["indices"]


def test_classify_single_case2_small_triangles():
    prof = cv.make_profile([cv.make_triangle(0.1, 0.1)] * 10)
    sol = solve_exante(prof, k=1)
    assert sol.opt == pytest.approx(1.0)
    case = analysis.classify_single(prof, 0.27, 0.4, sol)
    assert case.which == analysis.CASE2
    assert case.witness["sum"] == pytest.approx(10 / 3.43, rel=1e-9)
    assert case.witness["need"] == pytest.approx((0.73 / 0.27) * 0.6)


def test_classify_k_case1_strong_pair():
    prof = cv.make_profile(
        [cv.make_point_mass(1.0), cv.make_point_mass(1.0), cv.make_triangle(0.5, 0.01)]
    )
    sol = solve_exante(prof, k=2)
    case = analysis.classify_k(prof, 2, 0.5, 0.2, 0.1, sol)
    assert case.which == analysis.CASE1
    assert set(case.witness["indices"]) == {0, 1}
    assert case.witness["revenue"] >= 0.1 * sol.opt - 1e-12


def test_classify_k_case2_many_strong():
    prof = cv.make_profile([cv.make_point_mass(1.0)] * 5)
    sol = solve_exante(prof, k=2)
    case = analysis.classify_k(prof, 2, 0.5, 0.2, 0.1, sol)
    # all five clear theta at beta, more than k, so case 1's subset cap fails
    assert case.which == analysis.CASE2
    assert len(case.witness["indices"]) == 5


def test_classify_k_case3_spread_mass():
    # 50 identical slivers: nobody's median clears theta = 5, but each sells
    # at 5 with prob 1/5.8, so the chance of 3+ high values is near one
    prof = cv.make_profile([cv.make_triangle(0.04, 1.0)] * 50)
    sol = solve_exante(prof, k=2)
    assert sol.opt == pytest.approx(50.0)
    case = analysis.classify_k(prof, 2, 0.5, 0.2, 0.1, sol)
    assert case.which == analysis.CASE3
    assert case.witness["tail"] >= 0.5 - 1e-12


def test_classify_k_hypothesis_gate():
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 3)
    sol = solve_exante(prof, k=2)
    with pytest.raises(HypothesisViolated):
        analysis.classify_k(prof, 1, 0.5, 0.2, 0.1, sol)
    with pytest.raises(HypothesisViolated):
        analysis.classify_k(prof, 2, 0.5, 0.5, 0.3, sol)  # ((0.5)(0.5)-0.3)/0.5 < 1.5


def test_eta_single_hypothesis():
    with pytest.raises(HypothesisViolated):
        analysis.eta_single(0.6, 0.4)  # x = 0.4 < 1
    x = (1 - 0.27) / 0.27 * (1 - 0.4)
    assert analysis.eta_single(0.27, 0.4) == pytest.approx(
        1 - (1 + 0.4 + x) * math.exp(-x)
    )


def test_bound_values():
    assert analysis.bound_single(0.27, 0.4) == pytest.approx(0.108, abs=1e-12)
    assert analysis.bound_single_noisy(0.27, 0.4, 0.0) == analysis.bound_single(0.27, 0.4)
    assert analysis.bound_single_noisy(0.27, 0.4, 0.5) <= analysis.bound_single(0.27, 0.4)
    assert analysis.bound_sample(0.26, 0.51, 0.34) >= 0.0446
    assert analysis.bound_k_free(0.377, 0.15, 0.3) == pytest.approx(0.3 / 32, abs=1e-15)
    assert analysis.bound_k_free_remark(0.377, 0.15, 0.3) <= analysis.bound_k_free(
        0.377, 0.15, 0.3
    )
    assert analysis.bound_k_constrained(0.5, 0.2, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert analysis.warmup_constant() == 1.0 - 2.0 * math.exp(-0.75)
    assert analysis.warmup_constant() > 0.05


def test_bound_k_noisy_eps_decay():
    base = analysis.bound_k_constrained(0.5, 0.2, 0.1)
    assert analysis.bound_k_noisy(0.5, 0.2, 0.1, 0.0) == pytest.approx(base)
    for eps in (0.05, 0.1, 0.2, 0.3):
        assert analysis.bound_k_noisy(0.5, 0.2, 0.1, eps) >= (1 - eps) ** 3 * 0.1 - 1e-12


def test_bound_hypothesis_gates():
    with pytest.raises(HypothesisViolated):
        analysis.bound_single(0.6, 0.4)
    with pytest.raises(HypothesisViolated):
        analysis.bound_k_constrained(0.5, 0.5, 0.3)
    with pytest.raises(DomainError):
        analysis.bound_single(0.0, 0.4)
