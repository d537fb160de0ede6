import math
import random

import numpy as np
import pytest

from dupkit import curves as cv
from dupkit.duplication import all_once, extend_profile
from dupkit.errors import DomainError, DominanceViolation
from dupkit.examples import (
    example_lbhr,
    example_n3,
    lbhr_profile,
    min_ratio_two_triangles,
    n3_profile,
    ratio_two_triangles,
    spa_flat_check,
)
from dupkit.exante import solve_exante
from dupkit.instances import random_triangle
from dupkit.mechanisms import NO_CONSTRAINT
from dupkit.simulate import estimate_revenue

LN4 = math.log(4.0)


def test_lbhr_exact_values():
    rep = example_lbhr()
    assert rep.exante_opt == pytest.approx(2.0, abs=1e-9)
    assert rep.spa_all_duplicates == pytest.approx(1.5, abs=1e-12)
    assert rep.spa_dup_bidder1 == pytest.approx(1.0, abs=1e-12)
    assert rep.spa_dup_bidder2 == pytest.approx(LN4, abs=1e-12)
    # one duplicate can leave a factor-of-opt gap as large as 2/ln4
    assert rep.exante_opt / rep.spa_dup_bidder2 == pytest.approx(2.0 / LN4, abs=1e-5)


def test_lbhr_profile_shape():
    prof = lbhr_profile()
    assert prof.names == ("point", "tail")
    assert cv.value(prof.curves[0], 0.5) == 1.0  # deterministic bidder
    assert cv.is_unbounded(prof.curves[1])


def test_ratio_two_triangles_hand_values():
    assert ratio_two_triangles(0.5, 0.5, 0.5, 0.5) == pytest.approx(0.75)
    # R1=1 > R2=1/2 on the q2=1-q1 slice: (1 + a^2/(1+a))/(1+a) with a=1/2
    assert ratio_two_triangles(0.5, 1.0, 0.5, 0.5) == pytest.approx(7.0 / 9.0)
    # a vanishing second bidder costs nothing
    assert ratio_two_triangles(0.5, 1.0, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_ratio_two_triangles_order_invariant():
    rng = random.Random(5)
    for _ in range(50):
        q1, r1 = rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0)
        q2, r2 = rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0)
        assert ratio_two_triangles(q1, r1, q2, r2) == ratio_two_triangles(q2, r2, q1, r1)


def test_ratio_two_triangles_validation():
    with pytest.raises(DomainError):
        ratio_two_triangles(0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        ratio_two_triangles(0.5, 0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        ratio_two_triangles(1.5, 1.0, 0.5, 0.5)


def test_min_ratio_grid():
    m, arg = min_ratio_two_triangles(200)
    # the slice ratio (1+a+a^2)/(1+a)^2 bottoms out at a=1, on the grid
    assert m == 0.75
    assert arg["alpha"] == 1.0
    with pytest.raises(DomainError):
        min_ratio_two_triangles(99)


def _min_ratio_full_grid(grid_steps):
    # the whole (N-1) x N grid of the slice, q1 in (0, 1) by a in (0, 1]
    q1 = np.arange(1, grid_steps) / grid_steps
    a = np.arange(1, grid_steps + 1) / grid_steps
    q1g, ag = np.meshgrid(q1, a, indexing="ij")
    one_minus = 1.0 - q1g
    s = ag * one_minus / (one_minus + one_minus * ag)
    ratio = (1.0 + ag * s) / (1.0 + ag)
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    return float(ratio[i, j]), {"q1": float(q1[i]), "alpha": float(a[j])}


@pytest.mark.parametrize("grid_steps", [100, 101, 200, 999, 1000, 1234])
def test_min_ratio_row_is_the_full_grid_minimum(grid_steps):
    got = min_ratio_two_triangles(grid_steps)
    assert repr(got) == repr(_min_ratio_full_grid(grid_steps))
    assert got[1]["q1"] == 1 / grid_steps


def test_n3_certified_gap():
    opt, est = example_n3(n_samples=200_000)
    assert opt == pytest.approx(2.0, abs=1e-9)
    assert est.mean + 4.0 * est.stderr < 1.5


def test_spa_flat_check_accepts_reduction():
    a = cv.make_triangle(0.5, 0.5)
    assert spa_flat_check((a, a), 5_000, 3)
    assert spa_flat_check((a, cv.make_triangle(0.5, 0.4)), 40_000, 3)
    with pytest.raises(DominanceViolation):
        spa_flat_check((cv.make_triangle(0.5, 0.4), a), 1_000, 3)


def test_duplicates_beat_ratio_bound_on_random_pairs():
    # duplicating everyone recovers at least the two-triangle ratio of opt
    rng = random.Random(11)
    for i in range(300):
        a, b = random_triangle(rng), random_triangle(rng)
        base = cv.make_profile([a, b])
        bound = ratio_two_triangles(
            a.breakpoints[1][0], a.breakpoints[1][1],
            b.breakpoints[1][0], b.breakpoints[1][1],
        )
        opt = solve_exante(base, k=1).opt
        both, _ = extend_profile(base, all_once())
        est = estimate_revenue(both, NO_CONSTRAINT, "spa", 20_000, seed=i)
        assert est.mean >= bound * opt - 3.0 * est.stderr


def test_n3_profile_shape():
    prof = n3_profile()
    assert prof.n == 3
    assert cv.has_unbounded(prof)
