import math
import random

import numpy as np
import pytest

from dupkit import curves as cv
from dupkit.errors import DomainError
from dupkit.exante import exante_triangle_reduction, solve_exante
from dupkit.instances import random_concave_curve, random_profile, random_triangle
from dupkit.verify import exante_dual_bound


def test_unconstrained_when_peaks_fit():
    prof = cv.make_profile([cv.make_triangle(0.3, 1.0), cv.make_triangle(0.4, 0.8)])
    sol = solve_exante(prof, k=1)
    assert sol.quantiles == (0.3, 0.4)
    assert sol.opt == pytest.approx(1.8)
    assert sol.dual == 0.0


def test_lbhr_waterfill():
    prof = cv.make_profile([cv.make_triangle(1.0, 1.0), cv.make_equal_revenue(1.0)])
    sol = solve_exante(prof, k=1)
    assert abs(sol.opt - 2.0) <= 1e-9
    # nearly all quantile budget goes to the point mass, a sliver to the tail
    assert sol.quantiles[0] >= 1.0 - 1e-9
    assert 0.0 < sol.quantiles[1] <= 1e-9


def test_er_only_supremum():
    prof = cv.make_profile([cv.make_equal_revenue(1.0)] * 3)
    sol = solve_exante(prof, k=1)
    assert sol.opt == pytest.approx(3.0, abs=1e-9)


def test_identical_triangles_split():
    prof = cv.make_profile([cv.make_triangle(0.5, 1.0)] * 4)
    sol = solve_exante(prof, k=1)
    assert math.fsum(sol.quantiles) == pytest.approx(1.0)
    assert sol.opt == pytest.approx(2.0)  # rising slope 2, budget 1
    assert sol.dual == pytest.approx(2.0)


def test_k_scales_budget():
    prof = cv.make_profile([cv.make_triangle(0.5, 1.0)] * 4)
    assert solve_exante(prof, k=2).opt == pytest.approx(4.0)
    # k at least the total peak mass: everybody sits at their peak
    sol = solve_exante(prof, k=3)
    assert sol.opt == pytest.approx(4.0)
    assert sol.dual == 0.0


def test_bad_inputs():
    prof = cv.make_profile([cv.make_triangle(0.5, 1.0)])
    with pytest.raises(DomainError):
        solve_exante(prof, k=0)
    with pytest.raises(DomainError):
        solve_exante(prof, tol=0.0)


def test_dual_certificate():
    rng = random.Random(5)
    kinds = (random_triangle, random_concave_curve)
    for trial in range(2000):
        prof = cv.make_profile([rng.choice(kinds)(rng) for _ in range(rng.randint(1, 6))])
        k = rng.randint(1, 3)
        sol = solve_exante(prof, k=k)
        assert all(0.0 <= q <= 1.0 for q in sol.quantiles)
        assert math.fsum(sol.quantiles) <= k + 1e-9
        assert abs(sol.opt - math.fsum(map(cv.rev, prof.curves, sol.quantiles))) <= 1e-12
        assert sol.dual >= 0.0
        assert exante_dual_bound(prof, k, sol.dual) <= sol.opt + 1e-9, trial


def test_kkt_certificate():
    rng = random.Random(9)
    for trial in range(30):
        prof = random_profile(rng.randint(1, 6), rng)
        sol = solve_exante(prof, k=1)
        lam = sol.dual
        assert lam >= 0.0
        for c, q in zip(prof.curves, sol.quantiles):
            if 0.0 < q < 1.0 and not cv.is_unbounded(c):
                left = cv.slope_at(c, max(q - 1e-9, 1e-12))
                right = cv.slope_at(c, min(q + 1e-9, 1.0))
                # the dual price separates the used from the unused slopes
                assert left >= lam - 1e-6
                assert right <= lam + 1e-6 or q == cv.monopoly(c)[0]


def test_triangle_reduction_preserves_solution():
    rng = random.Random(3)
    for trial in range(10):
        prof = random_profile(rng.randint(1, 5), rng, allow_unbounded=False)
        sol = solve_exante(prof, k=1)
        reduced = exante_triangle_reduction(prof, sol)
        again = solve_exante(reduced, k=1)
        assert again.opt == pytest.approx(sol.opt, abs=1e-9)
        # reduction never exceeds the original curve anywhere
        for orig, tri in zip(prof.curves, reduced.curves):
            for q in np.linspace(0, 1, 33):
                assert cv.rev(tri, float(q)) <= cv.rev(orig, float(q)) + 1e-9
