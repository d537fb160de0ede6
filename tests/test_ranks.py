"""One rank rule for every count argument (errors.check_rank).

A count (k, r, n, n_samples) is an integer >= 1; a bool, a float, a
string, None or 0 raises DomainError naming the argument.  The quadrature's
r and k are checked in tests/test_simulate.py.
"""

import random

import numpy as np
import pytest

from dupkit import analysis, curves as cv
from dupkit.duplication import k_copies_of, select_k_set_noisy
from dupkit.errors import DomainError, check_rank, is_rank
from dupkit.exante import solve_exante
from dupkit.instances import random_profile
from dupkit.mechanisms import NO_CONSTRAINT, PairConstraint, run_vcg_constrained, run_vcg_k
from dupkit.simulate import estimate_revenue, paired_compare, sample_revenues

_PROFILE = cv.make_profile([cv.make_triangle(0.5, 0.5), cv.make_triangle(0.4, 0.6),
                            cv.make_triangle(0.3, 0.8), cv.make_equal_revenue(0.5)])
_BIDS, _PAIR = [3, 2, 1, 0.5], PairConstraint(((0, 1),))

# (argument, the call with that argument set to the value under test)
_ENTRY_POINTS = {
    "run_vcg_k": ("k", lambda v: run_vcg_k(_BIDS, v)),
    "run_vcg_constrained": ("k", lambda v: run_vcg_constrained(_BIDS, v, _PAIR)),
    "solve_exante": ("k", lambda v: solve_exante(_PROFILE, k=v)),
    "classify_k": ("k", lambda v: analysis.classify_k(_PROFILE, v, 0.5, 0.2, 0.1,
                                                      solve_exante(_PROFILE, k=2))),
    "k_copies_of": ("k", lambda v: k_copies_of(0, v)),
    "select_k_set_noisy": ("k", lambda v: select_k_set_noisy([(1.0, 0), (2.0, 1)], v)),
    "random_profile": ("n", lambda v: random_profile(v, random.Random(0))),
    "sample_revenues": ("n_samples",
                        lambda v: sample_revenues(_PROFILE, NO_CONSTRAINT, "spa", v, 0)),
    "estimate_revenue": ("n_samples",
                         lambda v: estimate_revenue(_PROFILE, NO_CONSTRAINT, "spa", v, 0)),
    "paired_compare": ("n_samples", lambda v: paired_compare(_PROFILE, _PROFILE, NO_CONSTRAINT,
                                                             NO_CONSTRAINT, "spa", v, 0)),
}


@pytest.mark.parametrize("value", [True, 1.5, "2", None, 0])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_count_argument_follows_the_rank_rule(entry, value):
    name, call = _ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=rf"^{name} must be an integer >= 1, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_a_numpy_integer_is_a_count(entry):
    _, call = _ENTRY_POINTS[entry]
    got, want = call(np.int64(2)), call(2)
    assert got.tobytes() == want.tobytes() if isinstance(want, np.ndarray) else got == want


def test_the_rank_rule():
    for good in (1, 7, np.int64(3), np.uint8(1)):
        assert is_rank(good)
        check_rank("k", good)
    for bad in (0, -1, True, False, np.bool_(True), 1.0, 1.5, "2", None, np.float64(2)):
        assert not is_rank(bad)

