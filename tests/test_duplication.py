import pytest

from dupkit import curves as cv
from dupkit.duplication import (
    all_once,
    best_single_duplicate,
    duplicate_sources,
    extend_profile,
    k_copies_of,
    noisy_beta_reports,
    select_by_beta,
    select_by_noisy_beta,
    select_by_sample,
    select_k_set_noisy,
    set_once,
    single_of,
)
from dupkit.mechanisms import NO_CONSTRAINT
from dupkit.simulate import mechanism_revenue_quadrature


@pytest.fixture
def prof():
    return cv.make_profile(
        [cv.make_triangle(0.5, 0.5), cv.make_triangle(0.3, 0.9), cv.make_point_mass(0.4)],
        names=("a", "b", "c"),
    )


def test_duplicate_sources():
    assert duplicate_sources(single_of(1), 3) == [1]
    assert duplicate_sources(k_copies_of(0, 3), 3) == [0, 0, 0]
    assert duplicate_sources(set_once((2, 0)), 3) == [2, 0]  # append order as given
    assert duplicate_sources(all_once(), 3) == [0, 1, 2]
    with pytest.raises(IndexError):
        duplicate_sources(single_of(3), 3)
    with pytest.raises(IndexError):
        duplicate_sources(set_once((0, 5)), 3)


def test_extend_profile_clones_and_names(prof):
    ext, con = extend_profile(prof, single_of(1))
    assert ext.n == 4
    assert ext.curves[3] == prof.curves[1]
    assert ext.names == ("a", "b", "c", "b*")
    assert con.pairs == ()


def test_extend_profile_pair_constraint(prof):
    ext, con = extend_profile(prof, all_once(pair_constrained=True))
    assert ext.n == 6
    assert con.pairs == ((0, 3), (1, 4), (2, 5))
    assert ext.curves[3:] == prof.curves


def test_select_by_beta(prof):
    # revenues at beta=0.5: a: 0.5, b: 0.9*(5/7)=0.643, c: 0.2
    assert select_by_beta(prof, 0.5) == 1
    tie = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    assert select_by_beta(tie, 0.4) == 0  # ties break to the lowest index


def test_noisy_reports_deterministic(prof):
    a = noisy_beta_reports(prof, 0.5, 0.1, seed=4)
    b = noisy_beta_reports(prof, 0.5, 0.1, seed=4)
    c = noisy_beta_reports(prof, 0.5, 0.1, seed=5)
    assert a == b
    assert a != c
    exact = noisy_beta_reports(prof, 0.5, 0.0, seed=9)
    assert [q for _, q in exact] == [0.5, 0.5, 0.5]
    assert [r for r, _ in exact] == pytest.approx([cv.rev(c_, 0.5) for c_ in prof.curves])


def test_noisy_selection_rules(prof):
    reports = noisy_beta_reports(prof, 0.5, 0.05, seed=2)
    assert select_by_noisy_beta(reports) == max(
        range(3), key=lambda i: (reports[i], -i)
    )
    chosen = select_k_set_noisy(reports, 2)
    assert isinstance(chosen, frozenset) and len(chosen) == 2
    assert select_by_sample([0.1, 3.0, 0.2]) == 1


def test_best_single_duplicate_exhaustive(prof):
    def evaluator(extended, constraint):
        return mechanism_revenue_quadrature(extended, k=1)

    idx, val = best_single_duplicate(prof, evaluator)
    scores = []
    for i in range(prof.n):
        ext, _ = extend_profile(prof, single_of(i))
        scores.append(mechanism_revenue_quadrature(ext, k=1))
    assert val == pytest.approx(max(scores))
    assert idx == scores.index(max(scores))

