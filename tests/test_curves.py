import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dupkit import curves as cv
from dupkit.errors import ConcavityViolation, DomainError
from dupkit.instances import random_concave_curve, random_triangle

triangle_params = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=5.0),
)


def test_triangle_geometry():
    t = cv.make_triangle(0.5, 0.5)
    assert cv.rev(t, 0.0) == 0.0
    assert cv.rev(t, 0.5) == 0.5
    assert cv.rev(t, 1.0) == 0.0
    assert cv.rev(t, 0.25) == pytest.approx(0.25)
    # rising leg is an atom at the peak value, falling leg a continuum
    assert cv.value(t, 0.25) == 1.0
    assert cv.value(t, 0.75) == pytest.approx(1.0 / 3.0)
    assert cv.monopoly(t) == (0.5, 0.5)
    assert cv.monopoly_reserve(t) == 1.0


def test_triangle_point_mass_encoding():
    pm = cv.make_triangle(1.0, 2.0)
    assert cv.rev(pm, 1.0) == 2.0
    assert cv.value(pm, 0.3) == 2.0
    assert cv.monopoly(pm) == (1.0, 2.0)


def test_point_mass_curve():
    pm = cv.make_point_mass(3.0)
    assert cv.rev(pm, 0.5) == 1.5
    assert cv.monopoly(pm) == (1.0, 3.0)
    # whole unit of quantile mass sits on the atom
    assert cv.quantile_of_value(pm, 3.0) == 1.0
    assert cv.quantile_lower_of_value(pm, 3.0) == 0.0
    assert cv.quantile_of_value(pm, 3.1) == 0.0


def test_equal_revenue_curve():
    er = cv.make_equal_revenue(2.0)
    assert cv.rev(er, 0.0) == 0.0  # jump at 0: sup is a limit, not a value
    assert cv.rev(er, 0.25) == 1.5
    assert cv.rev(er, 1.0) == 0.0
    assert cv.value(er, 0.5) == 2.0
    assert cv.quantile_of_value(er, 2.0) == 0.5
    assert cv.quantile_of_value(er, 0.0) == 1.0
    assert cv.virtual_value(er, 0.3) == -2.0
    assert cv.is_unbounded(er)
    q, r = cv.monopoly(er)
    assert q == cv.EPS_MIN and r == pytest.approx(2.0)


def test_make_piecewise_validation():
    with pytest.raises(ConcavityViolation):
        cv.make_piecewise([(0, 0), (0.5, 0.1), (1, 0.5)])  # convex
    with pytest.raises(DomainError):
        cv.make_piecewise([(0.1, 0), (1, 0)])  # must start at q=0
    with pytest.raises(DomainError):
        cv.make_piecewise([(0, 0.2), (1, 0)])  # Rev(0) != 0
    ok = cv.make_piecewise([(0, 0), (0.25, 0.5), (0.75, 0.6), (1, 0.2)])
    assert cv.rev(ok, 0.5) == pytest.approx(0.55)


def test_triangle_atom_quantile_interval():
    t = cv.make_triangle(0.5, 0.5)
    v_atom = 1.0
    hi = cv.quantile_of_value(t, v_atom)
    lo = cv.quantile_lower_of_value(t, v_atom)
    assert (lo, hi) == (0.0, 0.5)  # atom of mass 1/2 at the peak value
    # no atom strictly inside the falling leg
    assert cv.quantile_of_value(t, 0.5) == pytest.approx(
        cv.quantile_lower_of_value(t, 0.5)
    )
    # NaN is no value: both queries refuse it, on a bounded and an unbounded curve
    for curve in (t, cv.make_equal_revenue(1.5)):
        for query in (cv.quantile_of_value, cv.quantile_lower_of_value):
            with pytest.raises(DomainError):
                query(curve, float("nan"))


@given(triangle_params, st.floats(min_value=cv.EPS_MIN, max_value=1.0))
def test_quantile_value_galois(params, q):
    # quantiles below EPS_MIN are outside the supported domain: rev(q)
    # underflows there and the value ratio turns to noise
    q_peak, r_peak = params
    c = cv.make_triangle(q_peak, r_peak)
    v = cv.value(c, q)
    # quantile_of_value returns the largest quantile still worth at least v;
    # v is padded down a hair because value() itself rounds
    q_back = cv.quantile_of_value(c, v * (1.0 - 1e-12))
    assert q_back >= q - 1e-9
    assert cv.value(c, q_back) >= v - 1e-9 or q_back == 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_value_at_one_round_trips(seed):
    # Rev(1) is the last breakpoint's revenue to the bit, so the lowest value
    # maps back to quantile 1 (a chord evaluated at q=1 could land an ulp
    # below 0 and make quantile_of_value reject the value)
    rng = random.Random(seed)
    for _ in range(10):
        for c in (random_triangle(rng), random_concave_curve(rng)):
            assert cv.rev(c, 1.0) == c.breakpoints[-1][1]
            assert cv.quantile_of_value(c, cv.value(c, 1.0)) == 1.0


def _probe_curves():
    """1,500 random triangles, then 1,500 random concave curves, seed 0."""
    rng = random.Random(0)
    return ([random_triangle(rng) for _ in range(1500)]
            + [random_concave_curve(rng) for _ in range(1500)])


_PROBE_QS = (1e-9, 1e-6, 1e-3, 0.01)


def test_value_never_exceeds_supremum():
    # a first-segment value is the segment's slope, which is value(c, 0);
    # Rev(q)/q computed as (slope*q)/q read one ulp above it on 314 of
    # these 12,000 queries
    above = [(c.breakpoints, q) for c in _probe_curves() for q in _PROBE_QS
             if cv.value(c, q) > cv.value(c, 0.0)]
    assert above == []


def test_value_round_trips_on_probe():
    # the two quantile queries bracket q; inverting a later segment's value
    # (c / (v - slope)) rounds q by a few ulps, hence the 1e-12 relative
    # slack, but a value above the supremum maps back to q = 0 and fails
    bad = []
    for c in _probe_curves():
        for q in _PROBE_QS:
            v = cv.value(c, q)
            if not (cv.quantile_of_value(c, v) >= q * (1.0 - 1e-12)
                    and cv.quantile_lower_of_value(c, v) <= q * (1.0 + 1e-12)):
                bad.append((c.breakpoints, q))
    assert bad == []


def test_collinear_segments_never_exceed_supremum():
    # a later segment on the first one's ray through the origin, or within
    # a few ulps below it, joins the first, so values on it read the slope;
    # Rev(q)/q read above it on 2,777, 2,813 and 2,822 of these 10,000
    # queries per curve on the ray, and on 799, 902 and 1,662 per curve
    # below it, when only breakpoints on or above the ray joined
    above = []
    for q1, q2, s in [(0.2, 0.4, 0.7), (0.2, 0.4, 0.37), (0.2, 0.4, 2.9),
                      (0.3, 0.7, 0.35), (0.3, 0.7, 1.49), (0.3, 0.7, 3.27)]:
        c = cv.make_piecewise([(0.0, 0.0), (q1, q1 * s), (q2, q2 * s), (1.0, 0.0)])
        rng, sup = random.Random(0), cv.value(c, 0.0)
        above += [(s, q) for q in (rng.uniform(q1, q2) for _ in range(10_000))
                  if cv.value(c, q) > sup]
        assert cv.rev(c, q1) == sup * q1  # the dropped breakpoint reads slope*q
    assert above == []


def test_first_segment_value_is_the_slope():
    for c in (cv.make_point_mass(0.8), cv.make_triangle(1.0, 0.7), cv.make_triangle(0.4, 0.6),
              cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)])):
        slope, q_hi = cv.segments(c)[0][2], cv.segments(c)[0][1]
        qs = [cv.EPS_MIN, 1e-9, 0.1 * q_hi, 0.5 * q_hi, math.nextafter(q_hi, 0.0)]
        assert [cv.value(c, q) for q in qs] == [slope] * len(qs) == [cv.value(c, 0.0)] * len(qs)
    for v in (0.0, 0.3, 2.5):  # a point mass reads its value at every quantile
        assert {cv.sample_value(cv.make_point_mass(v), u) for u in (0.0, 0.3, 0.999)} == {v}


@given(triangle_params, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_rev_concavity_midpoint(params, q1, q2):
    c = cv.make_triangle(*params)
    mid = 0.5 * (q1 + q2)
    assert cv.rev(c, mid) >= 0.5 * (cv.rev(c, q1) + cv.rev(c, q2)) - 1e-12


@given(triangle_params)
def test_sample_value_matches_quantiles(params):
    c = cv.make_triangle(*params)
    for u in (0.0, 0.3, 0.7, 0.999):
        v = cv.sample_value(c, u)
        # u lies inside the drawn value's quantile interval, up to the
        # rounding the value itself picked up on the way out
        assert cv.quantile_of_value(c, v * (1.0 - 1e-12)) >= u - 1e-9
        assert cv.quantile_lower_of_value(c, v * (1.0 + 1e-12)) <= max(u, cv.EPS_MIN) + 1e-9


def test_sample_value_er_median():
    er = cv.make_equal_revenue(1.5)
    assert cv.sample_value(er, 0.5) == pytest.approx(1.5)
    with pytest.raises(DomainError):
        cv.sample_value(er, 1.0)


def test_rev_dominates():
    outer = cv.make_piecewise([(0, 0), (0.25, 0.5), (0.75, 0.6), (1, 0.2)])
    inner = cv.make_triangle(0.25, 0.5)
    assert cv.rev_dominates(outer, inner)
    assert not cv.rev_dominates(inner, outer)


def test_constructor_validation():
    with pytest.raises(DomainError):
        cv.make_triangle(0.0, 1.0)
    with pytest.raises(DomainError):
        cv.make_triangle(0.5, 0.0)
    with pytest.raises(DomainError):
        cv.make_equal_revenue(0.0)
    with pytest.raises(DomainError):
        cv.make_point_mass(-1.0)
    with pytest.raises(DomainError):
        cv.make_profile([])


def test_virtual_value_monotone_nonincreasing():
    c = cv.make_piecewise([(0, 0), (0.2, 0.4), (0.6, 0.7), (1, 0.1)])
    qs = [0.1, 0.2, 0.4, 0.6, 0.8, 0.99]
    vv = [cv.virtual_value(c, q) for q in qs]
    assert all(a >= b - 1e-12 for a, b in zip(vv, vv[1:]))


def test_kink_values():
    assert cv.kink_values(cv.make_triangle(0.5, 0.5)) == (1.0,)
    assert cv.kink_values(cv.make_equal_revenue(2.0)) == (2.0,)
    assert cv.kink_values(cv.make_point_mass(3.0)) == (3.0,)


def test_kink_values_are_kept_on_the_table():
    c = cv.make_piecewise([(0.0, 0.0), (0.2, 0.5), (0.6, 0.7), (1.0, 0.3)])
    first = cv.kink_values(c)
    assert c.table.kinks is first and cv.kink_values(c) is first
    assert first == tuple(sorted({cv.value(c, q) for q in c.table.qs}))


# One curve per constructor, plus the triangle that encodes a point mass.
_QUERY_CURVES = {
    "triangle": cv.make_triangle(0.4, 0.6),
    "triangle_atom": cv.make_triangle(1.0, 0.7),
    "point_mass": cv.make_point_mass(0.8),
    "piecewise": cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)]),
    "equal_revenue": cv.make_equal_revenue(0.7),
}
_QUERY_QS = [0.0, cv.EPS_MIN, 1e-9, 0.01, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.5, 0.6,
             0.7, 0.75, 0.9, 0.999, 1.0]
_QUERY_VS = [0.0, 0.05, 0.2, 0.3, 0.5, 0.7, 0.75, 0.8, 1.0, 1.5, 2.0, 3.0, 10.0, 1e6]
# sha256 over every scalar query's result bits on the grids above, recorded
# before the curve table replaced the per-kind branches; it pins each query
# to the last bit.  "triangle" and "piecewise" were re-recorded when rev
# took the sampler's segment expression: entries moved by at most one ulp,
# except that quantile_of_value now maps a first-segment value back to the
# atom's mass, where it read 0.  "point_mass" and "triangle_atom" were
# re-recorded when first-segment values became the slope exactly: their
# values at q in (0, 1) moved one ulp to the atom's value, and the quantile
# queries of those values moved with them, to the atom's interval [0, 1].
_QUERY_GOLDEN = {
    "triangle": "c4a5eb67fbf8918c1f58b05c0819f524e1dea7e527b88221c8197eb3484df1a5",
    "triangle_atom": "a2936ed89cfd7cc1edb297ea17793e53c91fefb9692769339cbe15330e8025c4",
    "point_mass": "d78ce06ba771fb37c14945d35c4df9042ff215b4fba08ad655aa0681894e7a34",
    "piecewise": "312bdbfcb6c710ee9385d6e8739247493e0f9b3f79b05ca6848033739b68132c",
    "equal_revenue": "8e8b77e9e81bda86f4d355de3de61226f5c138a9836d5493a1d3fc1c27fc9439",
}


def _query_results(c):
    out = []
    for q in _QUERY_QS:
        v = math.inf if c.scale and q == 0.0 else cv.value(c, q)
        out += [cv.rev(c, q), v, cv.slope_at(c, q)]
    vs = _QUERY_VS + [cv.value(c, q) for q in _QUERY_QS if q > 0.0]
    for v in vs:
        out += [cv.quantile_of_value(c, v), cv.quantile_lower_of_value(c, v)]
    out += cv.monopoly(c)
    out += cv.kink_values(c)
    for seg in cv.segments(c):
        out += seg
    return out


@pytest.mark.parametrize("name", sorted(_QUERY_CURVES))
def test_scalar_queries_golden_digest(name):
    results = _query_results(_QUERY_CURVES[name])
    digest = hashlib.sha256(struct.pack(f"<{len(results)}d", *results)).hexdigest()
    assert digest == _QUERY_GOLDEN[name]


def test_value_pieces_are_value_piece():
    # at each breakpoint test (floor, ceiling, each segment's right-end
    # value) and one ulp either side, where the first passing test changes
    rng = random.Random(3)
    curves = [*_QUERY_CURVES.values(), cv.make_point_mass(0.0),
              *(random_concave_curve(rng) for _ in range(6)),
              *(random_triangle(rng) for _ in range(3))]
    edges = {0.0, *_QUERY_VS}
    for c in curves:
        t = c.table
        edges.update([t.floor, t.ceiling, *(slope + k / q1 for _, q1, slope, k in t.segments)])
    edges = {v for v in edges if math.isfinite(v)}
    vs = sorted(v for e in edges
                for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)))
    got = cv.value_pieces(curves, np.array(vs))
    assert got.shape == (len(vs), len(curves), 3)
    for i, v in enumerate(vs):
        for j, c in enumerate(curves):
            assert got[i, j].tobytes() == np.array(cv.value_piece(c, v)).tobytes(), (v, j)
