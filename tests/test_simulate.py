import hashlib
import math
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dupkit import curves as cv, simulate
from dupkit.duplication import (
    all_once,
    best_single_duplicate,
    extend_profile,
    k_copies_of,
    set_once,
)
from dupkit.errors import DomainError, NonConvergence, ProfileMismatch, UnboundedExpectation
from dupkit.examples import lbhr_profile, n3_profile
from dupkit.instances import random_concave_curve, random_profile, random_triangle
from dupkit.mechanisms import (
    NO_CONSTRAINT,
    PairConstraint,
    run_lookahead,
    run_myerson_single,
    run_posted,
    run_spa,
    run_spald,
    run_vcg_constrained,
    run_vcg_k,
)
from dupkit.simulate import (
    _ROW_BUDGET,
    Estimate,
    _RowStore,
    _value_row,
    _block_means,
    _Chunk,
    _median,
    _pick,
    _rev_vcg_constrained,
    _top,
    estimate_revenue,
    expected_order_stat,
    mechanism_names,
    mechanism_revenue_quadrature,
    paired_compare,
    sample_revenues,
    uniforms,
)

LN4 = math.log(4.0)


def test_uniforms_contract():
    a = uniforms(7, 0, 0, 64)
    assert a.shape == (64,)
    assert np.all((0.0 <= a) & (a < 1.0))
    # addressable: slicing by counter range is exact, not stream-dependent
    assert np.array_equal(a, np.concatenate([uniforms(7, 0, 0, 20), uniforms(7, 0, 20, 64)]))
    assert not np.array_equal(a, uniforms(7, 1, 0, 64))
    assert not np.array_equal(a, uniforms(8, 0, 0, 64))


def test_sample_revenues_deterministic_and_worker_independent(monkeypatch):
    # workers is accepted and ignored: a call of more than one chunk runs
    # every chunk in the caller's thread, bit for bit as without it
    prof = cv.make_profile(
        [cv.make_triangle(0.5, 0.5), cv.make_equal_revenue(1.0), cv.make_point_mass(0.3)]
    )
    n = 70_001
    assert n > simulate._CHUNK
    a = sample_revenues(prof, NO_CONSTRAINT, "spa", n, 13)

    def no_thread(self):
        raise AssertionError("sampling started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for b in (sample_revenues(prof, NO_CONSTRAINT, "spa", n, 13, 4),
              sample_revenues(prof, NO_CONSTRAINT, "spa", n, 13, workers=4)):
        assert b.tobytes() == a.tobytes()

    def evaluator(extended, constraint):
        return estimate_revenue(extended, constraint, "spa", n, 13).mean

    best = [best_single_duplicate(prof, evaluator, **kw) for kw in ({}, {"workers": 4})]
    assert best[0] == best[1]
    c = sample_revenues(prof, NO_CONSTRAINT, "spa", n, 14)
    assert not np.array_equal(a, c)


def _scalar_revenues(profile, constraint, mechanism, n, seed, **params):
    """Reference path: one scalar mechanism call per sample."""
    nb = profile.n
    u = [uniforms(seed, i, 0, n) for i in range(nb)]
    out = []
    for t in range(n):
        vals = [cv.sample_value(profile.curves[i], float(u[i][t])) for i in range(nb)]
        if mechanism == "spa":
            out.append(run_spa(vals).revenue)
        elif mechanism == "vcg":
            out.append(run_vcg_k(vals, params["k"]).revenue)
        elif mechanism == "vcg_constrained":
            out.append(run_vcg_constrained(vals, params["k"], constraint).revenue)
        elif mechanism == "myerson":
            out.append(run_myerson_single(profile, vals).revenue)
        elif mechanism == "lookahead":
            out.append(run_lookahead(profile, vals).revenue)
        elif mechanism == "spald":
            top = min(range(nb), key=lambda i: (-vals[i], i))
            du = float(uniforms(seed, nb + top, t, t + 1)[0])
            out.append(run_spald(profile, vals, du).revenue)
        elif mechanism == "posted":
            out.append(run_posted(params["prices"], vals).revenue)
    return np.array(out)


# Each case is a mechanism on random profiles, or on one fixed profile.
# "myerson-point-mass-floor" pairs a point mass, whose draws all read the
# atom's value, which is also the curve's support floor, with a triangle.
# "myerson-rising" has a curve whose revenue rises up to q = 1, so its
# winner pays the value at q = 1, which the scalar reads as rs[-1]; a
# kernel evaluating the last segment's expression at q = 1 paid one ulp off
# it on every one of the 1,028 draws.
# The kernels read the values cv.sample_value gives, bit for bit, so
# revenues agree to the byte, except for vcg_constrained, whose scalar
# reference computes each payment as an fsum of externalities.
_KERNEL_CASES = {
    **{m: (m, None) for m in ["spa", "vcg", "vcg_constrained", "myerson",
                              "lookahead", "spald", "posted"]},
    "myerson-point-mass-floor": (
        "myerson", cv.make_profile([cv.make_point_mass(0.7), cv.make_triangle(0.5, 0.2)])),
    "myerson-rising": ("myerson", cv.make_profile([
        cv.make_piecewise([(0, 0), (0.224897493700499, 0.7067377128221777),
                           (1, 1.668271049659744)]),
        cv.make_point_mass(0.0)])),
    # a lone bidder: the kernels' second value reads -inf, the scalar's 0
    **{f"{m}-lone": (m, cv.make_profile([cv.make_triangle(0.5, 0.4)]))
       for m in ["spa", "lookahead", "spald"]},
    "lookahead-lone-zero": ("lookahead", cv.make_profile([cv.make_point_mass(0.0)])),
}


@pytest.mark.parametrize("mechanism, fixed", list(_KERNEL_CASES.values()), ids=list(_KERNEL_CASES))
def test_kernels_match_scalar_mechanisms(mechanism, fixed):
    rng = random.Random(sum(mechanism.encode()))
    for trial in range(4):
        prof = fixed or random_profile(rng.randint(2, 5), rng)
        n = prof.n
        pairs = ((0, 1),) if n >= 2 and mechanism == "vcg_constrained" else ()
        constraint = PairConstraint(pairs)
        params = {}
        if mechanism in ("vcg", "vcg_constrained"):
            params["k"] = rng.randint(1, 3)
        if mechanism == "posted":
            params["prices"] = [round(rng.uniform(0, 2), 2) for _ in range(n)]
        fast = sample_revenues(prof, constraint, mechanism, 257, seed=trial, **params)
        slow = _scalar_revenues(prof, constraint, mechanism, 257, seed=trial, **params)
        if mechanism == "vcg_constrained":
            np.testing.assert_allclose(fast, slow, atol=1e-9)
        else:
            assert fast.tobytes() == slow.tobytes()


def test_fill_rows_are_scalar_sample_values(monkeypatch):
    # every row fill hands a kernel, spald's late-duplicate rows n..2n-1
    # included, holds cv.sample_value of its uniforms, bit for bit
    curves = [cv.make_triangle(0.4, 0.6), cv.make_triangle(1.0, 0.7), cv.make_point_mass(0.8),
              cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)]),
              cv.make_equal_revenue(0.7)]
    n, n_samples, seed = len(curves), 100_000, 5
    seen = np.full((2 * n, n_samples), np.nan)

    def capture(curves, constraint, ch, params):
        assert len(ch.v) == 2 * n
        seen[:, ch.lo : ch.hi] = ch.v
        return np.zeros(ch.hi - ch.lo)

    monkeypatch.setitem(simulate._MECHANISMS, "spald", capture)
    # one CPU: a split call's worker would fill its range in its own copy
    # of seen
    _cpus(monkeypatch, 1)
    sample_revenues(cv.make_profile(curves), NO_CONSTRAINT, "spald", n_samples, seed)
    for i, row in enumerate(seen):
        c = curves[i % n]
        want = [cv.sample_value(c, u) for u in uniforms(seed, i, 0, n_samples).tolist()]
        assert row.tobytes() == np.array(want).tobytes(), (i, c)


def test_one_segment_rows_draw_no_uniforms(monkeypatch):
    # a bounded one-segment curve has one value, its slope: its row is that
    # constant, with no uniforms drawn and no row store lookup
    calls = []
    draw = simulate.uniforms
    monkeypatch.setattr(simulate, "uniforms", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
    store = _CountingStore(_ROW_BUDGET)
    monkeypatch.setattr(simulate._SCRATCH, "rows", store, raising=False)
    flat = [cv.make_point_mass(0.8), cv.make_triangle(1.0, 0.7), cv.make_point_mass(0.0)]
    for seed in (3, 3):  # the repeat is admitted to the store
        rev = sample_revenues(cv.make_profile(flat), NO_CONSTRAINT, "vcg", 40_000, seed, k=2)
        assert calls == [] and store.lookups == 0
        assert np.all(rev == 0.0) and rev.shape == (40_000,)
    both = cv.make_profile([flat[0], cv.make_triangle(0.4, 0.6)])
    rev = sample_revenues(both, NO_CONSTRAINT, "spa", 40_000, 4)
    assert [a[1] for a in calls] == [1, 1]  # two chunks of the triangle's substream
    assert rev.tobytes() == np.minimum(
        0.8, [cv.sample_value(both.curves[1], u) for u in uniforms(4, 1, 0, 40_000)]).tobytes()


def test_sampled_rows_never_exceed_supremum(monkeypatch):
    # the sampling half of the value-above-supremum probe in test_curves
    rng = random.Random(0)
    probe = ([random_triangle(rng) for _ in range(1500)]
             + [random_concave_curve(rng) for _ in range(1500)])
    above = []

    def capture(curves, constraint, ch, params):
        for c, row in zip(curves, ch.v):
            if np.any(row > cv.value(c, 0.0)):
                above.append(c.breakpoints)
        return np.zeros(ch.hi - ch.lo)

    monkeypatch.setitem(simulate._MECHANISMS, "spa", capture)
    for j in range(0, len(probe), 100):
        sample_revenues(cv.make_profile(probe[j : j + 100]), NO_CONSTRAINT, "spa", 1000, 0)
    assert above == []


def test_collinear_rows_never_exceed_supremum(monkeypatch):
    # the sampling half of test_curves' collinear-segment probe: a segment
    # on the first one's ray, or a few ulps below it, reads its slope;
    # Rev(q)/q read above it on 5,673 of the first three curves' 100,002
    # values, and on 4,494 of the last three's when only breakpoints on or
    # above the ray joined the first segment
    curves = [cv.make_piecewise([(0.0, 0.0), (q1, q1 * s), (q2, q2 * s), (1.0, 0.0)])
              for q1, q2, s in [(0.2, 0.4, 0.7), (0.2, 0.4, 0.37), (0.2, 0.4, 2.9),
                                (0.3, 0.7, 0.35), (0.3, 0.7, 1.49), (0.3, 0.7, 3.27)]]
    above = []

    def capture(curves, constraint, ch, params):
        above.extend(int(np.sum(row > cv.value(c, 0.0))) for c, row in zip(curves, ch.v))
        return np.zeros(ch.hi - ch.lo)

    monkeypatch.setitem(simulate._MECHANISMS, "spa", capture)
    sample_revenues(cv.make_profile(curves), NO_CONSTRAINT, "spa", 33_334, 0)
    assert sum(above) == 0


# sha256 of sample_revenues(...).tobytes() over 70_001 draws (four full
# 16,384-draw chunks plus a partial one).  Recorded from the searchsorted /
# np.partition pipeline; any rewrite must keep every bit.  Re-recorded once
# when first-segment draws took their slope exactly: every moved value sat
# on a first segment and moved by at most one ulp, to the slope, and every
# other value kept its bits (posted's digests did not move).  The "mixed"
# profile has one curve of each kind; "cloned" holds every curve twice, so
# values and virtual values tie across bidders and tie-breaks are pinned.
# "tail07" has two equal-revenue curves at scale 0.7, where scale*(1-q)
# and scale - scale*q differ in the last bit on many draws (at 0.5 they
# agree), so it pins the closed form of the unbounded tail.
_GOLDEN_CURVES = [
    cv.make_triangle(0.4, 0.6),
    cv.make_point_mass(0.8),
    cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)]),
    cv.make_equal_revenue(0.5),
]
_GOLDEN_PROFILES = {
    "mixed": (cv.make_profile([*_GOLDEN_CURVES, cv.make_triangle(1.0, 0.7)]), 11,
              PairConstraint(((0, 4), (1, 2))), 2, [0.9, 0.75, 0.5, 1.2, 0.6]),
    "cloned": (cv.make_profile(_GOLDEN_CURVES * 2), 12,
               PairConstraint(((0, 4), (1, 5), (2, 6), (3, 7))), 3, [0.9, 0.75, 0.5, 1.2] * 2),
    "tail07": (cv.make_profile([cv.make_equal_revenue(0.7), cv.make_triangle(0.3, 0.5),
                                _GOLDEN_CURVES[2], cv.make_equal_revenue(0.7),
                                cv.make_point_mass(0.6)]), 13,
               PairConstraint(((0, 3), (1, 4))), 2, [1.1, 0.9, 0.6, 2.0, 0.5]),
}
_GOLDEN = {
    "mixed": {
        "spa": "14d6782d00fbefc8475d5171d3e939f8b104d7e0f4b3c6cf82c1ad5ccdc492dd",
        "vcg": "b22f582f8f96fbd17e68f9320e6a6c7dd612ef28177c472c03e9066f060eaf99",
        "vcg_constrained": "1f106f5c16214fb677b2f9b669164adf6afada1e7856da8e08420909115f6c5c",
        "myerson": "04ee4d9aac306fa110841b31481675b582dac51b1b155232c4e9947a56940cad",
        "lookahead": "5b9eaddbf3c651758337b0681b3156002db8eafd168bc560529327a2308666a3",
        "spald": "d49ade1ad58ca2b5e77ae2c95d826209ff77a240a57c3ba19112c31a0b142de1",
        "posted": "195acbbb8844d0ddf08f342fb6b446558ab1d2258a0d1b118cfa00506a2dfb59",
    },
    "cloned": {
        "spa": "0c2359d2fbbbed2052ee186ea025ba466977d1493c1377474114fcdfa5908640",
        "vcg": "8ea32b46898dbf72698e12c02b04bddeec8ac556e883abf7cc20a22db79f39f8",
        "vcg_constrained": "7907fa3acc6b16ab2a000f0fd941d08f9ef4364b3f80bc83180d7925388bbbcd",
        "myerson": "6e39e4f12103acec72a077c315453614c602d979ae561eaa0d94ad07da5607b1",
        "lookahead": "de32e1821d12d929cb27dc02efccdcb73f49e50aefc8f3116a3d3d150009f851",
        "spald": "bbfcb8a2243ddfcc806805d36cdf6ddc3ef35361ba8e0099862a214d8b5a53c1",
        "posted": "96b9492cd510d93d00d40135839248c37425ef88b1a20559bb0cfe37c494a1f6",
    },
    "tail07": {
        "spa": "ac08cfca7e1e813ff7b737d69c5500f83e76d7a871ce4fb00b2a6e0ecb36226e",
        "vcg": "a481ed498e7e5678baf9373e1d0cfd45837e0423b99a3e71c550870591ef31bb",
        "vcg_constrained": "f7f2d4a9f09dbae00af4ed430ea9d1d590f4244ca6dd9e7a143e3dafedb629eb",
        "myerson": "859d11dedd27bc04f31ee0efe8b3ee41f98bd6529c3fa0b8d29f9a4ee4fc73db",
        "lookahead": "bdcce0a8c64129d39dc56ac608b1787ed8cf65b11c56453c54bd7648946ba0ce",
        "spald": "1da8e99813780c0b7361d2825a2f68928c26db4c17526adc64816e37162adc1d",
        "posted": "fcb0121f6f9e6991496dde3cfc20092a044e9de09cfcb1a03593d966a7e1f1f3",
    },
}


@pytest.mark.parametrize("profile_name", sorted(_GOLDEN))
@pytest.mark.parametrize("mechanism", sorted(_GOLDEN["mixed"]))
def test_sample_revenues_golden_digest(profile_name, mechanism):
    profile, seed, pairs, k, prices = _GOLDEN_PROFILES[profile_name]
    constraint, params = NO_CONSTRAINT, {}
    if mechanism in ("vcg", "vcg_constrained"):
        params["k"] = k
    if mechanism == "vcg_constrained":
        constraint = pairs
    if mechanism == "posted":
        params["prices"] = prices
    rev = sample_revenues(profile, constraint, mechanism, 70_001, seed, **params)
    assert hashlib.sha256(rev.tobytes()).hexdigest() == _GOLDEN[profile_name][mechanism]


# Small columns drawn from a few values, so ties are common.
tie_columns = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


@given(tie_columns)
def test_order_statistics_match_numpy(columns):
    v = np.array(columns).T  # (n bidders, m draws)
    before = v.copy()
    n = v.shape[0]
    order = np.argsort(-v, axis=0, kind="stable")
    empty = np.full(v.shape[1], -np.inf)
    for r in range(1, n + 2):  # r = n + 1 leaves one slot empty
        for carry in range(r + 1):
            top, who = _top(v, r, carry)
            assert len(top) == r and len(who) == carry
            assert who.dtype == np.uint8
            for s, row in enumerate(top):
                want = np.partition(v, n - 1 - s, axis=0)[n - 1 - s] if s < n else empty
                assert np.array_equal(row, want)
            for s, row in enumerate(who):
                # column by column, the index of the row ranked s-th; an
                # empty slot reads the row count
                assert np.array_equal(row, order[s] if s < n else np.full_like(row, n))
    assert np.array_equal(v, before)


@given(tie_columns)
def test_pick_reads_the_named_row_bit_for_bit(columns):
    v = np.array(columns).T
    rows = [np.negative(v[0])] + list(v[1:])  # -0.0 against 0.0 tells the bits apart
    for who in np.argsort(-v, axis=0, kind="stable").astype(np.uint8):
        want = np.array([rows[e][c] for c, e in enumerate(who)])
        assert _pick(rows, who, np.empty(v.shape[1])).tobytes() == want.tobytes()


def test_top_indices_take_the_narrowest_unsigned_type():
    for n, dtype in ((3, np.uint8), (255, np.uint8), (256, np.uint16)):
        v = np.arange(n, dtype=float)[:, None] % 7  # ties across rows
        top, who = _top(v, 3, carry=2)
        assert who.dtype == dtype
        assert who[:, 0].tolist() == np.argsort(-v[:, 0], kind="stable")[:2].tolist()


# Slopes 2, 1, 0.5 and -0.5: a virtual value equal to one of them is where
# a strict and a weak runner-up bar give different prices.  _BUMP_CURVE's
# slopes are 1, 0.5 and 0.5 + 1e-12, which concavity's tolerance admits:
# its winners' price breakpoint is the first segment that fails the bar.  An
# edge found by searchsorted on the slopes, which assumes them sorted, paid
# another breakpoint than the scalar on 619 of 2,000 three-bidder draws, and
# so does a count of every passing segment.
_EDGE_CURVE = cv.make_piecewise([(0.0, 0.0), (0.2, 0.4), (0.4, 0.6), (0.6, 0.7), (1.0, 0.5)])
_BUMP_CURVE = cv.make_piecewise([(0, 0), (0.2, 0.2), (0.4, 0.3), (0.6, 0.4 + 0.2e-12), (1.0, 0.3)])
_REPEATS = [_EDGE_CURVE, _BUMP_CURVE, cv.make_triangle(0.5, 0.5), cv.make_point_mass(0.5),
            cv.make_equal_revenue(0.5), cv.make_piecewise([(0, 0), (0.5, 1.0), (1.0, 0.5)])]


# The examples rank no bidder (every virtual value is < 0) and one that
# drops its equal-revenue bidders before ranking the rest.
@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(_REPEATS))), min_size=1, max_size=6),
       st.sampled_from(["myerson", "lookahead", "spald"]), st.integers(0, 3))
@example([4, 4], "myerson", 0)
@example([4, 1, 4, 1, 5], "myerson", 1)
def test_kernels_match_scalar_on_repeated_curves(picks, mechanism, seed):
    # repeated curves tie values and virtual values across bidders, so the
    # winner, its runner-up and the duplicate a kernel reads by index must
    # follow the scalar's tie rule
    prof = cv.make_profile([_REPEATS[j] for j in picks])
    fast = sample_revenues(prof, NO_CONSTRAINT, mechanism, 300, seed)
    slow = _scalar_revenues(prof, NO_CONSTRAINT, mechanism, 300, seed)
    assert fast.tobytes() == slow.tobytes()


def _vcg_constrained_by_argsort(v, constraint, k):
    """Reference: stack the pool and its rivals, pick winners by stable argsort."""
    n = v.shape[0]
    partner = constraint.partner(n)
    rows, rivals = [], []
    for i in range(n):
        j = partner[i]
        if j < 0:
            rows.append(v[i])
            rivals.append(np.zeros(v.shape[1]))
        elif i < j:
            rows.append(np.maximum(v[i], v[j]))
            rivals.append(np.minimum(v[i], v[j]))
    pool, rival = np.stack(rows), np.stack(rivals)
    if pool.shape[0] <= k:
        return rival.sum(axis=0)
    thr = np.partition(pool, pool.shape[0] - 1 - k, axis=0)[pool.shape[0] - 1 - k]
    order = np.argsort(-pool, axis=0, kind="stable")[:k]
    return np.maximum(np.take_along_axis(rival, order, axis=0), thr[None, :]).sum(axis=0)


# A wrong tie-break among pool entries changes no payment, only the order
# of the payment sum from the third winner on, so these columns have up to
# 12 bidders and values whose sums depend on their order.
rounding_tie_columns = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


# The example pools (0.2 rival 0.2), (0.2 rival 0.1), (0.7 rival 0.3) and 0.1
# unpaired.  The 0.7 entry displaces the first 0.2, which must stay ahead of
# the tied second one: 0.3 + 0.2 + 0.1 summed in the other order is an ulp off.
@example([[0.2, 0.2, 0.1, 0.2, 0.3, 0.7, 0.1]], 3, 3)
@given(rounding_tie_columns, st.integers(0, 6), st.integers(1, 5))
def test_vcg_constrained_matches_stable_argsort(columns, n_pairs, k):
    v = np.array(columns).T
    n_pairs = min(n_pairs, v.shape[0] // 2)
    constraint = PairConstraint(tuple((2 * p, 2 * p + 1) for p in range(n_pairs)))
    before = v.copy()
    got = _rev_vcg_constrained(None, constraint, _Chunk(v, [], 0, v.shape[1]), {"k": k})
    want = _vcg_constrained_by_argsort(v, constraint, k)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(v, before)


@pytest.mark.parametrize("mechanism", ["vcg", "vcg_constrained"])
@pytest.mark.parametrize("k", [0, -1, 1.0, None, True])
def test_vcg_rejects_bad_k(mechanism, k):
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 3)
    params = {} if k is None else {"k": k}
    with pytest.raises(DomainError, match="k >= 1"):
        sample_revenues(prof, PairConstraint(((0, 1),)), mechanism, 100, 0, **params)


@pytest.mark.parametrize("mechanism, params", [
    ("spa", {"k": 3}), ("spa", {"prices": [0.5, 0.5]}), ("myerson", {"k": 1}),
    ("vcg", {"k": 1, "prices": [0.5, 0.5]}), ("posted", {"prices": [0.5, 0.5], "k": 1}),
])
def test_unread_mechanism_params_are_refused_before_drawing(monkeypatch, mechanism, params):
    drawn = []
    monkeypatch.setattr(simulate, "uniforms", lambda *a, **kw: drawn.append(a))
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    with pytest.raises(DomainError, match="reads no parameter"):
        sample_revenues(prof, NO_CONSTRAINT, mechanism, 100, 0, **params)
    assert drawn == []


def test_estimators_refuse_workers_before_drawing(monkeypatch):
    # sample_revenues alone keeps an ignored workers parameter
    drawn = []
    monkeypatch.setattr(simulate, "uniforms", lambda *a, **kw: drawn.append(a))
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    with pytest.raises(DomainError, match="spa reads no parameter 'workers'"):
        estimate_revenue(prof, NO_CONSTRAINT, "spa", 100, 0, workers=2)
    with pytest.raises(DomainError, match="spa reads no parameter 'workers'"):
        paired_compare(prof, prof, NO_CONSTRAINT, NO_CONSTRAINT, "spa", 100, 0, workers=2)
    assert drawn == []


@pytest.mark.parametrize("prices", [[-1, -1], [0.5, math.nan], [math.inf, -0.5], [True, True]])
def test_posted_prices_below_zero_or_nan_are_refused(monkeypatch, prices):
    # the kernel refuses them before drawing, and the scalar reference agrees
    drawn = []
    monkeypatch.setattr(simulate, "uniforms", lambda *a, **kw: drawn.append(a))
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    with pytest.raises(DomainError, match="prices >= 0"):
        sample_revenues(prof, NO_CONSTRAINT, "posted", 100, 0, prices=prices)
    assert drawn == []
    with pytest.raises(DomainError, match="prices must be numbers >= 0"):
        run_posted(prices, [1.0, 1.0])


def test_estimator_defaults():
    bounded = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    heavy = cv.make_profile([cv.make_triangle(0.5, 0.5), cv.make_equal_revenue(1.0)])
    e1 = estimate_revenue(bounded, NO_CONSTRAINT, "spa", 10_000, 0)
    e2 = estimate_revenue(heavy, NO_CONSTRAINT, "spa", 10_000, 0)
    assert e1.estimator == "plain" and e1.blocks == 0
    assert e2.estimator == "median_of_means" and e2.blocks == 100
    forced = estimate_revenue(heavy, NO_CONSTRAINT, "spa", 10_000, 0, "plain")
    assert forced.estimator == "plain"


def test_estimate_reproducible():
    prof = cv.make_profile([cv.make_triangle(0.7, 0.9)] * 3)
    a = estimate_revenue(prof, NO_CONSTRAINT, "spa", 50_000, 21)
    b = estimate_revenue(prof, NO_CONSTRAINT, "spa", 50_000, 21)
    assert a == b


def test_unknown_mechanism():
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)])
    with pytest.raises(DomainError):
        sample_revenues(prof, NO_CONSTRAINT, "english", 10, 0)
    assert "spa" in mechanism_names() and "vcg" in mechanism_names()


def test_unknown_estimator_refused_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking the estimator")

    monkeypatch.setattr(simulate, "sample_revenues", no_draws)
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    with pytest.raises(DomainError, match="unknown estimator"):
        estimate_revenue(prof, NO_CONSTRAINT, "spa", 2_000_000, 0, "bogus")
    with pytest.raises(DomainError, match="unknown estimator"):
        paired_compare(prof, prof, NO_CONSTRAINT, NO_CONSTRAINT, "spa", 2_000_000, 0, "bogus")


def test_paired_compare_identical_is_zero():
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    diff = paired_compare(prof, prof, NO_CONSTRAINT, NO_CONSTRAINT, "spa", 5_000, 3)
    assert diff.mean == 0.0 and diff.stderr == 0.0


def test_paired_compare_added_bidder_helps_spa():
    base = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    more = cv.make_profile([*base.curves, cv.make_triangle(0.5, 0.5)])
    diff = paired_compare(more, base, NO_CONSTRAINT, NO_CONSTRAINT, "spa", 20_000, 3)
    assert diff.mean >= 0.0  # pathwise monotone under common randomness


def test_paired_compare_mismatch():
    a = cv.make_profile([cv.make_triangle(0.5, 0.5)])
    b = cv.make_profile([cv.make_triangle(0.4, 0.5)])
    with pytest.raises(ProfileMismatch):
        paired_compare(a, b, NO_CONSTRAINT, NO_CONSTRAINT, "spa", 100, 0)


# Two runs that share rows: bidders 0-2 and spald's duplicates of them,
# and, in "clone", bidder 3 too, whose curve is bidder 0's, so its row is
# also spald's duplicate of bidder 0 in the three-bidder run.
_PAIRED_CURVES = [cv.make_triangle(0.4, 0.6), cv.make_equal_revenue(0.5),
                  cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)])]
_PAIRED_RUNS = {
    "same-size": (cv.make_profile([*_PAIRED_CURVES, _PAIRED_CURVES[0]]),
                  cv.make_profile([*_PAIRED_CURVES, cv.make_point_mass(0.4)])),
    "clone": (cv.make_profile([*_PAIRED_CURVES, _PAIRED_CURVES[0]]),
              cv.make_profile(_PAIRED_CURVES)),
}


# 40,000 draws fit the row store's budget, and 200,000 do not; a store of
# budget 0 admits no call, so every call draws afresh
@pytest.mark.parametrize("n_samples", [40_000, 200_000])
@pytest.mark.parametrize("budget", [_ROW_BUDGET, 0], ids=["store", "no-store"])
@pytest.mark.parametrize("mechanism, params, runs", [
    *((m, p, runs) for m, p in [("spa", {}), ("vcg", {"k": 2}), ("spald", {})]
      for runs in sorted(_PAIRED_RUNS)),
    # posted reads one price per bidder, so its runs have one size
    ("posted", {"prices": [0.3, 0.5, 0.2, 0.4]}, "same-size"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_paired_compare_is_the_difference_of_two_calls(monkeypatch, mechanism, params, runs,
                                                       budget, n_samples):
    a, b = _PAIRED_RUNS[runs]
    seed = 9
    store = _RowStore(budget)
    monkeypatch.setattr(simulate._SCRATCH, "rows", store, raising=False)
    want = np.subtract(sample_revenues(a, NO_CONSTRAINT, mechanism, n_samples, seed, **params),
                       sample_revenues(b, NO_CONSTRAINT, mechanism, n_samples, seed, **params))
    # the second paired call repeats the seed, so one inside the budget
    # is served by the row store
    for _ in range(2):
        got = simulate._revenues([(a, NO_CONSTRAINT), (b, NO_CONSTRAINT)], mechanism, n_samples,
                                 seed, params)
        assert got.tobytes() == want.tobytes()
        est = paired_compare(a, b, NO_CONSTRAINT, NO_CONSTRAINT, mechanism, n_samples, seed,
                             **params)
        assert est == simulate._summarize(want, seed, simulate._estimator("", a, b))
    if budget == 0:
        assert store.nbytes == 0
    elif n_samples == 40_000:
        assert store.nbytes > 0


@pytest.mark.parametrize("mechanism, params", [("spa", {}), ("vcg", {"k": 2})])
def test_paired_compare_draws_each_shared_row_once_per_chunk(monkeypatch, mechanism, params):
    calls = []
    draw = simulate.uniforms
    monkeypatch.setattr(simulate, "uniforms",
                        lambda *a, **kw: calls.append(a[1:4]) or draw(*a, **kw))
    monkeypatch.setattr(simulate._SCRATCH, "rows", _RowStore(_ROW_BUDGET), raising=False)
    a, b = _PAIRED_RUNS["clone"]
    paired_compare(a, b, NO_CONSTRAINT, NO_CONSTRAINT, mechanism, 40_000, 5, **params)
    # bidders 0-2 are shared and bidder 3 is a's alone: one draw per row
    # and chunk, where two calls drew rows 0-2 twice
    assert sorted(calls) == sorted((i, lo, hi) for i in range(4)
                                   for lo, hi in [(0, 16_384), (16_384, 40_000)])
    calls.clear()
    both = cv.make_profile([*_PAIRED_CURVES[:2], cv.make_triangle(0.3, 0.5)])
    paired_compare(a, both, NO_CONSTRAINT, NO_CONSTRAINT, mechanism, 20_000, 6, **params)
    # bidder 2 has a curve of its own in each run: two rows of one substream
    assert sorted(calls) == sorted([(i, 0, 20_000) for i in range(4)] + [(2, 0, 20_000)])


def test_myerson_draws_only_the_rows_it_ranks(monkeypatch):
    # the equal-revenue bidder's slopes are all < 0, so myerson never ranks
    # it: its row is not drawn, nor counted among the rows that split a call
    calls = []
    draw = simulate.uniforms
    monkeypatch.setattr(simulate, "uniforms",
                        lambda *a, **kw: calls.append(a[1:4]) or draw(*a, **kw))
    monkeypatch.setattr(simulate._SCRATCH, "rows", _RowStore(_ROW_BUDGET), raising=False)
    curves = [cv.make_triangle(0.5, 0.5), cv.make_equal_revenue(1.0), cv.make_triangle(0.3, 0.8)]
    prof = cv.make_profile(curves)
    rev = sample_revenues(prof, NO_CONSTRAINT, "myerson", 40_000, 3)
    assert sorted(calls) == sorted((i, lo, hi) for i in (0, 2)
                                   for lo, hi in [(0, 16_384), (16_384, 40_000)])
    # the kernel reads the same bits with every row drawn
    calls.clear()
    v = np.empty((3, 40_000))
    rows = [_value_row(None, 3, i, c, 0, 40_000, np.empty((3, 40_000)), v[i])
            for i, c in enumerate(curves)]
    ch = _Chunk(*zip(*rows), 0, 40_000)
    assert simulate._rev_myerson(prof.curves, NO_CONSTRAINT, ch, {}).tobytes() == rev.tobytes()
    assert len(calls) == 3
    # 2^18 draws of two drawing rows and one unread: 4 MiB, so two
    # processes, where counting the unread row would make it three (at a
    # new seed, which the row store does not admit)
    _cpus(monkeypatch, 4)
    sample_revenues(prof, NO_CONSTRAINT, "myerson", 1 << 18, 4)
    assert simulate.sampling_processes() == 2


# A call splits across processes where its uniform-drawing value rows take
# 2 * _SPLIT_BYTES or more: here 9 of the 12 rows draw (3 are point
# masses), 19 MiB at 2^18 + 5,000 draws over 16 chunks, so a call takes
# two processes once two CPUs are free; spald draws 18 rows.  The autouse
# fixture in conftest.py stops the workers after each test, so each test
# starts with none.
_SPLIT_PROFILE = cv.make_profile(_GOLDEN_CURVES * 3)
_SPLIT_DRAWS = (1 << 18) + 5_000
_SPLIT_CALLS = {
    "spa": (NO_CONSTRAINT, {}),
    "vcg": (NO_CONSTRAINT, {"k": 3}),
    "vcg_constrained": (PairConstraint(((0, 4), (1, 6), (2, 9))), {"k": 3}),
    "myerson": (NO_CONSTRAINT, {}),
    "lookahead": (NO_CONSTRAINT, {}),
    "spald": (NO_CONSTRAINT, {}),
    "posted": (NO_CONSTRAINT, {"prices": [0.9, 0.75, 0.5, 1.2] * 3}),
}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fork_counter(monkeypatch, child=None):
    """The pids os.fork returns to the parent, as a list that grows; child,
    when given, runs in each child as soon as it is forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid == 0 and child is not None:
            child()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _split_call(name, seed=4):
    if name == "paired":
        # the runs share the first eight rows
        base = cv.make_profile(_GOLDEN_CURVES * 2)
        return simulate._revenues([(_SPLIT_PROFILE, NO_CONSTRAINT), (base, NO_CONSTRAINT)],
                                  "spa", _SPLIT_DRAWS, seed, {})
    constraint, params = _SPLIT_CALLS[name]
    return sample_revenues(_SPLIT_PROFILE, constraint, name, _SPLIT_DRAWS, seed, **params)


def _serial(monkeypatch, name, seed=4):
    """The bytes of _split_call on one CPU; two CPUs are set on return."""
    _cpus(monkeypatch, 1)
    want = _split_call(name, seed).tobytes()
    assert simulate.sampling_processes() == 1
    _cpus(monkeypatch, 2)
    return want


def _workers():
    return [w.pid for w in simulate._WORKERS]


def _no_children():
    simulate._stop_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", [*_SPLIT_CALLS, "paired"])
def test_split_call_gives_the_serial_bytes(monkeypatch, name):
    forks = _fork_counter(monkeypatch)
    want = _serial(monkeypatch, name)
    assert forks == []
    got = _split_call(name)
    assert simulate.sampling_processes() == 2
    assert got.tobytes() == want
    assert forks == _workers() and len(forks) == 1
    if name == "paired":
        assert paired_compare(_SPLIT_PROFILE, cv.make_profile(_GOLDEN_CURVES * 2), NO_CONSTRAINT,
                              NO_CONSTRAINT, "spa", _SPLIT_DRAWS, 4) == simulate._summarize(
            got, 4, simulate._estimator("", _SPLIT_PROFILE))
        assert simulate.sampling_processes() == 2
    _no_children()


# P = min(CPUs, W // _SPLIT_BYTES, chunks // 2) processes, W being the
# bytes of the rows that draw uniforms (point masses draw none); three such
# calls fork P - 1 workers in all
@pytest.mark.parametrize("cpus, drawing, point_masses, n_samples, processes", [
    (4, 2, 4, 1 << 18, 2),  # 4 MiB of drawing rows
    (4, 1, 8, 1 << 18, 1),  # 2 MiB drawing, 18 MiB with the point masses
    (4, 16, 0, 1 << 18, 4),
    (3, 16, 0, 1 << 18, 3),
    (1, 16, 0, 1 << 18, 1),
    (4, 64, 0, 1 << 16, 2),  # 32 MiB over 4 chunks
])
def test_split_calls_fork_one_worker_per_extra_process(monkeypatch, cpus, drawing, point_masses,
                                                       n_samples, processes):
    assert simulate._SPLIT_BYTES == 2 << 20
    forks = _fork_counter(monkeypatch)
    _cpus(monkeypatch, cpus)
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * drawing
                           + [cv.make_point_mass(0.5)] * point_masses)
    for seed in range(3):
        sample_revenues(prof, NO_CONSTRAINT, "spa", n_samples, seed)
        assert simulate.sampling_processes() == processes
    assert len(forks) == processes - 1 and forks == _workers()
    _no_children()


def test_workers_are_kept_across_calls_and_added_as_needed(monkeypatch):
    forks = _fork_counter(monkeypatch)
    want = {cpus: [] for cpus in (1, 2, 3)}
    for cpus in want:
        _cpus(monkeypatch, cpus)
        for seed in (5, 6):
            want[cpus].append(_split_call("spa", seed).tobytes())
            assert simulate.sampling_processes() == cpus
    # two calls on two CPUs forked one worker, and two on three one more
    assert len(forks) == 2 and forks == _workers()
    assert want[1] == want[2] == want[3]
    _cpus(monkeypatch, 2)
    assert _split_call("spa", 5).tobytes() == want[1][0]
    assert forks == _workers()
    _no_children()


def _always_fails():
    raise OSError("no process to spare")


@pytest.mark.parametrize("fault", ["exits", "fork_raises", "fill_raises"])
def test_a_failed_worker_leaves_its_range_to_the_caller(monkeypatch, fault):
    # a worker that exits at once, a fork that raises, and a worker whose
    # fill raises: the caller fills that range to the same bytes, a worker
    # that failed is reaped, and the next call forks a fresh one
    want = _serial(monkeypatch, "vcg")
    parent, value_row, fork = os.getpid(), simulate._value_row, os.fork
    if fault == "exits":
        forks = _fork_counter(monkeypatch, child=lambda: os._exit(3))
    elif fault == "fork_raises":
        monkeypatch.setattr(os, "fork", _always_fails)
    else:
        def raises_in_a_worker(*args):
            if os.getpid() != parent:
                raise RuntimeError("a worker's fill fails")
            return value_row(*args)

        monkeypatch.setattr(simulate, "_value_row", raises_in_a_worker)
        forks = _fork_counter(monkeypatch)
    for calls in (1, 2):
        assert _split_call("vcg").tobytes() == want
        assert simulate.sampling_processes() == 1
        assert _workers() == []
        if fault != "fork_raises":
            assert len(forks) == calls
    monkeypatch.setattr(simulate, "_value_row", value_row)
    monkeypatch.setattr(os, "fork", fork)
    forks = _fork_counter(monkeypatch)
    assert _split_call("vcg").tobytes() == want
    assert simulate.sampling_processes() == 2 and len(forks) == 1
    _no_children()


def _interrupt_after(seconds):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    return previous


@pytest.mark.parametrize("when", ["filling", "waiting"])
def test_an_interrupted_call_kills_its_busy_worker(monkeypatch, when):
    # the caller is interrupted while it fills its own range, or while it
    # waits for the worker, which is stuck in its first draw: the worker is
    # killed and reaped, the interrupt goes on up, and the next call forks
    # a fresh worker
    want = _serial(monkeypatch, "spa")
    parent, draw, stuck = os.getpid(), simulate.uniforms, []

    def stuck_or_interrupted(*args, **kwargs):
        if os.getpid() != parent and not stuck:
            stuck.append(time.sleep(120))
        elif os.getpid() == parent and when == "filling":
            raise KeyboardInterrupt
        return draw(*args, **kwargs)

    monkeypatch.setattr(simulate, "uniforms", stuck_or_interrupted)
    forks = _fork_counter(monkeypatch)
    previous = _interrupt_after(1.0) if when == "waiting" else None
    t0 = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            _split_call("spa")
    finally:
        if previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 60
    assert len(forks) == 1 and _workers() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    monkeypatch.setattr(simulate, "uniforms", draw)
    assert _split_call("spa").tobytes() == want
    assert simulate.sampling_processes() == 2 and len(forks) == 2
    _no_children()


def _split_beside_another_thread():
    """_split_call("spa") while another thread waits; asserts the thread ends."""
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        return _split_call("spa")
    finally:
        release.set()
        other.join(timeout=60)
        assert not other.is_alive()


def test_split_call_does_not_fork_beside_another_thread(monkeypatch):
    # nor hand work to workers it forked before the thread started
    forks = _fork_counter(monkeypatch)
    want = _serial(monkeypatch, "spa")
    assert _split_beside_another_thread().tobytes() == want
    assert simulate.sampling_processes() == 1 and forks == []
    _split_call("spa")
    assert len(forks) == 1
    assert _split_beside_another_thread().tobytes() == want
    assert simulate.sampling_processes() == 1 and len(forks) == 1
    _no_children()


def test_a_worker_never_splits(monkeypatch):
    # in a worker, _processes reads 1 for any call; a worker that saw
    # otherwise would answer 1 and leave its range to the caller
    parent, value_row = os.getpid(), simulate._value_row

    def checked(*args):
        if os.getpid() != parent and simulate._processes(1 << 40, 1 << 20) != 1:
            raise AssertionError("a worker would split")
        return value_row(*args)

    monkeypatch.setattr(simulate, "_value_row", checked)
    want = _serial(monkeypatch, "spa")
    assert _split_call("spa").tobytes() == want
    assert simulate.sampling_processes() == 2
    assert simulate._processes(1 << 40, 1 << 20) == 2
    _no_children()


def test_a_child_forked_after_a_split_call_runs_serial(monkeypatch):
    # the child forgets its parent's workers and closes their descriptors,
    # so it never writes to them, and runs a split-sized call serial; the
    # parent's worker serves on, unforked again
    want = _serial(monkeypatch, "spa")
    _split_call("spa")
    (worker,) = simulate._WORKERS
    ends = (worker.jobs, worker.done, worker.fd)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            closed = 0
            for end in ends:
                try:
                    os.fstat(end)
                except OSError:
                    closed += 1
            got = _split_call("spa").tobytes()
            code = 0 if (closed == 3 and simulate._WORKERS == [] and got == want
                         and simulate.sampling_processes() == 1) else 2
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    forks = _fork_counter(monkeypatch)
    assert _split_call("spa").tobytes() == want
    assert simulate.sampling_processes() == 2
    assert forks == [] and simulate._WORKERS == [worker]
    _no_children()


_LEAVER = """
import atexit, os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
pids = []

def reaped():
    # registered before dupkit's own exit hook, so it runs after it
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return
    print("reaped", flush=True)

atexit.register(reaped)
from dupkit import curves as cv, simulate
from dupkit.mechanisms import NO_CONSTRAINT
how, parent, draw, slept = sys.argv[1], os.getpid(), simulate.uniforms, []

def uniforms(*args, **kwargs):
    # busy: the worker sleeps in its first draw, and the caller names it
    # from its own range, then waits for the worker's answer
    if how == "busy" and os.getpid() != parent:
        if not slept:
            slept.append(time.sleep(120))
    elif how == "busy" and os.getpid() == parent and args[1:3] == (0, 0):
        print(*(w.pid for w in simulate._WORKERS), flush=True)
    return draw(*args, **kwargs)

simulate.uniforms = uniforms
prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 8)
simulate.sample_revenues(prof, NO_CONSTRAINT, "spa", 1 << 18, 1)
assert simulate.sampling_processes() == 2
pids += [w.pid for w in simulate._WORKERS]
print(*pids, flush=True)
if how == "exit3":
    sys.exit(3)
if how == "raise":
    raise RuntimeError("uncaught")
if how != "normal":
    time.sleep(120)
"""


def _gone(pid):
    """Whether pid has exited: no such process, or a zombie not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("how", ["normal", "exit3", "raise", "sigkill", "busy"])
def test_a_process_that_split_a_call_leaves_no_worker_behind(how):
    # normal, sys.exit(3) and an uncaught exception reap the worker at
    # exit; SIGKILL of the process ends its idle worker, and its busy one
    # (the worker's first draw sleeps for 120 s) too
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    exits = how in ("normal", "exit3", "raise")
    with subprocess.Popen([sys.executable, "-c", _LEAVER, how], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, text=True) as proc:
        pids = [int(p) for p in proc.stdout.readline().split()]
        if not exits:
            proc.kill()
        code = proc.wait(timeout=60)
        rest = proc.stdout.read()
    assert code == {"normal": 0, "exit3": 3, "raise": 1}.get(how, -signal.SIGKILL)
    assert len(pids) == 1
    if exits:  # reaped before the process ended
        assert rest == "reaped\n"
        assert all(map(_gone, pids))
    deadline = time.monotonic() + 30
    while not all(map(_gone, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_gone, pids))


def test_order_stat_two_triangles():
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    # Pr[V >= t] = 1/(1+t) here, so E[second] = int_0^1 (1+t)^-2 dt = 1/2
    assert expected_order_stat(prof, 2) == pytest.approx(0.5, abs=1e-13)
    # E[max] + E[min] = 2 E[V] = 2 ln 2
    assert expected_order_stat(prof, 1) == pytest.approx(LN4 - 0.5, abs=1e-13)


def test_order_stat_er_pair_closed_form():
    prof = cv.make_profile([cv.make_equal_revenue(1.0), cv.make_equal_revenue(2.0)])
    # int_0^inf (1/(1+t))(2/(2+t)) dt = 2 ln 2
    assert expected_order_stat(prof, 2) == pytest.approx(LN4, abs=1e-13)


def test_order_stat_edges():
    er = cv.make_profile([cv.make_equal_revenue(1.0), cv.make_triangle(0.5, 0.5)])
    with pytest.raises(UnboundedExpectation):
        expected_order_stat(er, 1)
    assert expected_order_stat(er, 3) == 0.0
    with pytest.raises(DomainError):
        expected_order_stat(er, 0)
    bounded = cv.make_profile([cv.make_point_mass(2.0)])
    assert expected_order_stat(bounded, 1) == pytest.approx(2.0, abs=1e-9)


def test_order_stat_tolerance_scaling():
    rng = random.Random(2)
    prof = random_profile(4, rng, allow_unbounded=False)
    coarse = expected_order_stat(prof, 2, tol=1e-6)
    fine = expected_order_stat(prof, 2, tol=1e-10)
    assert coarse == pytest.approx(fine, abs=1e-6)


@pytest.mark.parametrize("n", [3, 8])
def test_order_stat_converges_at_tight_tol_on_triangles(n):
    # each triangle's atom sits on a panel cut, so no halving has to chase a
    # jump and tol 1e-12 and 1e-13 are both reachable
    rng = random.Random(5)
    for _ in range(2):
        prof = random_profile(n, rng, allow_unbounded=False)
        tight = expected_order_stat(prof, 2, tol=1e-12)
        tighter = expected_order_stat(prof, 2, tol=1e-13)
        assert tight == pytest.approx(tighter, abs=1e-12)


def test_gauss_kronrod_table():
    nodes, kronrod, gauss = simulate._GK_NODES, simulate._GK_KRONROD, simulate._GK_GAUSS
    x, w = np.polynomial.legendre.leggauss(7)
    assert np.allclose(nodes[gauss != 0.0], x, rtol=0.0, atol=1e-15)
    assert np.allclose(gauss[gauss != 0.0], w, rtol=0.0, atol=1e-15)
    # K15 integrates x^d exactly on [-1, 1] for d <= 22 and G7 for d <= 13
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert math.fsum(kronrod * nodes**d) == pytest.approx(exact, abs=1e-15)
        if d <= 13:
            assert math.fsum(gauss * nodes**d) == pytest.approx(exact, abs=1e-15)


def _quadrature_calls():
    """(profile, r, tol) for the quadrature digest: lb-HR variants, n3's six
    bidders and 40 seeded random profiles (n 1-24, r 1-4, tol 1e-6 and 1e-8),
    then 3 second-highest calls at tol 1e-12."""
    base = lbhr_profile()
    both, _ = extend_profile(base, all_once())
    for prof in (both, cv.make_profile([*base.curves, base.curves[0]]),
                 cv.make_profile([*base.curves, base.curves[1]])):
        yield prof, 2, 1e-8
        yield prof, 3, 1e-8
    six, _ = extend_profile(n3_profile(), all_once())
    yield six, 2, 1e-8
    rng = random.Random(1905)
    for i in range(43):
        n = (24, 1)[i] if i < 2 else rng.randint(1 + (i >= 40), 20)
        curves = []
        for _ in range(n):
            kind = rng.random()
            if i % 2 and kind < 0.3:
                curves.append(cv.make_equal_revenue(rng.uniform(0.1, 1.0)))
            elif kind < 0.6:
                curves.append(random_triangle(rng))
            elif kind < 0.9:
                curves.append(random_concave_curve(rng))
            else:
                curves.append(cv.make_point_mass(rng.uniform(0.0, 1.0)))
        if n < 24 and rng.random() < 0.4:  # repeated curves, as duplicates make them
            curves += curves[: rng.randint(1, min(n, 24 - n))]
        if i >= 40:
            yield cv.make_profile(curves), 2, 1e-12
        else:
            yield cv.make_profile(curves), rng.randint(1, 4), rng.choice((1e-6, 1e-8))


# sha256 of the packed expected_order_stat values of _quadrature_calls, with
# -1.0 for NonConvergence and -2.0 for UnboundedExpectation.  Recorded from
# the adaptive Gauss-Kronrod rule on one-sided panels; any rewrite must keep
# every bit.
_QUADRATURE_GOLDEN = "0b9fc0756c49c4cada15a4b44396ea3092ab6b44d32530bcb73b94e1d2cac021"


def test_quadrature_golden_digest():
    out = []
    for prof, r, tol in _quadrature_calls():
        try:
            out.append(expected_order_stat(prof, r, tol))
        except NonConvergence:
            out.append(-1.0)
        except UnboundedExpectation:
            out.append(-2.0)
    assert out.count(-1.0) == 0
    assert hashlib.sha256(struct.pack(f"<{len(out)}d", *out)).hexdigest() == _QUADRATURE_GOLDEN


def test_quadrature_nonconvergence_is_bounded(monkeypatch):
    # no interval can reach tol 1e-300, so every round halves all of them;
    # the interval cap must end that doubling within a few rounds
    evals = []
    rows = simulate.poisson_binomial_rows
    monkeypatch.setattr(simulate, "poisson_binomial_rows",
                        lambda probs: evals.append(len(probs)) or rows(probs))
    prof = random_profile(24, random.Random(5))
    with pytest.raises(NonConvergence):
        expected_order_stat(prof, 2, tol=1e-300)
    assert 0 < sum(evals) < 20_000


def test_quadrature_matches_mc():
    rng = random.Random(31)
    for trial in range(4):
        prof = random_profile(rng.randint(2, 5), rng, allow_unbounded=False)
        exact = mechanism_revenue_quadrature(prof, k=1)
        est = estimate_revenue(prof, NO_CONSTRAINT, "spa", 200_000, trial, "plain")
        assert abs(est.mean - exact) <= 4 * est.stderr + 1e-6


def test_quadrature_needs_enough_bidders():
    prof = cv.make_profile([cv.make_triangle(0.5, 0.5)] * 2)
    with pytest.raises(DomainError):
        mechanism_revenue_quadrature(prof, k=2)


def test_mom_blocks_rule():
    prof = cv.make_profile([cv.make_equal_revenue(1.0)] * 2)
    est = estimate_revenue(prof, NO_CONSTRAINT, "spa", 1000, 0)
    assert isinstance(est, Estimate)
    assert est.blocks == math.isqrt(999) + 1  # ceil(sqrt(n))
    assert est.n_samples == 1000


# sha256 of the (mean, stderr) bits of median-of-means Estimates of the
# all-duplicated SPA, seed 7, over the sizes below (block counts from 1 to
# 1,001, square and non-square n, one and several chunks).  Recorded from
# the np.array_split summary; any rewrite must keep every bit.
_MOM_SIZES = (1, 2, 3, 17, 1000, 20_000, 40_000, 70_001, 123_457, 1_000_007)
_MOM_GOLDEN = {
    "lbhr": (lbhr_profile, "7f2d50235179abe53f23ca42c2bdaea1c82addb94ee3e847518ba2bc2f0a7594"),
    "n3": (n3_profile, "197474256a505338af4db8ca92f374d7571443911e63ea08320816b0bb7b886d"),
}


@pytest.mark.parametrize("name", sorted(_MOM_GOLDEN))
def test_median_of_means_golden_digest(name):
    make, digest = _MOM_GOLDEN[name]
    both, _ = extend_profile(make(), all_once())
    bits = []
    for n in _MOM_SIZES:
        est = estimate_revenue(both, NO_CONSTRAINT, "spa", n, 7, "median_of_means")
        bits += [est.mean, est.stderr]
    assert hashlib.sha256(struct.pack(f"<{len(bits)}d", *bits)).hexdigest() == digest


def _block_means_by_split(rev, blocks):
    return np.array([b.mean() for b in np.array_split(rev, blocks)])


@given(st.integers(1, 5_000), st.integers(0, 2**32 - 1))
def test_block_means_match_array_split(n, seed):
    rev = np.random.default_rng(seed).pareto(1.5, n)
    for blocks in {1, math.isqrt(n - 1) + 1, n}:
        assert _block_means(rev, blocks).tobytes() == _block_means_by_split(rev, blocks).tobytes()


def test_block_means_match_array_split_large():
    rev = np.random.default_rng(3).pareto(1.5, 1_000_007)
    blocks = math.isqrt(rev.shape[0] - 1) + 1
    assert _block_means(rev, blocks).tobytes() == _block_means_by_split(rev, blocks).tobytes()


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0]), min_size=1,
                max_size=60))
def test_median_matches_numpy(values):
    a = np.array(values)
    before = a.copy()
    assert struct.pack("<d", _median(a)) == struct.pack("<d", float(np.median(a)))
    assert a.tobytes() == before.tobytes()


# Row store.  Profiles are prefixes of one curve list with clones appended,
# so calls share original rows, clone slots (one substream, many curves) and
# pair constraints; draw counts are prefixes of one another and cross chunk
# boundaries; a small budget makes the store evict.
_STORE_CURVES = [
    cv.make_triangle(0.4, 0.6),
    cv.make_equal_revenue(0.5),
    cv.make_piecewise([(0.0, 0.0), (0.2, 0.3), (0.6, 0.5), (1.0, 0.2)]),
    cv.make_point_mass(0.8),
    cv.make_triangle(0.3, 0.5),
]
_STORE_DRAWS = (1, 700, simulate._CHUNK, simulate._CHUNK + 300, 20_000, 40_000)
store_calls = st.lists(
    st.tuples(
        st.sampled_from(mechanism_names()),
        st.integers(1, len(_STORE_CURVES)),  # profile prefix
        st.sampled_from(["none", "single", "copies", "set", "all"]),  # duplicate plan
        st.sampled_from(_STORE_DRAWS),
        st.integers(0, 1),  # seed
        st.sampled_from([0, 3]),  # workers, which sample_revenues ignores
    ),
    min_size=1,
    max_size=6,
)


def _store_call(mechanism, n, plan, n_samples, seed, workers):
    base = cv.make_profile(_STORE_CURVES[:n])
    plans = {"single": k_copies_of(n - 1, 1), "copies": k_copies_of(0, 2),
             "set": set_once(range(0, n, 2), pair_constrained=True),
             "all": all_once(pair_constrained=True)}
    profile, constraint = (base, NO_CONSTRAINT) if plan == "none" else extend_profile(
        base, plans[plan])
    params = {}
    if mechanism in ("vcg", "vcg_constrained"):
        params["k"] = 1 + seed
    if mechanism == "posted":
        params["prices"] = [0.3 + 0.1 * i for i in range(profile.n)]
    return sample_revenues(profile, constraint, mechanism, n_samples, seed, workers, **params)


@settings(max_examples=40, deadline=None)
@given(store_calls, st.sampled_from([_ROW_BUDGET, 1 << 18]))
def test_row_store_results_match_empty_store(calls, budget):
    saved = simulate._row_store()
    try:
        simulate._SCRATCH.rows = shared = _RowStore(budget)
        for call in calls:
            got = _store_call(*call)
            simulate._SCRATCH.rows = _RowStore(budget)
            want = _store_call(*call)
            simulate._SCRATCH.rows = shared
            assert got.tobytes() == want.tobytes()
            assert shared.nbytes <= budget
    finally:
        simulate._SCRATCH.rows = saved


def test_row_store_serves_read_only_rows():
    curve, m = _STORE_CURVES[2], 5_000
    scratch, v = np.empty((3, m)), np.empty(m)
    direct = _value_row(None, 3, 1, curve, 0, m, scratch, v)  # no store: values in v
    assert direct[0].base is v and direct[0].flags.writeable
    want = (direct[0].copy(), direct[1].copy())
    store = _RowStore(_ROW_BUDGET)
    kept = _value_row(store, 3, 1, curve, 0, m, scratch, v)  # stored, in fresh memory
    served = _value_row(store, 3, 1, curve, 0, m - 1, scratch, v)  # a prefix of the stored row
    (u,) = store.lookup((3, 1, 0), m)  # the row's uniforms, stored beside it
    assert served[0].base is kept[0] and served[1].base is kept[1]
    assert store.nbytes == kept[0].nbytes + kept[1].nbytes + u.nbytes
    assert u.tobytes() == uniforms(3, 1, 0, m).tobytes()
    for arrays, refs, width in ((kept, want, m), (served, want, m - 1), ((u,), (u,), m)):
        assert arrays[0].base is not v
        for row, ref in zip(arrays, refs):
            assert row.tobytes() == ref[:width].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 3_000), st.booleans()),
                min_size=1, max_size=80))
def test_row_store_stays_within_budget(requests):
    store = _RowStore(20_000)
    for key, m, with_index in requests:
        arrays = store.lookup(key, m)
        if arrays is None:
            row = (np.zeros(m), np.zeros(m, dtype=np.uint8) if with_index else None)
            store.put(key, row)
            fits = sum(a.nbytes for a in row if a is not None) <= store.budget
            arrays = store.lookup(key, m)
            assert (arrays is not None) == fits
            if fits:  # the stored row serves its prefixes
                assert store.lookup(key, m // 2 + 1)[0].base is row[0]
        assert arrays is None or arrays[0].shape == (m,)
        kept = [entry for entry, _ in store._rows.values()]
        assert store.nbytes == sum(a.nbytes for e in kept for a in e if a is not None)
        assert store.nbytes <= store.budget
        assert all(not a.flags.writeable for e in kept for a in e if a is not None)


class _CountingStore(_RowStore):
    def __init__(self, budget):
        super().__init__(budget)
        self.lookups = self.puts = 0

    def lookup(self, key, m):
        self.lookups += 1
        return super().lookup(key, m)

    def put(self, key, arrays):
        self.puts += 1
        super().put(key, arrays)


def test_row_store_admits_only_repeat_seed_calls_that_fit(monkeypatch):
    store = _CountingStore(_ROW_BUDGET)
    monkeypatch.setattr(simulate._SCRATCH, "rows", store, raising=False)
    profile = cv.make_profile(_STORE_CURVES[:4])
    fits = _ROW_BUDGET // (8 * profile.n)  # the most draws whose value rows fit

    def counts(n_samples, seed):
        store.lookups = store.puts = 0
        rev = sample_revenues(profile, NO_CONSTRAINT, "spa", n_samples, seed)
        return (store.lookups, store.puts), rev

    assert counts(20_000, 1)[0] == (0, 0)  # the first call
    assert counts(20_000, 2)[0] == (0, 0)  # a new seed
    # a repeat seed within budget: one chunk, each bidder's value and uniform
    # rows, but for the point mass, whose constant row skips the store
    stored, first = counts(20_000, 2)
    assert stored == (6, 6) and store.nbytes > 0
    served, again = counts(20_000, 2)
    assert served == (3, 0) and again.tobytes() == first.tobytes()
    assert counts(fits + 1, 2)[0] == (0, 0)  # a repeat seed over budget
    assert counts(fits, 2)[0][1] > 0


# One fixed sequence of calls on a fresh store, as (mechanism, profile
# prefix, plan, draws, seed, workers); sample_revenues ignores workers.
# Seeds repeat in runs of 3 to 5, so each run's first call draws afresh
# and the rest are admitted where their rows fit: they store rows, serve
# prefixes of stored rows (700 and 16,384 draws after 16,684 and 40,000)
# and reuse the uniforms of a clone slot under a new curve.  The sha256
# over every result's bytes was recorded before the chunk loop took its
# present form; any rewrite must keep every bit.  It was re-recorded once,
# when first-segment draws took their slope exactly (each moved value
# moved by at most one ulp, to the slope).
_STORE_SEQUENCE = [
    ("spa", 3, "none", 40_000, 0, 0),
    ("spald", 3, "single", 40_000, 0, 0),
    ("vcg", 3, "copies", 16_684, 0, 3),
    ("myerson", 3, "copies", 700, 0, 0),
    ("lookahead", 5, "all", 20_000, 1, 3),
    ("vcg_constrained", 5, "all", 20_000, 1, 0),
    ("posted", 5, "set", 16_384, 1, 0),
    ("spald", 5, "none", 40_000, 1, 3),
    ("spald", 5, "all", 40_000, 1, 3),
    ("spa", 4, "single", 16_684, 0, 0),
    ("spald", 4, "copies", 16_684, 0, 0),
    ("vcg_constrained", 4, "set", 700, 0, 3),
    ("myerson", 4, "all", 40_000, 0, 3),
    ("posted", 2, "all", 20_000, 0, 0),
    ("vcg", 5, "all", 40_000, 1, 0),
    ("lookahead", 5, "single", 16_384, 1, 0),
    ("spald", 2, "set", 700, 1, 3),
    ("myerson", 5, "none", 16_684, 1, 0),
    ("spa", 5, "copies", 40_000, 1, 3),
    ("vcg", 3, "set", 40_000, 0, 3),
    ("spald", 3, "all", 20_000, 0, 0),
    ("posted", 3, "single", 16_384, 0, 3),
]
_STORE_SEQUENCE_GOLDEN = "f370f86cd57e194adb519774c877980bb1677323d07faf2ff96c2a34386310e4"


def test_row_store_sequence_golden_digest(monkeypatch):
    monkeypatch.setattr(simulate._SCRATCH, "rows", _RowStore(_ROW_BUDGET), raising=False)
    digest = hashlib.sha256()
    for call in _STORE_SEQUENCE:
        digest.update(_store_call(*call).tobytes())
    assert digest.hexdigest() == _STORE_SEQUENCE_GOLDEN


def test_row_store_is_confined_to_its_thread(monkeypatch):
    # more threads than cores, switching often, on calls that would share
    # rows: each thread draws through a store of its own
    calls = [(m, 3, plan, 20_000, 1, w) for m in ("spa", "vcg") for plan in ("single", "all")
             for w in (0, 3)]
    want = []
    for call in calls:
        monkeypatch.setattr(simulate._SCRATCH, "rows", _RowStore(_ROW_BUDGET), raising=False)
        want.append(_store_call(*call).tobytes())
    got, stores, interval = {}, {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(t):
            for j in range(len(calls)):
                k = (j + t) % len(calls)
                got[t, k] = _store_call(*calls[k]).tobytes()
            stores[t] = simulate._row_store()

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == {(t, k): want[k] for t in range(4) for k in range(len(calls))}
    assert len({id(store) for store in [*stores.values(), simulate._row_store()]}) == 5
    for store in stores.values():
        kept = [entry for entry, _ in store._rows.values()]
        assert store.nbytes == sum(a.nbytes for e in kept for a in e if a is not None)
        assert 0 < store.nbytes <= store.budget

