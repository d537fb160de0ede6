"""Seeded Monte Carlo and exact quadrature for expected auction revenue.

Randomness is counter-based: the uniform for (seed, sample, bidder) is a
hash of those three numbers, so any slice of samples can be generated on
its own and chunks of any width give bit-identical estimates.  It also
couples comparisons pathwise: the same bidder index sees the same values in
two environments run with the same seed.

Sampling runs in chunks that start at multiples of _CHUNK = 2^14 draws; a
remainder shorter than half a chunk joins the chunk before it.  Per chunk,
sample_revenues fills each bidder's row with its uniforms, then their
values (and segment indices) under its curve; spald also gets row n + j,
its late duplicate of bidder j, under curve j.  paired_compare runs the
same loop over both profiles' rows, keyed by (substream, curve), so a row
the two share is drawn once per chunk.  A mechanism kernel only reduces
the rows, column by column: the order-statistic kernels rank them with
_top, which names the row in each slot by its index, and resolve what
they need of the winners (a price, a reserve, a duplicate's value or a
rival) from those indices once per chunk.  A value is computed as
curves.value computes it, so cv.sample_value(c, u) is the sampled value
of u: a bounded curve's first segment runs through the origin, so its
draws read that segment's slope exactly, and any other draw reads
curves.rev's segment expression over q.  A bounded curve with one segment
(a point mass) thus has a constant row, which draws no uniforms and skips
the row store.
A row is a pure function of (seed, bidder index, curve, chunk), so callers
that score many environments at one seed would redraw identical rows.
Each thread keeps a store of its own (_row_store), which needs no lock.
A call uses its thread's store only when it repeats the thread's
previous seed (a new seed meets no stored row) and every value row it
draws fits in _ROW_BUDGET bytes (larger rows would evict one another
before any reuse); such a call runs every chunk in its caller's thread
and looks up and stores every row it draws:

* value rows with their segment indices are keyed by (seed, index, curve
  bits, chunk start), and uniform rows by (seed, index, chunk start), so a
  clone slot under a new curve skips the hash;
* a stored row serves any request for a prefix of it;
* the store holds at most _ROW_BUDGET bytes and evicts the least recently
  used row; stored arrays are read-only.

Any other call makes no lookups and computes its rows into one scratch
block per thread, which is reused across calls (_scratch), as are the
work rows of _top and vcg_constrained.

Such a call runs in its caller's thread too, unless it is large enough
to split across processes (_processes).  Its chunk list is then cut into
contiguous ranges; the caller fills the first, and a worker process kept
for the life of the process each other one (_split, _Worker), from the
call's own fill.  A row is a pure function of its counters, so a split
call returns the serial bits.  Threads cannot share this work: each numpy
call on a chunk hands the interpreter lock over, and two threads ran at
0.53-0.82 times the speed of one.

The store is exact: a key covers every input of its row, so a stored row
holds the bits the same request would compute, and since every kernel
reduces each draw's column on its own, neither the chunk size nor a store
hit changes any result.

Quadrature integrates Pr[at least r bids >= t] over t >= 0 on panels cut
at every kink value, so that on each panel every bidder's sale probability
is one curve piece (cv.value_piece) and the integrand, an exact
Poisson-binomial tail, is smooth.  Finite panels are integrated in t and
the last, [t_max, inf), in s on [0, 1) with t = t_max + s/(1-s), which
compresses the heavy 1/t^2 tails of unbounded curves.  A call first builds
its panel table with numpy in one pass (cv.value_pieces): each panel keeps
only the bidders whose piece is fractional, since a constant q = 0 leaves
the pmf as it is and a constant q = 1 shifts it one place exactly, and
its tail starts at r less its number of q = 1 bidders, or at 0.  A panel
on which fewer than r bidders have a sale probability other than 0 has
integrand 0.0 and is skipped.  Each panel runs adaptive 7-15 point Gauss-Kronrod; a round
evaluates the nodes of every pending interval in one
analysis.poisson_binomial_rows call over the widest pending panel's
fractional bidders, and a cap on the number of intervals (_MAX_INTERVALS)
bounds a call that cannot reach its tolerance.  The integrand at a node
is the math.fsum of its pmf's entries from its start; a round sums every
row at once in long double and keeps a row's sum where an error bound
proves that the exact sum rounds to the same double, and sends the rest
to math.fsum (_tail_sums), so every result keeps fsum's bits.  Where long
double is plain double, every row goes to fsum and only speed changes.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from .analysis import poisson_binomial_rows
from .errors import (
    DomainError,
    NonConvergence,
    ProfileMismatch,
    UnboundedExpectation,
    check_rank,
    is_rank,
)
from .mechanisms import NO_CONSTRAINT, PairConstraint, _price_ok

PLAIN = "plain"
MEDIAN_OF_MEANS = "median_of_means"
ESTIMATORS = (PLAIN, MEDIAN_OF_MEANS)

# SplitMix64 constants (Steele, Lea and Flood, OOPSLA 2014), as Python ints:
# scalar arithmetic on them is exact and masked to 64 bits by hand, and
# numpy reads them as uint64 against uint64 arrays, which wrap silently.
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SEED_MIX = 0xD1342543DE82EF95
_BIDDER_MIX = 0x9E6C63D0876A9A63
_MASK = (1 << 64) - 1

# Draws per chunk: sample_revenues fills and reduces one chunk of every
# bidder's row at a time, and the row store below keys rows by chunk start.
_CHUNK = 1 << 14
# Bytes each thread's row store may hold.
_ROW_BUDGET = 6 << 20
# Largest per-thread scratch buffer (_scratch) kept between chunks, in bytes.
_SCRATCH_KEEP = 4 << 20
# Bytes of uniform-drawing value rows each process of a split call needs
# (_processes).  Handing a range to a worker and copying it back costs
# about 0.8 ms on a 2-core host; two processes read 0.89-0.98 of serial
# time at 0.5 MiB of rows each, 0.61-0.92 at 1 MiB and 0.54-0.88 at 2 MiB
# (README, "Splitting large calls across CPUs").
_SPLIT_BYTES = 2 << 20
# Bytes of the buffer a worker shares with its caller (_Worker) that stay
# mapped between split calls; a call whose range needs more grows it, and
# the next call shrinks it back.
_BUFFER_KEEP = 8 << 20
# prctl(2) option: the signal a process gets when the thread that forked it exits
_PR_SET_PDEATHSIG = 1
# The 7-15 point Gauss-Kronrod rule on [-1, 1] (Kronrod 1965; the qk15
# table of QUADPACK, Piessens et al. 1983), for the nodes x >= 0 from the
# outside in.  Rows: the nodes, their Kronrod weights and their Gauss
# weights; every other node is a 7-point Gauss-Legendre node, and the rest
# have Gauss weight 0.  A node -x has the weights of x.
_GK15 = np.array([
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.0, 0.129484966168869693270611432679082,
     0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975,
     0.0, 0.417959183673469387755102040816327],
])
# all 15 nodes in ascending order, with their Kronrod and Gauss weights
_GK_NODES, _GK_KRONROD, _GK_GAUSS = np.hstack(
    [_GK15[:, :-1] * [[-1.0], [1.0], [1.0]], _GK15[:, ::-1]])
_GK_WEIGHTS = np.array([_GK_KRONROD, _GK_GAUSS])
# Intervals that halving may make in one quadrature call, over all panels;
# a call that needs more raises NonConvergence.
_MAX_INTERVALS = 1000


def _long_double_bits() -> int:
    """Significand bits of a np.longdouble sum: the k at which 1 + 2^-k, a
    tie, first sums to 1.  53 (no wider than a double) where long double is
    plain double, or where the probe disagrees with np.finfo, as a
    double-double long double would."""
    bits = 53
    while bits < 113 and np.array([1.0, 2.0**-bits], dtype=np.longdouble).sum() != 1.0:
        bits += 1
    return bits if bits == np.finfo(np.longdouble).nmant + 1 else 53


# Significand bits of the quadrature's extended-precision tail sums (_tail_sums)
_SUM_BITS = _long_double_bits()


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo summary; stderr is 0.0 from one draw (or one block): no error bar."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    estimator: str
    blocks: int = 0


def _sm64_scalar(z: int) -> int:
    """SplitMix64's output mix of one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _sm64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """_sm64_scalar in place on the uint64 array z, which wraps mod 2^64; t is scratch."""
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


@functools.cache
def _golden_steps() -> np.ndarray:
    """GOLDEN*i mod 2^64 for i < _CHUNK, read-only; built on the first draw,
    so a process that never samples does not hold it."""
    steps = np.multiply(np.arange(_CHUNK, dtype=np.uint64), _GOLDEN)
    steps.flags.writeable = False
    return steps


def uniforms(seed: int, bidder: int, lo: int, hi: int, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """U[0,1) draws for one bidder substream over sample counters [lo, hi).

    Draw t is (SplitMix64(stream + GOLDEN * t) >> 11) * 2^-53, where stream
    is SplitMix64 of the seed and bidder.  The mix runs in place in the
    float64 result's memory, viewed as uint64, with one uint64 scratch
    buffer; ``out``, a contiguous float64 array of length hi - lo, receives
    the draws when given, and ``scratch``, a contiguous uint64 array of
    length hi - lo, serves as that buffer when given.
    """
    if out is None:
        out = np.empty(hi - lo)
    stream = _sm64_scalar(((seed & _MASK) * _SEED_MIX ^ (bidder + 1) * _BIDDER_MIX) & _MASK)
    z = out.view(np.uint64)
    # stream + GOLDEN*(lo + i) mod 2^64, split per block of _CHUNK counters
    # as a scalar base plus GOLDEN*i from the table
    steps = _golden_steps()
    for start in range(lo, hi, _CHUNK):
        block = z[start - lo : start - lo + _CHUNK]
        np.add(steps[: block.shape[0]], (stream + _GOLDEN * start) & _MASK, out=block)
    _sm64(z, np.empty_like(z) if scratch is None else scratch)
    np.right_shift(z, 11, out=z)
    # z < 2^53 converts to float64 exactly, and the scaling is a power of two
    np.copyto(out, z)
    return np.multiply(out, 2.0**-53, out=out)


def _segments(t: cv.CurveTable, q: np.ndarray) -> np.ndarray | None:
    """Segment index of each quantile, or None when the curve has one segment.

    The index is the count of interior breakpoints at or below q, the same
    index ``searchsorted(qs, q, "right") - 1`` clipped to the segments.
    """
    if not t.cuts:
        return None
    j = np.empty(q.shape, dtype=t.seg_dtype)
    np.greater_equal(q, t.cuts[0], out=j)
    for cut in t.cuts[1:]:
        j += q >= cut
    return j


def _values(curve: cv.RevenueCurve, q: np.ndarray, seg, out: np.ndarray,
            gathered: np.ndarray) -> np.ndarray:
    """Values of a curve that draws (_draws) at quantiles q >= EPS_MIN, seg = _segments(table, q).

    As in curves.value: scale*(1-q)/q on an unbounded tail, and on a bounded
    curve slopes[0] exactly on the first segment and
    (rs[j] + slopes[j]*(q - qs[j])) / q on segment j >= 1.  The expression
    keeps this order: Rev(q)/q is not folded into a per-segment value, which
    would change the last bit.  It runs on every draw, with segment 1's
    constants as scalars when the curve has one interior cut, else with rows
    gathered by seg into ``gathered``, a scratch row like q; first-segment
    draws then take slopes[0] by a bit select, branch-free where a masked
    copy pays a branch per element.
    """
    if curve.scale:
        np.subtract(1.0, q, out=out)
        np.multiply(curve.scale, out, out=out)
        return np.divide(out, q, out=out)
    t = curve.table
    one_cut = len(t.cuts) == 1

    def at_seg(arr, buf):
        # seg is in range; mode="clip" only skips take's buffered bounds check
        return arr[1] if one_cut else np.take(arr, seg, out=buf, mode="clip")

    np.subtract(q, at_seg(t.q_arr, out), out=out)
    np.multiply(at_seg(t.slope_arr, gathered), out, out=out)
    np.add(at_seg(t.r_arr, gathered), out, out=out)
    np.divide(out, q, out=out)
    # xor with slopes[0]'s bits, zero the difference on the first segment
    # (seg is its own 0/1 mask with one cut), xor back
    bits, first = out.view(np.uint64), t.slope_arr.view(np.uint64)[0]
    np.bitwise_xor(bits, first, out=bits)
    np.multiply(bits, seg if one_cut else seg != 0, out=bits)
    np.bitwise_xor(bits, first, out=bits)
    return out


def _phi(t: cv.CurveTable, seg, out: np.ndarray) -> np.ndarray:
    """Revenue-curve slope (the virtual value) at the quantiles of seg = _segments(t, q).

    An unbounded tail's single slope is exactly -scale.
    """
    if seg is None:
        out.fill(t.slope_arr[0])
    else:
        np.take(t.slope_arr, seg, out=out, mode="clip")
    return out


class _RowStore:
    """Least-recently-used store of sampled rows under a byte budget.

    A key names the row of one chunk of one bidder substream, and its
    entry is a tuple of arrays (or None) over counters [lo, lo + length).
    A stored entry serves any request for a prefix of it.  Stored arrays
    are read-only.  A store belongs to one thread (_row_store), so nothing
    else reads or writes it while that thread runs.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._rows = OrderedDict()  # key -> (arrays, nbytes), oldest first
        self._seed = None  # the seed of the previous call to admit

    def admit(self, seed: int, nbytes: int) -> bool:
        """Whether a sampling call at seed, whose value rows take nbytes,
        uses the store: only when it repeats the previous call's seed and
        its value rows fit in the budget."""
        repeat, self._seed = seed == self._seed, seed
        return repeat and nbytes <= self.budget

    def lookup(self, key, m: int):
        """The entry under key cut to its first m counters, or None."""
        entry = self._rows.get(key)
        if entry is None or entry[0][0].shape[0] < m:
            return None
        self._rows.move_to_end(key)
        return tuple(None if a is None else a[:m] for a in entry[0])

    def put(self, key, arrays: tuple) -> None:
        """Store arrays, which the caller no longer writes, under key."""
        nbytes = sum(a.nbytes for a in arrays if a is not None)
        if nbytes > self.budget:
            return
        for a in arrays:
            if a is not None:
                a.flags.writeable = False
        old = self._rows.pop(key, None)
        self.nbytes += nbytes - (old[1] if old else 0)
        self._rows[key] = (arrays, nbytes)
        while self.nbytes > self.budget:
            self.nbytes -= self._rows.popitem(last=False)[1][1]


_SCRATCH = threading.local()


def _row_store() -> _RowStore:
    """This thread's row store, made on its first sampling call."""
    rows = getattr(_SCRATCH, "rows", None)
    if rows is None:
        rows = _SCRATCH.rows = _RowStore(_ROW_BUDGET)
    return rows


def _scratch(name: str, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array of this thread's scratch memory kept under name.

    Each name keeps a buffer of up to _SCRATCH_KEEP bytes, reused across
    chunks and calls: a fresh buffer pays page faults on its first writes,
    and freeing one each chunk let the allocator hand pages back to the
    system only to fault them in again on the next.  An array is valid
    until the next request under its name, so a name belongs to one
    function, which neither returns the array nor calls itself.
    """
    kept = _SCRATCH.__dict__.setdefault("buffers", {})
    buf, arr = kept.get(name, (None, None))
    if arr is not None and arr.shape == shape and arr.dtype == dtype:
        return arr
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
    arr = buf[:nbytes].view(dtype).reshape(shape)
    if nbytes <= _SCRATCH_KEEP:
        kept[name] = buf, arr
    return arr


def _draws(curve: cv.RevenueCurve) -> bool:
    """Whether a row under curve draws uniforms: all but a point mass's."""
    return bool(curve.scale or curve.table.cuts)


def _value_row(rows, seed: int, i: int, curve: cv.RevenueCurve, lo: int, hi: int,
               scratch, v) -> tuple:
    """(values, _segments) of substream i under curve over counters [lo, hi).

    scratch is a (3, >= hi - lo) block, for the quantiles, the uniforms'
    mix and the values' gathers.  A bounded curve with no interior cut
    (a point mass) has one value, its slope: its row is v filled with it,
    with no uniforms drawn and no store lookup.  Otherwise, with rows None,
    the uniforms go to scratch and the values to the row v.  With rows the
    row store, the value row is looked up under (seed, i, curve bits, lo)
    and its uniforms under (seed, i, lo), and each one missing is computed
    into fresh memory and stored.
    """
    t, m = curve.table, hi - lo
    if not _draws(curve):
        v[:m].fill(t.ceiling)
        return v[:m], None
    mix = scratch[1, :m].view(np.uint64)
    if rows is None:
        u, out = uniforms(seed, i, lo, hi, out=scratch[0, :m], scratch=mix), v[:m]
    else:
        key, u_key = (seed, i, t.key, lo), (seed, i, lo)
        row = rows.lookup(key, m)
        if row is not None:
            return row
        u = rows.lookup(u_key, m)
        if u is None:
            u = (uniforms(seed, i, lo, hi, scratch=mix),)
            rows.put(u_key, u)
        u, out = u[0], np.empty(m)
    q = np.maximum(u, cv.EPS_MIN, out=scratch[0, :m])
    seg = _segments(t, q)
    row = _values(curve, q, seg, out, scratch[2, :m]), seg
    if rows is not None:
        rows.put(key, row)
    return row


@dataclass(frozen=True)
class _Chunk:
    """One chunk of draws: sample counters [lo, hi) of every drawn substream."""

    v: tuple  # per substream i: values at the quantiles q = max(u, EPS_MIN), read-only
    seg: tuple  # per substream i: _segments(q[i]), shared by values and virtual values
    lo: int
    hi: int


def _top(rows, r: int, carry: int = 0):
    """Stable running top-r of a sequence of rows, column by column.

    Returns (top, who): top[s] is the (s+1)-th largest value of each
    column, bit for bit ``np.partition(v, n-1-s, axis=0)[n-1-s]``, as values
    only move by np.maximum/np.minimum compare-exchanges.  For s < carry,
    who[s] is the index of the row in slot s, the one that
    ``np.argsort(-v, axis=0, kind="stable")[s]`` names: a row passes slot s
    exactly where it is > top[s], so ties keep the earlier row ahead, and
    from there on it and each index it displaces move down one slot.
    Indices take the narrowest unsigned dtype that holds n = len(rows)
    (uint8 up to 255 rows) and move by an xor swap, branch-free where a
    masked copy pays a branch per element.  Slots left empty by fewer than
    r rows read -inf, with index n.

    Every order-statistic kernel reduces its rows here: spa and vcg read
    top alone, and the others resolve the winners they need from who once
    per chunk (myerson the winner's price and value, lookahead its reserve,
    spald its late duplicate and vcg_constrained each winner's rival).
    """
    n, width = len(rows), rows[0].shape[0]
    top = np.empty((r, width))
    who = np.empty((carry, width), dtype=np.min_scalar_type(n))
    bufs = _scratch("top_bufs", (2, width), np.float64)  # the moving value and scratch, by turns
    held, diff = _scratch("top_held", (2, width), who.dtype)  # the index moving with it; scratch
    passes = _scratch("top_passes", (width,), bool)
    for e, row in enumerate(rows):
        held.fill(e)
        x = row  # the value moving down: the row's, then each one it displaces
        for s in range(min(e, r)):
            # free takes the value t pushes down: scratch (x is row or the
            # other buffer), or the empty slot it is about to open
            t, free = top[s], (top[e] if s + 1 == e < r else bufs[s % 2])
            if s < carry:
                # diff is the xor of the two indices where the row passes
                # slot s, else 0
                np.bitwise_xor(who[s], held, out=diff)
                np.multiply(diff, np.greater(row, t, out=passes), out=diff)
                np.bitwise_xor(who[s], diff, out=who[s])
                np.bitwise_xor(held, diff, out=held)
            if s == r - 1:  # the last slot keeps the larger and drops the rest
                np.maximum(t, x, out=t)
                break
            np.minimum(t, x, out=free)
            np.maximum(t, x, out=t)
            x = free
        else:  # fewer than r slots so far: the moving value opens one
            if not e:
                top[0] = row
            if e < carry:
                who[e] = held
    top[n:] = -np.inf
    who[n:] = n
    return top, who


def _pick(rows, who: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows[who[c]][c] in each column c, bit for bit, into out.

    out starts as rows[0], and each later row e takes over where who is e:
    the xor of its bits with out's, zeroed elsewhere, is xored into out,
    branch-free where a masked copy pays a branch per element.
    """
    bits = out.view(np.uint64)
    np.copyto(out, rows[0])
    diff, hit = np.empty_like(bits), np.empty(who.shape, dtype=bool)
    for e in range(1, len(rows)):
        np.bitwise_xor(bits, rows[e].view(np.uint64), out=diff)
        np.multiply(diff, np.equal(who, e, out=hit), out=diff)
        np.bitwise_xor(bits, diff, out=bits)
    return out


def _sold(price: np.ndarray, sold: np.ndarray) -> np.ndarray:
    """price where sold, else 0.0, in place: price's bits times sold,
    branch-free where np.where against a scalar pays a branch per element."""
    bits = price.view(np.uint64)
    np.multiply(bits, sold, out=bits)
    return price


def _rev_vcg_k(curves, constraint, ch, params):
    k = params["k"]
    if len(ch.v) <= k:
        return np.zeros(ch.hi - ch.lo)
    return k * _top(ch.v, k + 1)[0][k]


def _rev_spa(curves, constraint, ch, params):
    return _rev_vcg_k(curves, constraint, ch, {"k": 1})


def _rev_vcg_constrained(curves, constraint, ch, params):
    k = params["k"]
    v = ch.v
    n, width = len(v), ch.hi - ch.lo
    partner = constraint.partner(n)
    # Pool one entry per pair (its max; the min is the within-pair rival)
    # and one per unpaired bidder (rival 0).  Top-k pool entries win and
    # each pays the larger of the (k+1)-st pool value and its rival.
    entries = [(i, j) for i, j in enumerate(partner) if j < 0 or i < j]
    rival, maxima = _scratch("vcg_constrained", (2, len(entries), width), np.float64)
    for row, (i, j) in zip(rival, entries):
        if j < 0:
            row.fill(0.0)
        else:
            np.minimum(v[i], v[j], out=row)
    if len(entries) <= k:  # every entry wins and pays its rival
        return rival.sum(axis=0)
    pool = [v[i] if j < 0 else np.maximum(v[i], v[j], out=row)
            for row, (i, j) in zip(maxima, entries)]
    # The top k pool entries win, in the stable argsort's order; summing
    # their payments in that order keeps the bits of a sorted pool's sum.
    top, who = _top(pool, k + 1, carry=k)
    # each winner's rival, gathered from the rival block by flat index
    at = who.astype(np.intp)
    at *= width
    at += np.arange(width)
    pay = np.take(rival, at)
    np.maximum(pay, top[k], out=pay)
    return pay.sum(axis=0)


def _ranked(curve: cv.RevenueCurve) -> bool:
    """Whether myerson ranks a bidder under curve: one with a slope >= 0.

    A bidder whose slopes are all < 0 (an unbounded tail's is -scale)
    never wins, and as the runner-up its virtual value is beaten by every
    slope that can set a price, so its row is neither drawn nor read.
    """
    return bool(curve.table.slope_arr.max() >= 0.0)


def _rev_myerson(curves, constraint, ch, params):
    """The first bidder with the highest virtual value wins if it is >= 0,
    and pays the value at the largest quantile at which it still wins.

    Slopes fall with q, so that quantile is the breakpoint qs[edge] of the
    winner's curve (RevenueCurve.breakpoint_prices holds the value at each
    one): edge counts the leading segments whose slope is >= 0 and beats
    the runner-up's virtual value, strictly when the runner-up comes first
    and weakly when it comes later, as the stable tie rule ranks them.  A
    lone bidder's runner-up reads -inf, which every slope beats.  Only the
    bidders _ranked names are ranked.
    """
    live = [i for i, c in enumerate(curves) if _ranked(c)]
    m = ch.hi - ch.lo
    if not live:
        return np.zeros(m)
    curves = [curves[i] for i in live]
    phi = np.empty((len(live), m))
    for row, i, c in zip(phi, live, curves):
        _phi(c.table, ch.seg[i], row)
    (best, second), (win, runner) = _top(phi, 2, carry=2)
    later = runner > win
    segs = max(c.table.slope_arr.shape[0] for c in curves)
    prices = np.zeros((len(live), segs + 1))
    edge = np.zeros(m, dtype=np.min_scalar_type(segs))
    mine, beats, tie = (np.empty(m, dtype=bool) for _ in range(3))
    for i, c in enumerate(curves):
        prices[i, : c.table.slope_arr.shape[0] + 1] = c.breakpoint_prices
        # mine: where i wins, then where also each slope so far beats the bar
        np.equal(win, i, out=mine)
        for slope in c.table.slope_arr:
            if not slope >= 0.0:
                break
            np.less(second, slope, out=beats)
            np.logical_and(later, np.equal(second, slope, out=tie), out=tie)
            np.logical_and(mine, np.logical_or(beats, tie, out=beats), out=mine)
            edge += mine
    at = win.astype(np.intp)
    at *= segs + 1
    at += edge
    price = np.minimum(np.take(prices, at), _pick([ch.v[i] for i in live], win, np.empty(m)))
    return _sold(price, best >= 0.0)


def _rev_lookahead(curves, constraint, ch, params):
    """The top bidder is offered max(second value, its monopoly reserve).

    A lone bidder's second value reads -inf, and a reserve is >= 0, so its
    price is its reserve, as in the scalar.
    """
    reserves = np.array([cv.monopoly_reserve(c) for c in curves])
    (top_val, second), (win,) = _top(ch.v, 2, carry=1)
    price = np.maximum(second, np.take(reserves, win))
    # a sampled atom draw equals its reserve exactly, but a bid handed to the
    # scalar may sit on it only up to float rounding, so the scalar's
    # acceptance test is tolerant and its payment capped, and so are these
    sold = top_val >= price * (1.0 - 1e-12)
    return _sold(np.minimum(price, top_val, out=price), sold)


def _rev_spald(curves, constraint, ch, params):
    """Second price against a late duplicate of the top bidder.

    Row n + j of ch.v is bidder j's duplicate, the row its clone gets
    under an every-bidder-once extension, which couples this mechanism
    with the duplicate SPA pathwise.  A lone bidder's second value reads
    -inf, and a value is >= 0, so the duplicate's value sets the price.
    """
    n = len(curves)
    (top_val, second), (win,) = _top(ch.v[:n], 2, carry=1)
    dup_val = _pick(ch.v[n:], win, np.empty(ch.hi - ch.lo))
    np.maximum(second, dup_val, out=dup_val)
    return np.minimum(dup_val, top_val, out=dup_val)


def _rev_posted(curves, constraint, ch, params):
    prices = np.asarray(params["prices"], dtype=np.float64)
    # Bidders are offered their prices in index order and the first whose
    # value meets it buys; that bidder's index is n minus the number of
    # offers made once some bidder has met a price, and n means no sale.
    n, m = len(ch.v), ch.hi - ch.lo
    meets = np.empty(m, dtype=bool)
    met = np.zeros(m, dtype=bool)
    offers_after = np.zeros(m, dtype=np.intp)
    for i in range(n):
        np.greater_equal(ch.v[i], prices[i], out=meets)
        met |= meets
        offers_after += met
    return np.append(prices, 0.0).take(n - offers_after)


_MECHANISMS = {
    "spa": _rev_spa,
    "vcg": _rev_vcg_k,
    "vcg_constrained": _rev_vcg_constrained,
    "myerson": _rev_myerson,
    "lookahead": _rev_lookahead,
    "spald": _rev_spald,
    "posted": _rev_posted,
}
# The parameters each mechanism reads; the rest read none.
MECHANISM_PARAMS = {"vcg": ("k",), "vcg_constrained": ("k",), "posted": ("prices",)}
# Which bidders' rows a mechanism's kernel reads, as a test on the bidder's
# curve; the rest read every row.  A row no kernel reads is not drawn.
_READS = {"myerson": _ranked}


def mechanism_names() -> tuple:
    return tuple(sorted(_MECHANISMS))


def _mechanism_fault(mechanism: str, n: int, params: dict):
    """Why sample_revenues refuses mechanism on n bidders with params, as (the
    parameter at fault or None for the mechanism, the reason); None if it runs."""
    if mechanism not in mechanism_names():
        return None, f"unknown mechanism {mechanism!r}; use one of {mechanism_names()}"
    for key in params:
        if key not in MECHANISM_PARAMS.get(mechanism, ()):
            return key, f"{mechanism} reads no parameter {key!r}"
    if mechanism in ("vcg", "vcg_constrained"):
        k = params.get("k")
        if not is_rank(k):
            return "k", f"{mechanism} needs an integer k >= 1, got {k!r}"
    if mechanism == "posted":
        prices = params.get("prices")
        if not (isinstance(prices, (list, tuple)) and len(prices) == n
                and all(map(_price_ok, prices))):
            return "prices", f"posted needs a list of {n} prices >= 0, got {prices!r}"


def _processes(draw_bytes: int, chunks: int) -> int:
    """How many processes share a call of `chunks` chunks whose uniform-drawing
    value rows take draw_bytes: one per CPU this process may run on, while
    each gets _SPLIT_BYTES of those rows and two chunks.  1 off Linux, while
    another Python thread is alive (fork is unsafe, and two threads must not
    share the workers), and in any process forked from one that imported
    this module (_forget_workers), so a worker never splits."""
    if _FORKED or not (sys.platform.startswith("linux") and hasattr(os, "fork")
                       and hasattr(os, "memfd_create")):
        return 1
    if threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), draw_bytes // _SPLIT_BYTES, chunks // 2))


class _Worker:
    """A forked process that fills chunk ranges of split calls (_split).

    The caller pickles each job, a call's fill and its range, down the pipe
    `jobs`.  The worker runs the fill over the range into its buffer, the
    anonymous file `fd` (os.memfd_create) that both processes map shared,
    and answers on the pipe `done` with one byte: 0 when it filled the
    range, 1 when its fill raised.  EOF on `done` means the worker is gone.
    A worker serves until its process exits (_serve, _stop_workers).
    """

    def __init__(self, pid: int, jobs: int, done: int, fd: int):
        self.pid, self.jobs, self.done, self.fd = pid, jobs, done, fd
        self.size, self.view = 0, None  # the caller's map of the buffer

    @classmethod
    def fork(cls):
        """A new worker, or None when its pipes or its fork fail.

        Python 3.12 and later make os.fork warn (DeprecationWarning) in a
        process with more than one OS thread, and numpy's OpenBLAS starts
        one per extra core.  A worker is forked once for the life of its
        process, so the warning fires once per worker, not once per call.
        It is left unsilenced: a worker makes no BLAS call, but the warning
        names a real hazard for other code that forks here.
        """
        ends = []
        try:
            ends += os.pipe()
            ends += os.pipe()
            ends.append(os.memfd_create("dupkit-split"))
            parent = os.getpid()
            pid = os.fork()
        except OSError:
            for end in ends:
                os.close(end)
            return None
        jobs_r, jobs, done, done_w, fd = ends
        if pid == 0:
            _serve(jobs_r, done_w, fd, parent, (jobs, done))
        os.close(jobs_r)
        os.close(done_w)
        return cls(pid, jobs, done, fd)

    def send(self, job: tuple, nbytes: int) -> bool:
        """Hand the worker job, whose range takes nbytes, first sizing the
        buffer to max(nbytes, _BUFFER_KEEP); False if the worker is gone or
        the buffer cannot be sized."""
        size = max(nbytes, _BUFFER_KEEP)
        data = memoryview(pickle.dumps((*job, size), pickle.HIGHEST_PROTOCOL))
        try:
            if size != self.size:
                self.size, self.view = 0, None
                os.ftruncate(self.fd, size)
                self.size, self.view = size, np.frombuffer(mmap.mmap(self.fd, size))
            while data:
                data = data[os.write(self.jobs, data):]
        except OSError:  # BrokenPipeError when the worker is gone
            return False
        return True

    def answer(self) -> bool:
        """Wait for the worker's answer: whether it filled its range."""
        return os.read(self.done, 1) == b"\0"

    def stop(self, kill: bool = False) -> None:
        """End the worker by EOF on its job pipe (or SIGKILL, if kill),
        reap it and close its descriptors."""
        os.close(self.jobs)
        try:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ChildProcessError, ProcessLookupError):  # reaped by other code already
            pass
        os.close(self.done)
        os.close(self.fd)


def _serve(jobs: int, done: int, fd: int, parent: int, callers: tuple) -> None:
    """A worker's life, run in the child right after its fork: fill each
    job's range into the shared buffer and answer it, until EOF on jobs.

    It first closes the caller's ends of its pipes (callers), so that EOF
    comes when the caller closes or dies, and asks the kernel to kill it
    when its parent dies; if the parent is already gone (the pid it sees
    as its parent is no longer `parent`), it leaves at once.  It leaves
    only by os._exit, on SIGINT too, so it never unwinds into the caller's
    code, runs no atexit hook and flushes no stdio buffer.  It runs the
    code its process had at the fork: a module patched later is not seen.
    """
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for end in callers:
            os.close(end)
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        reader, size, view = os.fdopen(jobs, "rb"), 0, None
        while os.getppid() == parent:
            try:
                fill, part, nbytes = pickle.load(reader)
            except EOFError:
                break
            if nbytes != size:
                size, view = nbytes, np.frombuffer(mmap.mmap(fd, nbytes))
            answer = b"\1"
            try:
                fill(part, view, part[0][0])
                answer = b"\0"
            except Exception:  # the caller refills the range, and raises it there
                pass
            os.write(done, answer)
        code = 0
    finally:
        os._exit(code)


_WORKERS = []  # this process's workers, in the order forked
_FORKED = False  # whether this process was forked from one that imported this module


def _forget_workers() -> None:
    """Run in the child of every os.fork: it closes its copies of the
    parent's workers' descriptors, so it can never write to them, and it
    never splits a call (_processes)."""
    global _FORKED
    _FORKED = True
    for worker in _WORKERS:
        for end in (worker.jobs, worker.done, worker.fd):
            os.close(end)
    _WORKERS.clear()


def _stop_workers() -> None:
    """End and reap every worker; run at exit."""
    while _WORKERS:
        _WORKERS.pop().stop()


def _retire(worker: _Worker, kill: bool = False) -> None:
    _WORKERS.remove(worker)
    worker.stop(kill)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(_stop_workers)


def _split(fill, spans, processes: int, out: np.ndarray) -> int:
    """fill(part, dest, base) over the chunks spans, cut into `processes`
    contiguous ranges: the caller fills the first straight into out and a
    worker each other one, which the caller then copies over.  Returns how
    many processes filled a range.

    fill must pickle (a module-level function, or a functools.partial of
    one), as each worker gets it with its range.  Missing workers are
    forked first.  A range whose worker cannot be forked, is gone or
    answers 1 is filled by the caller, to the same bits, and that worker
    is reaped, so the next call forks a fresh one.  If the caller raises
    (KeyboardInterrupt included), every worker that has not answered is
    killed and reaped.
    """
    cuts = [len(spans) * p // processes for p in range(processes + 1)]
    ranges = list(zip(cuts, cuts[1:]))
    while len(_WORKERS) < processes - 1 and (worker := _Worker.fork()) is not None:
        _WORKERS.append(worker)
    workers = _WORKERS[: processes - 1]
    # ranges the caller fills; (worker, range) not yet answered
    mine, sent = [ranges[0], *ranges[1 + len(workers):]], []
    try:
        for worker, (a, b) in zip(workers, ranges[1:]):
            if worker.send((fill, spans[a:b]), 8 * (spans[b - 1][1] - spans[a][0])):
                sent.append((worker, (a, b)))
            else:
                _retire(worker)
                mine.append((a, b))
        for a, b in mine:
            fill(spans[a:b], out, 0)
        filled = 1
        while sent:
            worker, (a, b) = sent[0]
            ok = worker.answer()
            del sent[0]
            lo, hi = spans[a][0], spans[b - 1][1]
            if ok:
                out[lo:hi] = worker.view[: hi - lo]
                filled += 1
            else:
                _retire(worker)
                fill(spans[a:b], out, 0)
    finally:
        for worker, _ in sent:
            _retire(worker, kill=True)
    return filled


def _rows_read(runs, mechanism: str):
    """The distinct rows a call draws, and the row each bidder's kernel reads.

    Returns (drawn, picks): drawn maps (substream, curve bits) to (row,
    substream, curve), and picks holds for each run the row of each of its
    bidders, None where the run's kernel reads no row (_READS).  A run's
    row i draws substream i under curve i, and spald's row n + j
    substream n + j under curve j.  Each distinct row is drawn once per
    chunk, so two runs draw the rows they share once.
    """
    reads = _READS.get(mechanism)
    drawn, picks = {}, []
    for profile, _ in runs:
        curves = profile.curves * 2 if mechanism == "spald" else profile.curves
        picks.append([None if reads and not reads(c)
                      else drawn.setdefault((i, c.table.key), (len(drawn), i, c))[0]
                      for i, c in enumerate(curves)])
    return drawn, picks


def _spans(n_samples: int) -> list:
    """The (lo, hi) counter spans of a call's chunks.  Chunks start at
    multiples of _CHUNK, and a remainder shorter than half a chunk joins
    the chunk before it, so no call ends on a sliver."""
    starts = list(range(0, n_samples - _CHUNK // 2, _CHUNK)) or [0]
    return list(zip(starts, [*starts[1:], n_samples]))


def _fill(runs, mechanism: str, seed: int, params, rows, drawn, picks, part, dest, base):
    """Per-draw revenue of runs[0], less that of runs[1] when given, over the
    chunk spans part, into dest[lo - base : hi - base] for each span [lo,
    hi); rows is the row store or None, and drawn and picks are the runs'
    _rows_read.  A call binds its first seven arguments (functools.partial)
    into the fill that it and _split run."""
    kernel = _MECHANISMS[mechanism]
    unread = (None, None)
    # one scratch block and one block of value rows per thread, rewritten
    # chunk by chunk where the row store does not serve a row
    width = max(hi - lo for lo, hi in part)
    block = _scratch("revenues", (3 + len(drawn), width), np.float64)
    scratch, v = block[:3], block[3:]
    for lo, hi in part:
        got = [_value_row(rows, seed, i, c, lo, hi, scratch, v[r]) for r, i, c in drawn.values()]
        revs = [kernel(profile.curves, con,
                       _Chunk(*zip(*(unread if r is None else got[r] for r in pick)), lo, hi),
                       params)
                for (profile, con), pick in zip(runs, picks)]
        if len(revs) == 1:
            dest[lo - base : hi - base] = revs[0]
        else:
            np.subtract(*revs, out=dest[lo - base : hi - base])


def _revenues(runs, mechanism: str, n_samples: int, seed: int, params) -> np.ndarray:
    """Per-draw revenue of the run runs[0], less that of runs[1] when given.

    A run is a (profile, constraint).  Each run's kernel reads its rows of
    every chunk (_rows_read), and the difference goes chunk by chunk into
    one array.  A call the row store does not admit may be split across
    processes (_split).  The number of processes that filled the call is
    kept for sampling_processes.
    """
    for profile, _ in runs:
        if fault := _mechanism_fault(mechanism, profile.n, params):
            raise DomainError(fault[1])
    check_rank("n_samples", n_samples)
    runs = [(profile, NO_CONSTRAINT if con is None else con) for profile, con in runs]
    drawn, picks = _rows_read(runs, mechanism)
    spans = _spans(n_samples)
    rows = _row_store()
    if not rows.admit(seed, len(drawn) * n_samples * 8):
        rows = None
    fill = functools.partial(_fill, runs, mechanism, seed, params, rows, drawn, picks)
    out = np.empty(n_samples)
    draw_bytes = sum(8 * n_samples for _, _, c in drawn.values() if _draws(c))
    processes = 1 if rows is not None else _processes(draw_bytes, len(spans))
    if processes == 1:
        fill(spans, out, 0)
    else:
        processes = _split(fill, spans, processes, out)
    _SCRATCH.processes = processes
    return out


def sampling_processes() -> int:
    """How many processes filled this thread's last sampling call: 1 when it
    ran serial (before any call too)."""
    return getattr(_SCRATCH, "processes", 1)


def sample_revenues(
    profile: cv.BidderProfile,
    constraint: PairConstraint,
    mechanism: str,
    n_samples: int,
    seed: int,
    workers: int = 0,
    **params,
) -> np.ndarray:
    """Per-sample revenue array; the estimators below summarise it.

    A large call may be split across processes (see the module docstring);
    the bits do not depend on the split.  ``workers`` is ignored; only the
    benchmark's stage table passes it.
    """
    return _revenues([(profile, constraint)], mechanism, n_samples, seed, params)


def _estimator(estimator: str, *profiles: cv.BidderProfile) -> str:
    """The estimator named, or by default median-of-means when any profile
    has an unbounded curve, else plain; callers resolve it before drawing,
    so an unknown name costs no samples."""
    if estimator not in ("", *ESTIMATORS):
        raise DomainError(f"unknown estimator {estimator!r}")
    return estimator or (MEDIAN_OF_MEANS if any(map(cv.has_unbounded, profiles)) else PLAIN)


def _block_means(rev: np.ndarray, blocks: int) -> np.ndarray:
    """Means of the np.array_split(rev, blocks) blocks, bit for bit.

    array_split makes n % blocks leading blocks one longer than the rest;
    each run of equal-length blocks is one reshape, and a row mean sums its
    block the way a 1-d mean does.
    """
    size, longer = divmod(rev.shape[0], blocks)
    split = longer * (size + 1)
    means = np.empty(blocks)
    rev[:split].reshape(longer, size + 1).mean(axis=1, out=means[:longer])
    rev[split:].reshape(blocks - longer, size).mean(axis=1, out=means[longer:])
    return means


def _median(a: np.ndarray) -> float:
    """np.median of a 1-d array without NaNs, bit for bit: its partition and
    its mean of the middle one or two elements, less its NaN check, which
    imports numpy.ma on its first call (about 13 ms)."""
    n = a.shape[0]
    kth = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    return float(np.partition(a, [*kth, -1])[kth[0] : n // 2 + 1].mean())


def _summarize(rev: np.ndarray, seed: int, estimator: str) -> Estimate:
    """The Estimate of rev under estimator, one of ESTIMATORS; fewer than two
    draws (or one block) give stderr 0.0, which is no error bar."""
    n = rev.shape[0]
    if estimator == PLAIN:
        mean = float(rev.mean())
        stderr = float(rev.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return Estimate(mean, stderr, n, seed, PLAIN)
    blocks = math.isqrt(n - 1) + 1 if n > 1 else 1
    means = _block_means(rev, blocks)
    mean = _median(means)
    stderr = float(means.std(ddof=1) / math.sqrt(blocks)) if blocks > 1 else 0.0
    return Estimate(mean, stderr, n, seed, MEDIAN_OF_MEANS, blocks)


def estimate_revenue(
    profile: cv.BidderProfile,
    constraint: PairConstraint,
    mechanism: str,
    n_samples: int,
    seed: int,
    estimator: str = "",
    **params,
) -> Estimate:
    """Monte Carlo expected revenue, reproducible from (inputs, seed) alone.

    The estimator defaults to median-of-means on ceil(sqrt(n)) blocks when
    any curve has unbounded support (their order statistics have heavy
    tails and plain CLT error bars are untrustworthy), else plain mean.
    params are the mechanism's own, checked before any draw.
    """
    estimator = _estimator(estimator, profile)
    # checked here, as sample_revenues would bind workers=... to its own
    # ignored parameter
    if fault := _mechanism_fault(mechanism, profile.n, params):
        raise DomainError(fault[1])
    rev = sample_revenues(profile, constraint, mechanism, n_samples, seed, **params)
    return _summarize(rev, seed, estimator)


def paired_compare(
    profile_a: cv.BidderProfile,
    profile_b: cv.BidderProfile,
    constraint_a: PairConstraint,
    constraint_b: PairConstraint,
    mechanism: str,
    n_samples: int,
    seed: int,
    estimator: str = "",
    **params,
) -> Estimate:
    """Estimate of E[rev_a - rev_b] under common random numbers.

    Bidder i draws the same uniforms in both environments, so comparisons
    that hold pathwise (adding a bidder to a second-price auction, say)
    show up with zero or tiny variance instead of two fat error bars.  A
    row the two profiles share (same bidder index and curve) is drawn once
    per chunk, and the result is bit for bit that of subtracting the two
    sample_revenues arrays.
    """
    if profile_a.curves[0] != profile_b.curves[0]:
        raise ProfileMismatch("profiles must share a common original prefix")
    estimator = _estimator(estimator, profile_a, profile_b)
    runs = [(profile_a, constraint_a), (profile_b, constraint_b)]
    diff = _revenues(runs, mechanism, n_samples, seed, params)
    return _summarize(diff, seed, estimator)


def _tail_sums(pmf: np.ndarray, r: int) -> np.ndarray:
    """math.fsum of each row's entries r.., bit for bit.

    fsum returns the exact sum S rounded to the nearest double.  The
    entries are >= 0.  A row of one entry is its own sum, and a row of two
    the double sum of both, rounded once as fsum's is.  Longer rows are
    summed in long double, of _SUM_BITS significand bits (u =
    2^-_SUM_BITS): the sum s of L terms >= 0, in any order, is within
    (L-1)u/(1-(L-1)u) S of S (Higham 2002, section 4.2), so S lies in
    [s - e, s + e] for e = (L+2)u s, the 2 covering the rounding of e and
    of s -+ e.  Rounding to nearest is monotone, so where both ends round
    to one double, S rounds to it too: that is the row's fsum.  The other
    rows, which straddle or touch a rounding boundary (a few percent),
    go to fsum, and where long double is plain double every row does.
    Zero entries change no fsum and add exactly 0 to the long double sum
    (they only widen e), so the quadrature zeroes each row's entries below
    its own start and sums all rows from the smallest (_compact_tails).
    """
    tail = pmf[:, r:]
    terms = tail.shape[1]
    if terms <= 2:
        return tail.sum(axis=1)
    if _SUM_BITS <= 53:
        return np.array([math.fsum(row) for row in tail.tolist()])
    wide = tail.astype(np.longdouble).sum(axis=1)
    slack = wide * np.longdouble((terms + 2) * 2.0**-_SUM_BITS)
    out, high = (wide - slack).astype(float), (wide + slack).astype(float)
    for i in np.flatnonzero(out != high):
        out[i] = math.fsum(tail[i].tolist())
    return out


def _compact(pieces: np.ndarray, r: int):
    """The fractional pieces of each row of a (rows, n, 3) value_piece
    array, and where the tail from r of the row's pmf starts in theirs.

    A piece with slope -inf is a constant.  q = 0 leaves a pmf unchanged;
    q = 1 shifts it one place, exactly (x*0 = +0, x*1 = x and 0 + x = x
    for finite x >= 0), and the shift commutes exactly with every other
    step.  Zero entries do not change an fsum.  So the tail from r of a
    row's pmf has the bits of the tail from max(r - ones, 0) of its
    fractional pieces' pmf, ones counting its q = 1 pieces.  Returns the
    fractional (slope, c) first, in bidder order, padded with the
    constants' (-inf, 0.0), which read q = +0, and each row's width (its
    count of fractional pieces) and start.
    """
    frac = np.isfinite(pieces[:, :, 1])
    width = frac.sum(axis=1)
    order = (~frac).argsort(axis=1, kind="stable")[:, : max(width.tolist())]
    start = np.maximum(r - pieces[:, :, 0].sum(axis=1), 0.0)
    kept = pieces[np.arange(len(pieces))[:, None], order]
    return kept[:, :, 1].T, kept[:, :, 2].T, width, start


def _compact_tails(q: np.ndarray, start: np.ndarray) -> np.ndarray:
    """_tail_sums of each row's Poisson-binomial pmf from its own start.

    Where the starts differ, the entries below a row's start are set to
    zero, which changes no fsum, and every row is summed from the smallest.
    """
    pmf = poisson_binomial_rows(q)
    lo = int(start.min())
    if start.max() > lo:
        pmf[np.arange(pmf.shape[1]) < start[:, None]] = 0.0
    return _tail_sums(pmf, lo)


def expected_order_stat(profile: cv.BidderProfile, r: int, tol: float = 1e-8) -> float:
    """E[r-th highest value] = integral over t >= 0 of Pr[at least r values >= t] dt.

    [0, inf) is cut into panels at every kink value of every curve.  On a
    panel each bidder's sale probability is one cv.value_piece, read at the
    panel's midpoint: k + c/(t - slope), either c/(t - slope) or a
    constant 0 or 1.  So the integrand, an exact Poisson-binomial tail of
    those probabilities, is smooth on each closed panel.  Finite panels are
    integrated in t; the last one, [t_max, inf), in s on [0, 1) with
    t = t_max + s/(1-s).

    The panel table is built in one pass: cv.value_pieces reads every
    distinct curve's piece on every panel at once, and _compact keeps of
    each panel only its fractional bidders, in bidder order, with the
    start max(r - ones, 0) of its tail (ones counts its q = 1 bidders).
    Dropping the constants keeps every bit, as _compact says, and shrinks
    the recursion.  A panel whose start exceeds its width, so that fewer
    than r bidders have a piece other than q = 0, has integrand 0.0 at
    every node and K15 value 0.0, which adds nothing, so it is skipped; it
    still counts in the share of tol.

    Each panel gets an equal share of tol and runs adaptive 7-15 point
    Gauss-Kronrod: an interval is accepted with the value K15 when
    |K15 - G7| is within its share, and otherwise halved, each half taking
    half the share.  A round evaluates the 15 nodes of every pending
    interval at once, q = c/(t - slope) on the widest pending panel's
    width (k = 0 on a segment; padding reads q = +0), in one
    analysis.poisson_binomial_rows call; the accepted values are summed
    left to right, so the result does not depend on the rounds.  Raises
    NonConvergence when halving would make more than _MAX_INTERVALS
    intervals.

    A node's integrand is the fsum of its pmf row's entries from its start,
    taken through _tail_sums: a long double sum kept only where a rigorous
    error bound shows the exact sum rounds to the same double, else
    math.fsum, so no bit depends on which path a row took.  Where long
    double is plain double every row takes fsum.  r must pass
    errors.check_rank.
    """
    check_rank("r", r)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if r > profile.n:
        return 0.0
    if r == 1 and cv.has_unbounded(profile):
        raise UnboundedExpectation("the maximum of an unbounded-support profile has no mean")

    curves = {c.table.key: c for c in profile.curves}
    cuts = sorted({0.0, *(v for curve in curves.values() for v in cv.kink_values(curve))})
    t_max = cuts[-1]
    ends = [*zip(cuts, cuts[1:]), (0.0, 1.0)]  # the last panel in s
    mids = [0.5 * (a + b) for a, b in ends[:-1]] + [t_max + 1.0]
    # each bidder's piece on each panel, read once per distinct curve
    slot = {key: j for j, key in enumerate(curves)}
    cols = [slot[curve.table.key] for curve in profile.curves]
    pieces = cv.value_pieces(curves.values(), np.array(mids)).take(cols, 1)
    slope, c, width, start = _compact(pieces, r)
    last = len(ends) - 1
    # pending intervals: panel, ends and tolerance share, without the panels
    # on which fewer than r bidders have a piece other than q = 0
    p = (start <= width).nonzero()[0]
    a, b = np.array(ends).take(p, 0).T
    share = np.full(p.size, tol / len(ends))
    accepted = []
    made = 0
    while p.size:
        half = 0.5 * (b - a)
        mid = a + half
        t = mid[:, None] + half[:, None] * _GK_NODES
        tail = (p == last).nonzero()[0]
        if tail.size:
            s = t[tail]
            u = 1.0 - s
            t[tail] = t_max + s / u
        # q is (bidder, interval, node), so that its (w, rows) reshape is
        # the recursion's own layout and poisson_binomial_rows copies nothing
        w = max(width.take(p).tolist())
        q = c[:w].take(p, 1)[:, :, None] / (t - slope[:w].take(p, 1)[:, :, None])
        f = _compact_tails(q.reshape(w, t.size).T, start.take(p).repeat(t.shape[1]))
        f = f.reshape(t.shape)
        if tail.size:  # dt/ds on the last panel
            f[tail] *= 1.0 / (u * u)
        kronrod, gauss = half * np.add.reduce(f[:, None] * _GK_WEIGHTS, axis=2).T
        done = np.abs(kronrod - gauss) <= share
        finished = done.all()
        kept = slice(None) if finished else done
        accepted += zip(p[kept].tolist(), a[kept].tolist(), kronrod[kept].tolist())
        if finished:
            break
        split = ~done
        made += 2 * int(split.sum())
        if made > _MAX_INTERVALS:
            raise NonConvergence("quadrature failed to reach tolerance")
        p, share = np.concatenate([p[split]] * 2), np.concatenate([share[split] / 2.0] * 2)
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
    total = 0.0
    for _, _, value in sorted(accepted):
        total += value
    return total


def mechanism_revenue_quadrature(profile: cv.BidderProfile, k: int = 1) -> float:
    """Exact expected revenue of the k-item uniform-price auction.

    Every winner pays the (k+1)-st highest value, so revenue is k times
    that order statistic's mean.  k must pass errors.check_rank.
    """
    check_rank("k", k)
    if profile.n < k + 1:
        raise DomainError(f"need at least k+1={k + 1} bidders, got {profile.n}")
    return k * expected_order_stat(profile, k + 1)
