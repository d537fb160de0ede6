"""Reference auction rules on a single bid vector.

These are the readable single-profile implementations; simulate.py carries
vectorized twins used for Monte Carlo and cross-checked against these in the
test suite.  All tie-breaks go to the lowest bidder index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import curves as cv
from .errors import DomainError, ProfileMismatch, check_rank


@dataclass(frozen=True)
class AuctionOutcome:
    winners: tuple[int, ...]
    payments: dict
    revenue: float


@dataclass(frozen=True)
class PairConstraint:
    """Disjoint pairs of bidder indices of which at most one may win."""

    pairs: tuple

    def __post_init__(self):
        seen = set()
        for pair in self.pairs:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise DomainError(f"not a pair of distinct indices: {pair}")
            for i in pair:
                if i in seen:
                    raise DomainError(f"index {i} appears in two pairs")
                seen.add(i)

    def partner(self, n: int) -> list:
        """partner[i] = the index paired with i, or -1."""
        out = [-1] * n
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise DomainError(f"pair ({a},{b}) out of range for n={n}")
            out[a], out[b] = b, a
        return out


NO_CONSTRAINT = PairConstraint(())


def _outcome(winner_pay: list) -> AuctionOutcome:
    winners = tuple(i for i, _ in winner_pay)
    payments = {i: p for i, p in winner_pay}
    return AuctionOutcome(winners, payments, math.fsum(p for _, p in winner_pay))


def _check_bids(bids) -> list:
    bids = [float(b) for b in bids]
    if not bids:
        raise DomainError("need at least one bid")
    if any(b < 0.0 or not math.isfinite(b) for b in bids):
        raise DomainError("bids must be finite and >= 0")
    return bids


def run_spa(bids) -> AuctionOutcome:
    """Second-price auction; a lone bidder pays zero."""
    bids = _check_bids(bids)
    winner = min(range(len(bids)), key=lambda i: (-bids[i], i))
    price = sorted(bids, reverse=True)[1] if len(bids) > 1 else 0.0
    return _outcome([(winner, price)])


def run_vcg_k(bids, k: int) -> AuctionOutcome:
    """k identical items, top k bids win, all pay the (k+1)-st bid."""
    bids = _check_bids(bids)
    check_rank("k", k)
    order = sorted(range(len(bids)), key=lambda i: (-bids[i], i))
    winners = sorted(order[:k])
    price = bids[order[k]] if len(bids) > k else 0.0
    return _outcome([(i, price) for i in winners])


def _greedy_matroid(bids, k, partner, skip=-1):
    """Greedy max-weight set: at most k winners, at most one per pair."""
    chosen = []
    taken = set()
    for i in sorted(range(len(bids)), key=lambda j: (-bids[j], j)):
        if len(chosen) == k:
            break
        if i == skip or partner[i] in taken:
            continue
        chosen.append(i)
        taken.add(i)
    return chosen


def run_vcg_constrained(bids, k: int, constraint: PairConstraint) -> AuctionOutcome:
    """VCG for k items under pair constraints.

    Feasible sets form a partition matroid (one slot per pair, k overall), so
    greedy is welfare-optimal and each winner pays its externality: the
    welfare others get without it minus the welfare others get with it.
    """
    bids = _check_bids(bids)
    check_rank("k", k)
    partner = constraint.partner(len(bids))
    chosen = _greedy_matroid(bids, k, partner)
    w_star = math.fsum(bids[i] for i in chosen)
    winner_pay = []
    for i in sorted(chosen):
        w_without = math.fsum(bids[j] for j in _greedy_matroid(bids, k, partner, skip=i))
        winner_pay.append((i, max(0.0, w_without - (w_star - bids[i]))))
    return _outcome(winner_pay)


def _phi_of_bid(curve: cv.RevenueCurve, bid: float) -> float:
    """Virtual value of a bid: curve slope on the bid's quantile interval.

    A bid carrying an atom occupies [q_lo, q_hi] with constant slope inside;
    bids below the support floor can never win.  The floor test and the two
    inverses are probed a relative epsilon apart so a bid equal to an atom's
    value up to float rounding still lands inside the atom rather than on
    the kink itself or below the floor.
    """
    pad = 1e-9 * max(1.0, bid)
    if bid + pad < cv.value(curve, 1.0):
        return -math.inf
    q_hi = cv.quantile_of_value(curve, max(bid - pad, 0.0))
    q_lo = cv.quantile_lower_of_value(curve, bid + pad)
    if q_hi > q_lo:
        return cv.slope_at(curve, 0.5 * (q_lo + q_hi))
    return cv.slope_at(curve, q_hi)


def _phi_threshold_quantile(curve, beat_strict, beat_weak):
    """Largest quantile at which the slope still clears both beat levels.

    Slopes do not increase in q, so that is the left end of the first
    segment whose slope fails >= 0, > beat_strict or >= beat_weak, or 1.0.
    """
    for q0, _, slope, _ in cv.segments(curve):
        if not (slope >= 0.0 and slope > beat_strict and slope >= beat_weak):
            return q0
    return 1.0


def run_myerson_single(profile: cv.BidderProfile, bids) -> AuctionOutcome:
    """Single-item optimal auction: highest nonnegative virtual value wins.

    The winner pays its threshold bid: the value at the largest quantile
    at which it would still win.
    """
    bids = _check_bids(bids)
    if len(bids) != profile.n:
        raise ProfileMismatch(f"{len(bids)} bids for {profile.n} bidders")
    phis = [_phi_of_bid(c, b) for c, b in zip(profile.curves, bids)]
    winner = min(range(len(bids)), key=lambda i: (-phis[i], i))
    if phis[winner] < 0.0:
        return AuctionOutcome((), {}, 0.0)
    beat_strict = max((p for i, p in enumerate(phis) if i < winner), default=-math.inf)
    beat_weak = max((p for i, p in enumerate(phis) if i > winner), default=-math.inf)
    curve = profile.curves[winner]
    q_pay = _phi_threshold_quantile(curve, beat_strict, beat_weak)
    price = cv.value(curve, max(q_pay, cv.EPS_MIN))
    return _outcome([(winner, min(price, bids[winner]))])


def run_lookahead(profile: cv.BidderProfile, bids) -> AuctionOutcome:
    """Offer the highest bidder max(second-highest bid, its monopoly reserve).

    A bid sitting on an atom equals the reserve exactly, so the acceptance
    test tolerates relative float rounding; the payment is capped at the bid
    to keep the outcome individually rational.
    """
    bids = _check_bids(bids)
    if len(bids) != profile.n:
        raise ProfileMismatch(f"{len(bids)} bids for {profile.n} bidders")
    top = min(range(len(bids)), key=lambda i: (-bids[i], i))
    second = max((b for i, b in enumerate(bids) if i != top), default=0.0)
    price = max(second, cv.monopoly_reserve(profile.curves[top]))
    if bids[top] >= price * (1.0 - 1e-12):
        return _outcome([(top, min(price, bids[top]))])
    return AuctionOutcome((), {}, 0.0)


def run_spald(profile: cv.BidderProfile, bids, dup_draw: float) -> AuctionOutcome:
    """Second-price auction with a late duplicate of the highest bidder.

    The duplicate bids a fresh draw from the top bidder's own curve (via the
    uniform dup_draw) and competes as bidder n in a second-price auction over
    all n+1 bids, so it can win outright; ties go to the originals.
    """
    bids = _check_bids(bids)
    if len(bids) != profile.n:
        raise ProfileMismatch(f"{len(bids)} bids for {profile.n} bidders")
    top = min(range(len(bids)), key=lambda i: (-bids[i], i))
    dup_bid = cv.sample_value(profile.curves[top], dup_draw)
    return run_spa([*bids, dup_bid])


def _price_ok(p) -> bool:
    """A posted price is a real number >= 0, so not NaN or a bool; an infinite
    price offers the item to no one."""
    return isinstance(p, numbers.Real) and not isinstance(p, bool) and p >= 0.0


def run_posted(prices, bids) -> AuctionOutcome:
    """Sequential posted prices: first bidder whose bid meets its price buys."""
    bids = _check_bids(bids)
    prices = list(prices)
    if len(prices) != len(bids):
        raise ProfileMismatch(f"{len(prices)} prices for {len(bids)} bids")
    if not all(map(_price_ok, prices)):
        raise DomainError(f"posted prices must be numbers >= 0, got {prices}")
    prices = [float(p) for p in prices]
    for i, (p, b) in enumerate(zip(prices, bids)):
        if b >= p:
            return _outcome([(i, p)])
    return AuctionOutcome((), {}, 0.0)
