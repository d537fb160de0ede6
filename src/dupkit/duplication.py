"""Duplicate environments and selection rules for whom to duplicate.

A plan says which bidders get cloned; extend_profile materializes the clones
(appended after the originals) and, when asked, the original/clone pair
constraint.  Selection rules pick the bidder to duplicate from different
amounts of information: a revenue-curve quantile, a noisy oracle for it, or
a single sample per bidder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import curves as cv
from .errors import DomainError, check_rank
from .mechanisms import PairConstraint

@dataclass(frozen=True)
class DuplicatePlan:
    """Bidders to clone: ``sources`` lists original indices in append order,
    or is None for every bidder once; with ``pair_constrained`` each clone
    may win only if its original does not."""

    sources: tuple | None
    pair_constrained: bool = False


def single_of(i: int) -> DuplicatePlan:
    return DuplicatePlan((i,))


def k_copies_of(i: int, k: int) -> DuplicatePlan:
    check_rank("k", k)
    return DuplicatePlan((i,) * k)


def set_once(indices, pair_constrained: bool = False) -> DuplicatePlan:
    return DuplicatePlan(tuple(indices), pair_constrained)


def all_once(pair_constrained: bool = False) -> DuplicatePlan:
    return DuplicatePlan(None, pair_constrained)


def duplicate_sources(plan: DuplicatePlan, n: int) -> list:
    """Original indices to clone, in append order."""
    sources = list(range(n) if plan.sources is None else plan.sources)
    for j in sources:
        if not 0 <= j < n:
            raise IndexError(f"bidder index {j} out of range for n={n}")
    return sources


def extend_profile(profile: cv.BidderProfile, plan: DuplicatePlan):
    """Profile with clones appended, plus the original/clone pair constraint.

    The constraint is empty unless the plan is pair-constrained, in which
    case each clone may win only if its original does not.
    """
    n = profile.n
    sources = duplicate_sources(plan, n)
    curves = list(profile.curves) + [profile.curves[j] for j in sources]
    names = None
    if profile.names is not None:
        names = tuple(profile.names) + tuple(f"{profile.names[j]}*" for j in sources)
    pairs = ()
    if plan.pair_constrained:
        pairs = tuple((j, n + pos) for pos, j in enumerate(sources))
    return cv.BidderProfile(tuple(curves), names), PairConstraint(pairs)


def select_by_beta(profile: cv.BidderProfile, beta: float) -> int:
    """Bidder maximizing Rev_i(beta); ties go to the lowest index."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    return min(range(profile.n), key=lambda i: (-cv.rev(profile.curves[i], beta), i))


def select_by_noisy_beta(noisy_revs) -> int:
    """Argmax of reported revenues from (revenue, reported_quantile) pairs."""
    reports = [float(r) for r, _ in noisy_revs]
    if not reports:
        raise DomainError("need at least one report")
    return min(range(len(reports)), key=lambda i: (-reports[i], i))


def select_by_sample(samples) -> int:
    """Bidder with the highest single sampled value."""
    vals = [float(s) for s in samples]
    if not vals:
        raise DomainError("need at least one sample")
    return min(range(len(vals)), key=lambda i: (-vals[i], i))


def select_k_set_noisy(noisy_revs, k: int) -> frozenset:
    """Top-k bidders by reported revenue."""
    reports = [float(r) for r, _ in noisy_revs]
    check_rank("k", k)
    if k > len(reports):
        raise DomainError(f"k={k} out of range for {len(reports)} reports")
    order = sorted(range(len(reports)), key=lambda i: (-reports[i], i))
    return frozenset(order[:k])


def noisy_beta_reports(profile: cv.BidderProfile, beta: float, eps: float, seed: int):
    """Simulated oracle: each bidder reports Rev_i(b_i) at a perturbed b_i.

    b_i is uniform on [beta(1-eps), beta(1+eps)] clipped into (0,1), the
    weakest model consistent with a multiplicative-error promise.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0,1), got {eps}")
    rng = random.Random(seed)
    lo = max(beta * (1.0 - eps), cv.EPS_MIN)
    hi = min(beta * (1.0 + eps), 1.0 - cv.EPS_MIN)
    out = []
    for c in profile.curves:
        b = rng.uniform(lo, hi)
        out.append((cv.rev(c, b), b))
    return out


def best_single_duplicate(profile: cv.BidderProfile, evaluator, workers: int = 0):
    """Exhaustive search for the best bidder to duplicate.

    evaluator(extended_profile, constraint) -> expected revenue; it must be
    deterministic so the argmax is reproducible.  Candidates run serially;
    ``workers`` is ignored; only the benchmark's stage table passes it.
    """
    revs = []
    for i in range(profile.n):
        extended, constraint = extend_profile(profile, single_of(i))
        revs.append(float(evaluator(extended, constraint)))
    best = min(range(profile.n), key=lambda i: (-revs[i], i))
    return best, revs[best]
