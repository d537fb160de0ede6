"""Exact tail probabilities, case classifiers, and closed-form constants.

The classifiers take an instance plus its ex ante solution and return which
structural case holds, with enough witness data to re-verify the defining
inequality from scratch.  Tail probabilities come from an exact
Poisson-binomial convolution, never sampling: the 1/2 thresholds here are
sharp and sampling noise would flip cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from .errors import DomainError, HypothesisViolated, LemmaViolation, check_rank
from .exante import ExAnteSolution

_SLACK = 1e-12

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"


@dataclass(frozen=True)
class PoissonBinomial:
    """Distribution of the number of successes among independent Bernoullis."""

    probs: tuple
    pmf: tuple

    def tail_at_least(self, m: int) -> float:
        """Pr[S >= m]."""
        if m <= 0:
            return 1.0
        return math.fsum(self.pmf[m:])


@dataclass(frozen=True)
class LemmaCase:
    which: str
    witness: dict


def poisson_binomial(probs) -> PoissonBinomial:
    """Exact pmf of a sum of independent Bernoulli(p_i) via convolution."""
    ps = tuple(float(p) for p in probs)
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p} outside [0,1]")
    pmf = [1.0]
    for p in ps:
        nxt = [0.0] * (len(pmf) + 1)
        for s, mass in enumerate(pmf):
            nxt[s] += mass * (1.0 - p)
            nxt[s + 1] += mass * p
        pmf = nxt
    return PoissonBinomial(ps, tuple(pmf))


def poisson_binomial_rows(probs) -> np.ndarray:
    """The pmf of every row of an (m, n) probability array, as an (m, n+1) array.

    Row i equals poisson_binomial(probs[i]).pmf bit for bit: each step sets
    element s to pmf[s-1]*p + pmf[s]*(1-p), the scalar convolution's
    products and sum, for all rows at once.  The array is worked on
    transposed, one contiguous row per bidder.  Step i touches only
    elements 0..i+1, the length of the scalar pmf after it; the elements
    past them are zeros that no step has to add.  Step 0 takes [1] to
    [1*(1-p), 0 + 1*p], which is [1-p, p] exactly, so it is written directly.
    """
    p = np.asarray(probs, dtype=float)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both
        raise DomainError(f"probability {p[~((p >= 0.0) & (p <= 1.0))][0]} outside [0,1]")
    m, n = p.shape
    p = np.ascontiguousarray(p.T)
    stay = 1.0 - p
    pmf = np.zeros((n + 1, m))
    pmf[:2] = (stay[0], p[0]) if n else 1.0
    up = np.empty((n, m))
    for i in range(1, n):
        live, above, add = pmf[: i + 1], pmf[1 : i + 2], up[: i + 1]
        np.multiply(live, p[i], out=add)
        np.multiply(live, stay[i], out=live)
        np.add(above, add, out=above)
    return pmf.T


def median_lower_bound_check(probs) -> bool:
    """True iff Pr[S >= floor(sum p_i)] >= 1/2, from the exact pmf.

    The integer threshold is where the median bound actually holds; at the
    raw mean it can fail.
    """
    ps = [float(p) for p in probs]
    if not ps:
        raise DomainError("need at least one probability")
    pb = poisson_binomial(ps)
    m = math.floor(math.fsum(ps))
    return pb.tail_at_least(m) >= 0.5 - _SLACK


def _val(curve: cv.RevenueCurve, q: float) -> float:
    """value() with the quantile floored away from the unbounded endpoint."""
    if cv.is_unbounded(curve) or q > 0.0:
        return cv.value(curve, max(q, cv.EPS_MIN))
    return cv.value(curve, 0.0)


def classify_single(
    profile: cv.BidderProfile, alpha: float, beta: float, exante: ExAnteSolution
) -> LemmaCase:
    """Which arm of the single-item dichotomy the instance satisfies.

    Case 1: some bidder's value at quantile beta already reaches alpha*opt
    (the witness is every such bidder).  Case 2: nobody does, and the sale
    probabilities at price alpha*opt sum to at least (1-alpha)/alpha*(1-beta).
    Exactly one holds for regular curves; anything else is a bug upstream.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError("alpha and beta must lie in (0,1)")
    target = alpha * exante.opt
    vals = [_val(c, beta) for c in profile.curves]
    hits = [i for i, v in enumerate(vals) if v >= target]
    if hits:
        return LemmaCase(
            CASE1, {"indices": tuple(hits), "values_at_beta": tuple(vals), "target": target}
        )
    qs = [cv.quantile_of_value(c, target) for c in profile.curves]
    total = math.fsum(qs)
    need = (1.0 - alpha) / alpha * (1.0 - beta)
    if total >= need - _SLACK:
        return LemmaCase(
            CASE2, {"quantiles_at_target": tuple(qs), "sum": total, "need": need, "target": target}
        )
    raise LemmaViolation(
        f"neither case holds: no value at beta reaches {target}, "
        f"and quantile mass {total} < {need}"
    )


def classify_k(
    profile: cv.BidderProfile,
    k: int,
    beta: float,
    gamma: float,
    delta: float,
    exante: ExAnteSolution,
) -> LemmaCase:
    """First of the three k-item cases that holds, with its witness.

    theta = gamma*opt/k is the value threshold throughout.  Case 1: the
    bidders that clear theta both at their ex ante quantile and at beta are
    at most k and their revenue at adjusted quantiles reaches delta*opt.
    Case 2: at least k bidders clear theta at beta.  Case 3: at least k+1
    of all n clear theta with probability >= 1/2, exactly.  k must pass
    errors.check_rank, and k = 1 raises HypothesisViolated.
    """
    check_rank("k", k)
    if k < 2:
        raise HypothesisViolated(f"classifier needs k >= 2, got {k}")
    _check_k_hyp(beta, gamma, delta)

    theta = gamma * exante.opt / k
    qbar = exante.quantiles
    big = [i for i in range(profile.n) if _val(profile.curves[i], qbar[i]) >= theta]
    vals_beta = [_val(c, beta) for c in profile.curves]
    high = [i for i in big if vals_beta[i] >= theta]

    # q_i' keeps the ex ante quantile when it already exceeds beta and
    # otherwise moves to the sale probability at theta, capped at beta.
    q_adj = {}
    for i in high:
        if qbar[i] > beta:
            q_adj[i] = qbar[i]
        else:
            q_adj[i] = min(beta, cv.quantile_of_value(profile.curves[i], theta))
    rev_high = math.fsum(cv.rev(profile.curves[i], q_adj[i]) for i in high)

    if len(high) <= k and rev_high >= delta * exante.opt - _SLACK:
        return LemmaCase(
            CASE1,
            {
                "indices": tuple(high),
                "adjusted_quantiles": dict(q_adj),
                "revenue": rev_high,
                "need": delta * exante.opt,
                "theta": theta,
            },
        )

    beta_hits = [i for i, v in enumerate(vals_beta) if v >= theta]
    if len(beta_hits) >= k:
        return LemmaCase(CASE2, {"indices": tuple(beta_hits), "theta": theta})

    pb = poisson_binomial([cv.quantile_of_value(c, theta) for c in profile.curves])
    tail = pb.tail_at_least(k + 1)
    if tail >= 0.5 - _SLACK:
        return LemmaCase(CASE3, {"probs": pb.probs, "tail": tail, "theta": theta})

    raise LemmaViolation(
        f"no case holds: |high|={len(high)} rev={rev_high:.6g}, "
        f"|beta_hits|={len(beta_hits)}, tail={tail:.6g}"
    )


def eta_single(alpha: float, beta: float) -> float:
    """Probability floor 1 - (1+beta+x)e^{-x} with x = (1-alpha)/alpha*(1-beta).

    Valid only for x >= 1, where the underlying tail estimate is monotone.
    """
    if not (0.0 < alpha < 1.0 and 0.0 <= beta < 1.0):
        raise DomainError("need alpha in (0,1), beta in [0,1)")
    x = (1.0 - alpha) / alpha * (1.0 - beta)
    if x < 1.0 - _SLACK:
        raise HypothesisViolated(f"(1-alpha)/alpha*(1-beta) = {x:.6f} < 1")
    return 1.0 - (1.0 + beta + x) * math.exp(-x)


def bound_single(alpha: float, beta: float) -> float:
    """Revenue guarantee for duplicating a best-at-beta bidder."""
    return alpha * min(beta, eta_single(alpha, beta))


def bound_single_noisy(alpha: float, beta: float, eps: float) -> float:
    """bound_single when the beta-revenue oracle has relative error eps."""
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0,1), got {eps}")
    return alpha * min((1.0 - eps) * beta, eta_single(alpha, beta))


def bound_sample(alpha: float, beta: float, gamma: float) -> float:
    """Revenue guarantee for duplicating the highest single sample."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0,1), got {gamma}")
    return alpha * min(beta * beta * (1.0 - gamma), beta * gamma, eta_single(alpha, beta))


def _check_k_hyp(beta: float, gamma: float, delta: float) -> None:
    if not (0.0 < beta < 1.0 and 0.0 < gamma < 1.0 and 0.0 < delta < 1.0):
        raise DomainError("beta, gamma, delta must lie in (0,1)")
    hyp = ((1.0 - gamma) * (1.0 - beta) - delta) / gamma
    if hyp < 1.5 - _SLACK:
        raise HypothesisViolated(f"((1-gamma)(1-beta)-delta)/gamma = {hyp:.6f} < 3/2")


def bound_k_free(beta: float, gamma: float, delta: float) -> float:
    """k-item guarantee when one bidder may be duplicated k times."""
    _check_k_hyp(beta, gamma, delta)
    return min(delta / 32.0, beta * gamma / 6.0, gamma / 2.0)


def bound_k_free_remark(beta: float, gamma: float, delta: float) -> float:
    """k-independent variant of bound_k_free (weaker middle term)."""
    _check_k_hyp(beta, gamma, delta)
    return min(delta / 32.0, beta * beta * gamma / 6.0, gamma / 2.0)


def bound_k_constrained(beta: float, gamma: float, delta: float) -> float:
    """k-item guarantee when each bidder may be duplicated at most once."""
    _check_k_hyp(beta, gamma, delta)
    return min(delta, beta * gamma, gamma / 2.0)


def bound_k_noisy(beta: float, gamma: float, delta: float, eps: float) -> float:
    """bound_k_constrained under an eps-noisy revenue oracle."""
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0,1), got {eps}")
    _check_k_hyp(beta, gamma, delta)
    f = (1.0 - eps) ** 3
    return min(delta, f * gamma * beta, gamma / 2.0)


def warmup_constant() -> float:
    """1 - 2e^{-3/4}, the i.i.d. warm-up ratio; just above 1/20."""
    return 1.0 - 2.0 * math.exp(-0.75)
