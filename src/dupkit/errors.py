"""Exception types shared across the package.

Each class carries the exit code the command line returns for it: 2 for a
bad config or invocation, 1 where a checked bound or certified claim failed.
"""

import numpy as np


class DupkitError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class DomainError(DupkitError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConcavityViolation(DupkitError, ValueError):
    """A breakpoint sequence fails the non-increasing chord-slope test."""


class HypothesisViolated(DupkitError, ValueError):
    """Constants fall outside the region a bound formula is valid on."""


class LemmaViolation(DupkitError, RuntimeError):
    """No case of a structural lemma holds; signals a curve invariant bug."""

    exit_code = 1


class NonConvergence(DupkitError, RuntimeError):
    """An iterative routine exhausted its budget without closing the tolerance."""

    exit_code = 1


class UnboundedExpectation(DupkitError, ValueError):
    """Requested expectation is infinite (rank-1 statistic of an unbounded curve)."""

    exit_code = 1


class ProfileMismatch(DupkitError, ValueError):
    """Bid vector length (or similar pairing) disagrees with the profile."""


class DominanceViolation(DupkitError, ValueError):
    """A pointwise revenue-dominance precondition does not hold."""

    exit_code = 1


class ParseError(DupkitError, ValueError):
    """Config text is malformed; message names the offending field."""


class NonFiniteResult(DupkitError, ValueError):
    """A result bound for JSON output is not finite; message names its field."""


def is_rank(value) -> bool:
    """Whether value is a count (k, r, n, n_samples): an integer >= 1, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 1


def check_rank(name: str, value) -> None:
    """Refuse a count argument that is not is_rank, naming it."""
    if not is_rank(value):
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
