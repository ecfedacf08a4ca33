"""Exception types shared across the package.

The split matters for callers: `HypothesisError` means the requested object
provably cannot be built from the given data (a mathematical refusal, not a
bug), `SearchExhausted` means a bounded search ended without a witness,
out of budget or with nothing in its space, so the question stays open, and
`VerificationError` means certificate data failed an explicit check.
"""

from __future__ import annotations

__all__ = [
    "WildSetsError",
    "HypothesisError",
    "SearchExhausted",
    "VerificationError",
]


class WildSetsError(Exception):
    """Base class for errors raised by this package."""


class HypothesisError(WildSetsError):
    """A precondition of a construction fails for the given input."""


class SearchExhausted(WildSetsError):
    """A bounded search ended without a witness: undecided, not refused."""


class VerificationError(WildSetsError):
    """Certificate data is inconsistent or fails an axiom check."""
