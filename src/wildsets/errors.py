"""Exception types shared across the package.

The command line maps `HypothesisError` and `VerificationError` to exit
3, a refusal, of one of three kinds (README, "Command line"):

- (a) a proof that the set is not wild: fewer than 2 rk G points, or a
  point where -1 is not a local square;
- (b) a sufficient hypothesis of the chosen route fails, such as the
  pairing condition or a 2-divisible class; the set may still be wild;
- (c) a certificate fails a check.

`HypothesisError` carries kinds (a) and (b), and the domain condition of
a small equivalence, the one check of kind (c) that every later check
depends on; only its message tells them apart.  `VerificationError`
carries the rest of kind (c), and identities the rank layer checks
against a second route.  `SearchExhausted` (exit 4) means a bounded
search ended without a witness, out of budget or with nothing in its
space, so the question stays open.
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
    """A precondition fails: a proof, a route's hypothesis or a domain."""


class SearchExhausted(WildSetsError):
    """A bounded search ended without a witness: undecided, not refused."""


class VerificationError(WildSetsError):
    """Certificate data, or a checked identity, fails an explicit check."""
