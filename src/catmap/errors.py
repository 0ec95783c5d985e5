"""Exception hierarchy for the catmap package.

catmap's own failures derive from :class:`CatmapError`, so callers can catch
one base class; a forked sweep worker that dies without sending its rows
raises a plain :class:`CatmapError`.  A bad argument raises the builtin :class:`ValueError` (a
record of the wrong type :class:`TypeError`, a record value beyond int64
:class:`OverflowError`), and I/O failures while storing or loading census
files raise the builtin :class:`OSError`.
"""

from __future__ import annotations


class CatmapError(Exception):
    """Base class for all catmap errors."""


# --- map validation -------------------------------------------------------

class NotUnimodular(CatmapError):
    """Matrix determinant is not 1."""


class NotHyperbolic(CatmapError):
    """Matrix trace has absolute value <= 2."""


class NotQuantizable(CatmapError):
    """Matrix fails the parity condition a*b, c*d both even."""


# --- integer arithmetic ---------------------------------------------------

class FactorizationTimeout(CatmapError):
    """Factorization work budget was exhausted before completion.

    The censuses never raise it: below their cutoff bound 2**31 they factor
    only numbers below 2**32, which trial division settles.  The small-order
    report never raises it either, since it takes N_k as a gcd; `order_mod`
    and `small_order_modulus` still can.
    """


class NotAMultiple(CatmapError):
    """Claimed multiple of a multiplicative order is not actually one."""


class NotPrime(CatmapError):
    """Argument required to be prime is composite (or < 2)."""


class EtaOutOfRange(CatmapError):
    """Classification exponent eta outside the open interval (1/2, 3/5)."""


class BudgetExceeded(CatmapError):
    """Requested exhaustive computation exceeds its configured size bound."""


class ZeroVector(CatmapError):
    """Integer vector is congruent to (0, 0) modulo N."""


# --- quantum engine -------------------------------------------------------

class ConstructionFailed(CatmapError):
    """`propagator` (intertwining defect, zero leading column), `spectrum`
    (Rayleigh quotient off the unit circle, off-diagonal entry of Z^H U Z,
    eigenvalue off every r*-th root, eigenvector residual, Gram) or
    `quantum_sweep` (fourth moment above its ceiling) check failed."""


class NotUnitary(CatmapError):
    """Operator expected to be unitary fails the unitarity check."""


class NoScalarPower(CatmapError):
    """No power of the propagator within the search bound is a scalar matrix."""


class NotNormalized(CatmapError):
    """State vector does not have norm 1 in the normalized inner product."""


# --- storage --------------------------------------------------------------

class SchemaMismatch(CatmapError):
    """Stored census file has an unknown version line or column layout."""
