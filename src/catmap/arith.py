"""Exact integer arithmetic for hyperbolic torus maps.

Validation of the map matrix, modular matrix powers, multiplicative orders
mod N, and integer factorization (trial division + Brent's rho with
Miller-Rabin certification).  Everything here is exact: Python integers only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import (
    FactorizationTimeout,
    NotAMultiple,
    NotHyperbolic,
    NotQuantizable,
    NotUnimodular,
)

__all__ = [
    "CatMap",
    "DEFAULT_MAP",
    "Mat2Mod",
    "Factorization",
    "factorize",
    "is_probable_prime",
    "primes_up_to",
    "mat_pow_mod",
    "order_mod",
    "order_mod_brute",
    "order_dividing",
]

# Miller-Rabin with these fixed bases is a proof of primality below this bound
# (Sorenson & Webster).  Beyond it we fall back to 64 pseudo-random rounds and
# mark the result as uncertified.
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_DIVISION_LIMIT = 10**6
_DEFAULT_FACTOR_BUDGET = 50_000_000  # modular squarings allowed per factorize()


@dataclass(frozen=True)
class CatMap:
    """A hyperbolic, quantizable element of SL(2, Z).

    Entries are row-major: ((a, b), (c, d)).  Construction validates the three
    contracts: determinant 1, |trace| > 2, and the parity condition
    a*b = c*d = 0 mod 2 required for quantization on every Hilbert space
    dimension.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise NotUnimodular(f"determinant is {det}, expected 1")
        if abs(self.a + self.d) <= 2:
            raise NotHyperbolic(f"|trace| = {abs(self.a + self.d)} <= 2")
        if (self.a * self.b) % 2 != 0 or (self.c * self.d) % 2 != 0:
            raise NotQuantizable("parity condition a*b = c*d = 0 mod 2 fails")

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def discriminant(self) -> int:
        """D = 4*(trace^2 - 4), the discriminant attached to the map."""
        t = self.trace
        return 4 * (t * t - 4)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


DEFAULT_MAP = CatMap(2, 1, 3, 2)


@dataclass(frozen=True)
class Mat2Mod:
    """A 2x2 matrix with entries reduced modulo `modulus` (>= 1)."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    @classmethod
    def reduce(cls, m: CatMap | "Mat2Mod", modulus: int) -> "Mat2Mod":
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        return cls(m.a % modulus, m.b % modulus, m.c % modulus, m.d % modulus, modulus)

    def mul(self, other: "Mat2Mod") -> "Mat2Mod":
        if self.modulus != other.modulus:
            raise ValueError("moduli differ")
        n = self.modulus
        return Mat2Mod(
            (self.a * other.a + self.b * other.c) % n,
            (self.a * other.b + self.b * other.d) % n,
            (self.c * other.a + self.d * other.c) % n,
            (self.c * other.b + self.d * other.d) % n,
            n,
        )

    def is_identity(self) -> bool:
        n = self.modulus
        return (
            (self.a - 1) % n == 0
            and self.b % n == 0
            and self.c % n == 0
            and (self.d - 1) % n == 0
        )

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


# --------------------------------------------------------------------------
# primes and factorization
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sieve_list(limit: int) -> tuple[int, ...]:
    return tuple(primes_up_to(limit).tolist())


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x as an int64 array (sieve of Eratosthenes)."""
    if x < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(x + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic (a proof) for n below ~3.3e24; for larger n, 64 rounds with
    bases drawn from a generator seeded by n, so the answer is reproducible.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_PROOF_BOUND:
        bases: tuple[int, ...] | list[int] = _MR_BASES
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(64)]
    for base in bases:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e, factors sorted by p.

    `certified` is False when some prime factor was too large for the
    deterministic Miller-Rabin bound and only passed the probabilistic test.
    """

    factors: tuple[tuple[int, int], ...]
    certified: bool = True

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)


def _brent_rho(n: int, rng: random.Random, budget: list[int]) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= steps
                if budget[0] < 0:
                    raise FactorizationTimeout(f"factor budget exhausted on {n}")
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] < 0:
                    raise FactorizationTimeout(f"factor budget exhausted on {n}")
        if g != n:
            return g


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor n >= 1.  Raises FactorizationTimeout if Brent's rho spends
    more than `_DEFAULT_FACTOR_BUDGET` squarings.

    Examples
    --------
    >>> factorize(360).factors
    ((2, 3), (3, 2), (5, 1))
    """
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {n}")
    counts: dict[int, int] = {}
    certified = True
    rest = n
    # trial division to a power of two above sqrt(n), so few sieve sizes are cached
    limit = min(_TRIAL_DIVISION_LIMIT, 1 << math.isqrt(n).bit_length())
    for p in _sieve_list(limit):
        if p * p > rest:
            break
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    if rest > 1:
        if rest < limit**2:
            # below the square of the trial bound the cofactor must be prime
            counts[rest] = counts.get(rest, 0) + 1
        else:
            work = [_DEFAULT_FACTOR_BUDGET]
            stack = [rest]
            rng = random.Random(n)
            while stack:
                mcur = stack.pop()
                if is_probable_prime(mcur):
                    counts[mcur] = counts.get(mcur, 0) + 1
                    if mcur >= _MR_PROOF_BOUND:
                        certified = False
                    continue
                divisor = _brent_rho(mcur, rng, work)
                stack.append(divisor)
                stack.append(mcur // divisor)
    return Factorization(tuple(sorted(counts.items())), certified)


# --------------------------------------------------------------------------
# modular matrix powers and orders
# --------------------------------------------------------------------------

def _pair_pow(trace: int, k: int, modulus: int | None = None) -> tuple[int, int]:
    """Coefficients (u, v) with A^k = u*I + v*A mod `modulus`, or exactly if None.

    Works in Z[x]/(x^2 - trace*x + 1); valid because A satisfies its
    characteristic polynomial with determinant 1.
    """
    n = modulus
    t, ru, bv = (trace, 1, 1) if n is None else (trace % n, 1 % n, 1 % n)
    rv = bu = 0  # running result (ru, rv); running base A^(2^i) = (bu, bv)
    while k:
        if k & 1:
            ru, rv = ru * bu - rv * bv, ru * bv + rv * bu + t * rv * bv
            if n is not None:
                ru, rv = ru % n, rv % n
        bu, bv = bu * bu - bv * bv, 2 * bu * bv + t * bv * bv
        if n is not None:
            bu, bv = bu % n, bv % n
        k >>= 1
    return ru, rv


def _power_content(m: CatMap, k: int) -> int:
    """gcd of the entries of A^k - I: the largest N with A^k = I mod N."""
    u, v = _pair_pow(m.trace, k)
    return math.gcd(u - 1 + v * m.a, v * m.b, v * m.c, u - 1 + v * m.d)


def mat_pow_mod(m: CatMap, k: int, modulus: int) -> Mat2Mod:
    """A^k reduced mod `modulus`, as u*I + v*A from `_pair_pow`.  k = 0 gives I."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    u, v = _pair_pow(m.trace, k, modulus)
    n = modulus
    return Mat2Mod((u + v * m.a) % n, v * m.b % n, v * m.c % n, (u + v * m.d) % n, n)


def _power_is_identity(m: CatMap, k: int, modulus: int) -> bool:
    """True if A^k = I mod `modulus`, read off u*I + v*A."""
    u, v = _pair_pow(m.trace, k, modulus)
    return (
        (u - 1 + v * m.a) % modulus == 0
        and v * m.b % modulus == 0
        and v * m.c % modulus == 0
        and (u - 1 + v * m.d) % modulus == 0
    )


def order_mod_brute(m: CatMap, modulus: int) -> int:
    """Least k >= 1 with A^k = I mod `modulus`, by direct iteration."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    base = Mat2Mod.reduce(m, modulus)
    acc = base
    k = 1
    while not acc.is_identity():
        acc = acc.mul(base)
        k += 1
    return k


def order_dividing(m: CatMap, modulus: int, multiple: int) -> int:
    """Exact order of A mod `modulus`, given a known multiple of it.

    Strips prime factors from `multiple` while the power stays the identity.
    Raises NotAMultiple if A^multiple != I mod `modulus`.
    """
    if multiple < 1:
        raise ValueError(f"multiple must be >= 1, got {multiple}")
    if not _power_is_identity(m, multiple, modulus):
        raise NotAMultiple(f"A^{multiple} != I mod {modulus}")
    o = multiple
    for q, _ in factorize(multiple):
        while o % q == 0 and _power_is_identity(m, o // q, modulus):
            o //= q
    return o


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 at p = 2 for even a, so
    chi(p) = _legendre(m.discriminant, p) at every p (D = 4*(tr^2 - 4))."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _order_mod_prime_power(m: CatMap, p: int, e: int) -> int:
    chi = _legendre(m.discriminant, p)
    # chi = 0 where p | D: tr = +-2 mod p, A = +-(I + nilpotent) mod p, so A^(2p) = I
    o = order_dividing(m, p, p - chi if chi else 2 * p)
    # A^o = I + p^(j-1)*X mod p^j lifts o from p^(j-1), and for j >= 2
    # (I + p^(j-1)*X)^p = I mod p^j, p = 2 included: the order is o or p*o
    for j in range(2, e + 1):
        if not _power_is_identity(m, o, p**j):
            o *= p
    return o


def order_mod(m: CatMap, modulus: int) -> int:
    """Least k >= 1 with A^k = I mod `modulus` (fast path).

    Factors the modulus, computes the order at each prime power (reducing the
    divisibility bound p^(e-1)*(p - chi(p)) when p does not divide the
    discriminant, the bound 2p + lifting otherwise) and combines with lcm.
    Agrees with `order_mod_brute` everywhere.

    Examples
    --------
    >>> order_mod(DEFAULT_MAP, 55)
    30
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 1
    out = 1
    for p, e in factorize(modulus):
        out = math.lcm(out, _order_mod_prime_power(m, p, e))
    return out
