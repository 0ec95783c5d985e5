"""Arithmetic of the real quadratic order attached to a hyperbolic map.

Splitting character, norm-one counts on residue rings, order profiles built
from the squarefree decomposition, good/bad/terrible prime classification,
the small-order modulus sequence, and the quartic congruence counter that
controls fourth moments of matrix elements.  One prime at a time, chi(p) is
the Legendre symbol of the discriminant, ord(A, p^e) comes from
`arith._order_mod_prime_power` and the class of p from `_prime_data`; these
scalar functions serve profiles, characters and classes alike.  The censuses
take chi(p) and ord(A, p) for all their primes at once from a batched int64
kernel, `_prime_orders`: a Montgomery ladder on the Lucas sequence
V_k = tr(A^k) mod p, one square and one product per exponent bit, tests
A^k = I as (V_k, V_(k+1)) = (2, t), which is exact at odd p coprime to
t^2 - 4.  One ladder to p - 1 gives chi and, from the pairs it passes, the
2-part of the order; a smallest-prime-factor sieve factors the odd part of
M = p - chi, and each odd prime q of M is divided out of the order once
per s = 1, 2, ... with A^(M/q^s) = I; the s >= 2 tests of all odd primes
share one ladder per level.  The kernel is exact
for p < INT64_PRIME_BOUND = 2^31; larger primes, primes dividing the
discriminant and prime powers take the scalar route, its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import (
    CatMap,
    Factorization,
    _legendre,
    _order_mod_prime_power,
    _pair_pow,
    _power_is_identity,
    factorize,
    is_probable_prime,
    mat_pow_mod,
    order_mod,
    primes_up_to,
)
from .errors import (
    BudgetExceeded,
    EtaOutOfRange,
    NotAMultiple,
    NotPrime,
    ZeroVector,
)

__all__ = [
    "SplitType",
    "PrimeClass",
    "OrderProfile",
    "ClassSplit",
    "SmallOrderEntry",
    "SmallOrderFactorization",
    "CongruenceCount",
    "splitting_character",
    "norm_one_count",
    "lcm_defect",
    "order_profile",
    "classify_prime",
    "split_by_class",
    "small_order_modulus",
    "congruence_count",
    "trivial_solution_count",
    "minus_one_exponent",
]

ETA_LOW, ETA_HIGH = 0.5, 0.6

NORM_COUNT_LIMIT = 4096  # norm_one_count is O(M^2); refuse beyond this


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


_SPLIT_OF_CHI = {1: SplitType.SPLIT, -1: SplitType.INERT, 0: SplitType.RAMIFIED}


class PrimeClass(Enum):
    GOOD = "good"
    BAD = "bad"
    TERRIBLE = "terrible"


def _check_prime(p: int) -> None:
    if p < 2 or not is_probable_prime(p):
        raise NotPrime(f"{p} is not prime")


def _check_eta(eta: float) -> None:
    if not (ETA_LOW < eta < ETA_HIGH):
        raise EtaOutOfRange(f"eta must lie in ({ETA_LOW}, {ETA_HIGH}), got {eta}")


def splitting_character(m: CatMap, p: int) -> int:
    """chi(p): 0 if p divides the discriminant, else Legendre of tr^2 - 4."""
    _check_prime(p)
    return _legendre(m.discriminant, p)


def norm_one_count(m: CatMap, modulus: int) -> int:
    """Count pairs (x, y) mod M with x^2 + tr*x*y + y^2 = 1 mod M.

    This is the number of norm-one elements of the quadratic order reduced
    mod M, because det(x*I + y*A) equals that quadratic form.  Brute force,
    O(M^2); refused beyond NORM_COUNT_LIMIT.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus > NORM_COUNT_LIMIT:
        raise BudgetExceeded(f"norm_one_count is O(M^2); M={modulus} > limit={NORM_COUNT_LIMIT}")
    t = m.trace % modulus
    y = np.arange(modulus, dtype=np.int64)
    total = 0
    block = max(1, (1 << 22) // max(modulus, 1))
    for lo in range(0, modulus, block):
        x = np.arange(lo, min(lo + block, modulus), dtype=np.int64)[:, None]
        vals = (x * x + t * x * y[None, :] + y[None, :] ** 2) % modulus
        total += int(np.count_nonzero(vals == 1 % modulus))
    return total


def lcm_defect(ms: list[int] | tuple[int, ...]) -> int:
    """(prod of ms) / lcm(ms): how far a list of integers is from coprime.

    Equals 1 for a single entry and gcd(m1, m2) for a pair.
    """
    if not ms:
        return 1
    if any(v < 1 for v in ms):
        raise ValueError("entries must be >= 1")
    return math.prod(ms) // math.lcm(*ms)


@dataclass(frozen=True)
class OrderProfile:
    """Squarefree decomposition N = d*s^2 and the order lower bound data."""

    N: int
    d: int
    s: int
    d0: int
    L: int
    ord: int
    lower_bound: int
    omega: int

    @property
    def in_s(self) -> bool:
        """N lies in the small set: s <= log N and omega(N) <= 1.5 log log N."""
        if self.N < 2:
            return False
        log_n = math.log(self.N)
        return self.s <= log_n and self.omega <= 1.5 * math.log(log_n)


# The batched kernel below works on int64 arrays of residues mod p.  Its
# largest intermediate is one product of two residues, below p^2, so every
# p below this bound is exact ((2^31 - 1)^2 < 2^63).
INT64_PRIME_BOUND = 1 << 31


def _lucas_steps(t: np.ndarray, k: np.ndarray, p: np.ndarray):
    """Yield (s, V_j, V_(j+1)) mod p elementwise with j = k >> s, V_j = tr(A^j),
    for 0 <= t < p, p > 2: first (2, t) at s = the bit length of max(k), then
    the pair after each bit of k, from the top bit down to s = 0.

    A Montgomery ladder on V_0 = 2, V_1 = t: each bit of k maps (V_j, V_(j+1))
    to (V_2j, V_(2j+1)) or (V_(2j+1), V_(2j+2)) by V_2j = V_j^2 - 2 and
    V_(2j+1) = V_j*V_(j+1) - t, one square and one product.  The bit b picks
    by arithmetic, v + b*(w - v), which numpy runs several times faster than
    `np.where` on bits without a pattern.  The leading zero bits of a shorter
    k leave (2, t) fixed.
    """
    v, w = np.full_like(p, 2), t.copy()
    top = int(k.max(initial=0)).bit_length()
    yield top, v, w
    for bit in range(top - 1, -1, -1):
        b = k >> bit & 1
        square = v + b * (w - v)  # V_(j+b)
        square = (square * square - 2) % p  # V_(2j+2b)
        product = (v * w - t) % p  # V_(2j+1)
        swap = b * (product - square)
        v, w = square + swap, product - swap
        yield bit, v, w


def _lucas_ladder(
    t: np.ndarray, k: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(V_k, V_(k+1)) mod p elementwise: the last pair of `_lucas_steps`."""
    for _, v, w in _lucas_steps(t, k, p):
        pass
    return v, w


def _smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k], the smallest prime factor of k, for 2 <= k <= n (int32), with
    spf[0] = 0 and spf[1] = 1.

    Every k starts as its own factor, so primes need no pass of their own.
    Each prime q <= sqrt(n) then writes q to its multiples from q^2 on, in
    descending order of q, so the smallest prime of a composite k, which is
    at most sqrt(k), writes to k last.  No slice is read or masked: one
    strided store per prime.  int32 holds the result for n <= 2^31: the one
    start that wraps, k = 2^31, is even and ends as 2.
    """
    spf = np.arange(n + 1, dtype=np.int32)
    for q in primes_up_to(math.isqrt(n)).tolist()[::-1]:
        spf[q * q :: q] = q
    return spf


def _two_adic_levels(n: np.ndarray) -> dict[int, np.ndarray]:
    """{s: the indices i with 2^s | n[i]} for s = 2, 3, ... while any."""
    levels, at, s = {}, np.arange(n.size), 2
    while (at := at[n[at] & ((1 << s) - 1) == 0]).size:
        levels[s], s = at, s + 1
    return levels


def _chi_ladder(
    tp: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V_(p-1), V_p, hits) mod p: the ladder to p - 1, with the number of
    s >= 1 where 2^s | p - 1 and A^((p-1)/2^s) = I, or 2^s | p + 1 and
    A^((p+1)/2^s) = I, read off its pairs as `_prime_orders` sets out."""
    minus, plus = _two_adic_levels(p - 1), _two_adic_levels(p + 1)
    hits = np.zeros(p.size, np.int8)  # at most 31: one byte an entry
    for s, v, w in _lucas_steps(tp, p - 1, p):
        if s == 1:  # 2 divides both p - 1 and p + 1
            hits += (v == 2) & (w == tp) | (v == tp) & (w == 2)
        if (i := minus.get(s)) is not None:  # A^((p-1)/2^s) = I
            hits[i] += (v[i] == 2) & (w[i] == tp[i])
        if (i := plus.get(s)) is not None:  # A^((p+1)/2^s) = A^(j+1) = I
            hits[i] += (v[i] == tp[i]) & (w[i] == 2)
    return v, w, hits


def _prime_orders(
    m: CatMap, primes: np.ndarray, spf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kept primes, chi, ord(A, p)) for an int64 array of primes, batched.

    Keeps the odd primes below INT64_PRIME_BOUND that do not divide the
    discriminant and tests A^k = I on the Lucas sequence V_k = tr(A^k) mod p
    (`_lucas_ladder`).  The test is exact: for odd n with gcd(t^2 - 4, n) = 1,
    A^k = I mod n exactly when (V_k, V_(k+1)) = (2, t).  For, with
    A^k = U_k*A - U_(k-1)*I, V_k = t*U_k - 2U_(k-1) and
    (t^2 - 4)*U_k = 2V_(k+1) - t*V_k, the pair (2, t) gives U_k = 0, then
    U_(k-1) = -1, so A^k = I.  chi comes from one ladder to p - 1 and two
    recurrence steps V_(j+1) = t*V_j - V_(j-1) on: A^(p-1) = I where p
    splits, A^(p+1) = I where p is inert, and NotAMultiple for neither.  An
    entry sharing a factor with 2(t^2 - 4), where the test is not exact, is
    no prime and raises NotAMultiple too.

    M = p - chi is a multiple of the order, and for q^e || M,
    A^(M/q^s) = I exactly when v_q(ord) <= e - s; so the hits for
    s = 1, 2, ... number e - v_q(ord) (Cohen, Alg. 1.4.3).  For q = 2 the
    ladder to p - 1 has them on its way (`_chi_ladder`): after the bits
    above position s it holds the pair at j = (p - 1) >> s.  Where 2^s | p - 1,
    j = M/2^s at a split p, and the test is (2, t).  Where 2^s | p + 1,
    s >= 1, j = M/2^s - 1 at an inert p, and A^(j+1) = I exactly when the
    pair is (V_-1, V_0) = (t, 2): the pair fixes A^j, as (t^2 - 4)*U_j and
    2U_(j-1) follow from it and both factors are units, and A^-1 has that
    pair.  One count serves both kinds, for a hit of the wrong kind means
    A^2 = I, so t^2 = 4 mod p.  The order starts as M shifted right by the
    count.  The odd primes q of M are then divided out: round r tests s = 1
    for the r-th odd prime of every M in one ladder, and carries the hits
    with q | M/q on.  After the last round the tests at s = 2, 3, ... of all
    rounds share one ladder per level, each entry up to its first miss.  An
    entry can hit for two primes at one level, so those divisions go through
    `np.floor_divide.at`, which applies both where a buffered `//=` keeps
    one; divisions by distinct q commute, so the order is the same.  The
    odd part of M is factored by the smallest-prime-factor sieve `spf`,
    which must reach max(primes) + 1: the caller builds it, as it knows the
    range it needs.
    """
    t = m.trace
    p = primes[(primes > 2) & (primes < INT64_PRIME_BOUND)]
    # np.remainder has Python's sign convention, but needs t in int64: |t| < 2^63
    tp = (np.remainder(t, p) if abs(t) < 1 << 63
          else np.array([t % q for q in p.tolist()], dtype=np.int64))
    keep = (tp * tp - 4) % p != 0
    p, tp = p[keep], tp[keep]
    if (np.gcd(2 * ((tp * tp - 4) % p), p) != 1).any():
        raise NotAMultiple("an entry shares a factor with 2(t^2 - 4): not a prime")
    v, w, hits = _chi_ladder(tp, p)
    split = (v == 2) & (w == tp)
    v = (tp * w - v) % p  # V_(p+1)
    inert = (v == 2) & ((tp * v - w) % p == tp)  # V_(p+2) = t
    if not (split | inert).all():
        raise NotAMultiple("neither A^(p - 1) nor A^(p + 1) is I mod p at some prime")
    chi = np.where(split, 1, -1)
    multiple = p - chi
    order = multiple >> hits
    rest = multiple // (multiple & -multiple)  # the odd primes of M left to strip
    at = np.flatnonzero(rest > 1)
    carried = [np.empty((3, 0), np.int64)]  # (entry, M/q^s, q) to test at s + 1
    while at.size:  # A^(M/q) = I for the next odd prime q of each M
        q = spf[rest[at]].astype(np.int64)
        k = multiple[at] // q
        v, w = _lucas_ladder(tp[at], k, p[at])
        hit = (v == 2) & (w == tp[at])
        order[at[hit]] //= q[hit]
        more = hit & (k % q == 0)
        carried.append(np.stack([at[more], k[more], q[more]]))
        r = rest[at] // q
        j = np.flatnonzero(r % q == 0)
        while j.size:
            r[j] //= q[j]
            j = j[r[j] % q[j] == 0]
        rest[at] = r
        at = at[r > 1]
    i, k, q = np.concatenate(carried, axis=1)
    while i.size:  # A^(M/q^s) = I at s = 2, 3, ... up to the first miss
        k //= q
        v, w = _lucas_ladder(tp[i], k, p[i])
        hit = (v == 2) & (w == tp[i])
        np.floor_divide.at(order, i[hit], q[hit])  # an entry may recur in i
        more = hit & (k % q == 0)
        i, k, q = i[more], k[more], q[more]
    return p, chi, order


def _order_class(p: int, order: int, eta: float) -> PrimeClass:
    """The class of a prime p not dividing the discriminant, from its order:
    Terrible below sqrt(p)/log(p), else Good from p**eta on, else Bad.

    These float expressions are the rule; a vectorized classifier must agree
    with them exactly.
    """
    if order < math.sqrt(p) / math.log(p):
        return PrimeClass.TERRIBLE
    return PrimeClass.GOOD if order >= p**eta else PrimeClass.BAD


def _prime_data(m: CatMap, p: int, eta: float) -> tuple[int, int, PrimeClass]:
    """(chi(p), ord(A, p), class of p at eta) for one prime, by the scalar
    route: Terrible where p divides the discriminant, else `_order_class`.

    Nothing is validated here: p must be prime and eta in range.
    """
    chi = _legendre(m.discriminant, p)
    order = _order_mod_prime_power(m, p, 1)
    return chi, order, _order_class(p, order, eta) if chi else PrimeClass.TERRIBLE


def order_profile(m: CatMap, N: int, factors: Factorization | None = None) -> OrderProfile:
    """Profile of N: d, s, d0 = d/gcd(d, D), L(N), ord, and the lower bound.

    The lower bound prod_{p | d0} ord(A, p) / L(N) (rounded down) never
    exceeds ord(A, N).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    fac = factors if factors is not None else factorize(N)
    disc = m.discriminant
    d = s = d0 = order = d0_orders = 1
    d0_cofactors = []
    for p, e in fac.factors:
        ord_pe = _order_mod_prime_power(m, p, e)
        s *= p ** (e // 2)
        if e % 2:
            d *= p
            # d is squarefree, so p | d0 = d/gcd(d, D) iff p does not divide D
            if disc % p:
                d0 *= p
                d0_cofactors.append(p - _legendre(disc, p))
                d0_orders *= ord_pe if e == 1 else _order_mod_prime_power(m, p, 1)
        order = math.lcm(order, ord_pe)
    L = lcm_defect(d0_cofactors)
    return OrderProfile(N, d, s, d0, L, order, d0_orders // L, len(fac.factors))


def classify_prime(m: CatMap, p: int, eta: float) -> PrimeClass:
    """Good / Bad / Terrible, as a function of (p, ord(A, p)) alone.

    Good: p coprime to the discriminant and ord(A,p) >= p^eta.
    Terrible: p divides the discriminant, or ord(A,p) < sqrt(p)/log(p).
    Bad: everything else.  (Terrible primes are also Bad; they are reported
    as Terrible.)
    """
    _check_eta(eta)
    _check_prime(p)
    return _prime_data(m, p, eta)[2]


@dataclass(frozen=True)
class ClassSplit:
    """N = N_G * N_B with N_T | N_B collecting the terrible part."""

    N_G: int
    N_B: int
    N_T: int
    eta: float


def split_by_class(m: CatMap, N: int, eta: float) -> ClassSplit:
    """Split N into good and bad parts by classifying each prime factor."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_eta(eta)
    ng = nb = nt = 1
    for p, e in factorize(N).factors:
        cls = _prime_data(m, p, eta)[2]
        q = p**e
        if cls is PrimeClass.GOOD:
            ng *= q
        else:
            nb *= q
            if cls is PrimeClass.TERRIBLE:
                nt *= q
    return ClassSplit(N_G=ng, N_B=nb, N_T=nt, eta=eta)


@dataclass(frozen=True)
class SmallOrderEntry:
    prime: int
    det_exponent: int
    split: SplitType
    modulus_exponent: int


@dataclass(frozen=True)
class SmallOrderFactorization:
    """Factorization of |det(A^k - I)| and the modulus N_k extracted from it."""

    k: int
    det_value: int
    entries: tuple[SmallOrderEntry, ...]
    N_k: int
    shrunk: bool
    certified: bool

    @property
    def ramified_product(self) -> int:
        return math.prod(
            e.prime for e in self.entries if e.split is SplitType.RAMIFIED
        )

    @property
    def degenerate(self) -> bool:
        """True when no usable modulus was extracted (N_k = 1)."""
        return self.N_k == 1


def small_order_modulus(m: CatMap, k: int) -> SmallOrderFactorization:
    """Build the modulus N_k <= sqrt-ish of |det(A^k - I)| with A^k = I mod N_k.

    Split and inert primes contribute half their (always even) exponent in
    det(A^k - I); primes dividing the discriminant contribute the floor of
    half.  A final descent shrinks N_k if A^k = I fails at some prime power
    (the construction only guarantees divisibility in the maximal order).
    det(A^k - I) = 2 - tr(A^k) is never 0, since |tr(A^k)| > 2 for a
    hyperbolic A and k >= 1.  Raises FactorizationTimeout if factoring it
    runs out of budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u, v = _pair_pow(m.trace, k)
    det = 2 - (2 * u + m.trace * v)  # 2 - tr(A^k)
    fac = factorize(abs(det))
    entries = []
    n_k = 1
    shrunk = False
    for p, e in fac:
        split = _SPLIT_OF_CHI[_legendre(m.discriminant, p)]
        if split is not SplitType.RAMIFIED and e % 2:
            raise RuntimeError(
                f"odd exponent {e} at unramified prime {p} in det(A^{k} - I)"
            )
        contrib = e // 2
        # descent: drop the exponent until A^k = I mod p^contrib actually holds
        while contrib > 0 and not _power_is_identity(m, k, p**contrib):
            contrib -= 1
            shrunk = True
        entries.append(SmallOrderEntry(p, e, split, contrib))
        n_k *= p**contrib
    return SmallOrderFactorization(
        k=k,
        det_value=abs(det),
        entries=tuple(entries),
        N_k=n_k,
        shrunk=shrunk,
        certified=fac.certified,
    )


# --------------------------------------------------------------------------
# the quartic congruence counter
# --------------------------------------------------------------------------

def _reduced_vector(n: tuple[int, int], modulus: int) -> tuple[int, int]:
    v = (n[0] % modulus, n[1] % modulus)
    if v == (0, 0):
        raise ZeroVector(f"n = {n} is congruent to (0,0) mod {modulus}")
    return v


def minus_one_exponent(m: CatMap, modulus: int) -> int | None:
    """Smallest t >= 1 with A^t = -I mod `modulus`, or None."""
    return _minus_one_exponent(m, modulus, order_mod(m, modulus))


def _minus_one_exponent(m: CatMap, modulus: int, r: int) -> int | None:
    """The closed form, given r = ord(A, N).  For N <= 2, -I = I and t = r.
    Otherwise A^t = -I forces r | 2t and r not dividing t, so t is an odd
    multiple of r/2, and every such power equals A^(r/2)."""
    if modulus <= 2:
        return r
    n = modulus
    if r % 2 == 0 and mat_pow_mod(m, r // 2, n).entries == (n - 1, 0, 0, n - 1):
        return r // 2
    return None


@dataclass(frozen=True)
class CongruenceCount:
    """Solution count of n(A^i - A^j + A^k - A^l) = 0 mod N over [1,r]^4."""

    N: int
    n: tuple[int, int]
    r: int
    count: int
    trivial_count: int
    minus_one_exponent: int | None


def _orbit(m: CatMap, modulus: int, n: tuple[int, int], r: int) -> list[tuple[int, int]]:
    """Row vectors n*A^i mod `modulus` for i = 1..r."""
    x, y = n[0] % modulus, n[1] % modulus
    rows = []
    for _ in range(r):
        x, y = (x * m.a + y * m.c) % modulus, (x * m.b + y * m.d) % modulus
        rows.append((x, y))
    return rows


# keys x*N + y of the orbit differences stay below N**2 <= 2**63 - 1 up to this
# modulus; beyond it they are Python ints
_INT64_KEY_MODULUS = math.isqrt(1 << 63)
# keys per chunk of orbit rows i (at least one row a chunk): 8 MB of int64 each
_DIFFERENCE_CHUNK = 1 << 20


def congruence_count(m: CatMap, modulus: int, n: tuple[int, int]) -> CongruenceCount:
    """Count quadruples (i,j,k,l) with n(A^i - A^j + A^k - A^l) = 0 mod N.

    Since n(A^l - A^k) = n(A^e - I) A^k with e = l - k, shifting i and j by
    k gives nu = r * #{(i, j, e) : n(A^i - A^j) = n(A^e - I) mod N}.  So the
    r keys n(A^e - I) are tabulated, and the r^2 differences n(A^i - A^j)
    are sorted a chunk at a time and the keys looked up in each chunk:
    O(r^2 log r) time and O(r) memory beside one fixed-size chunk.  The count
    controls the fourth moment of matrix elements of the quantized
    translation by n.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    _reduced_vector(n, modulus)
    r = order_mod(m, modulus)
    dtype = np.int64 if modulus <= _INT64_KEY_MODULUS else object
    orbit = np.array(_orbit(m, modulus, n, r), dtype)
    xs, ys = orbit[:, 0], orbit[:, 1]
    # n*A^r = n, so the last orbit row turns n*A^e into n(A^e - I)
    keys, counts = np.unique((xs - xs[-1]) % modulus * modulus + (ys - ys[-1]) % modulus,
                             return_counts=True)
    rows = max(1, _DIFFERENCE_CHUNK // r)
    hits = 0
    for lo in range(0, r, rows):
        diff = ((xs[lo : lo + rows, None] - xs) % modulus * modulus
                + (ys[lo : lo + rows, None] - ys) % modulus).ravel()
        diff.sort()
        hits += int(counts @ (np.searchsorted(diff, keys, "right") - np.searchsorted(diff, keys)))
    t = _minus_one_exponent(m, modulus, r)
    return CongruenceCount(
        N=modulus,
        n=n,
        r=r,
        count=r * hits,
        trivial_count=_trivial_count(r, t),
        minus_one_exponent=t,
    )


def trivial_solution_count(m: CatMap, modulus: int, n: tuple[int, int]) -> int:
    """Size of the union of the three always-solving index families.

    The families, with indices mod r: (i,k) = (j,l); {i = l, j = k}; and,
    when some power t has A^t = -I mod N, the pairs (i,j) = (t+k, t+l)
    coming from (A^i, A^j) = (-A^k, -A^l).  Counted by inclusion-exclusion:
    2r^2 - r without t, and 3r^2 - 3r + [r | t]*r with it.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    _reduced_vector(n, modulus)
    r = order_mod(m, modulus)
    return _trivial_count(r, _minus_one_exponent(m, modulus, r))


def _trivial_count(r: int, t: int | None) -> int:
    if t is None:
        return 2 * r * r - r
    return 3 * r * r - 3 * r + (r if t % r == 0 else 0)
