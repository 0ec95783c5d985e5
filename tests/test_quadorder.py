"""Tests for the quadratic-order machinery against brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catmap import CatMap, DEFAULT_MAP, factorize, order_mod, order_mod_brute, primes_up_to
from catmap import quadorder
from catmap.arith import (
    _legendre,
    _order_mod_prime_power,
    _pair_pow,
    _power_is_identity,
    is_probable_prime,
)
from catmap.errors import (
    BudgetExceeded,
    EtaOutOfRange,
    NotAMultiple,
    NotHyperbolic,
    NotPrime,
    NotQuantizable,
    NotUnimodular,
    ZeroVector,
)
from catmap.quadorder import (
    ClassSplit,
    CongruenceCount,
    PrimeClass,
    SplitType,
    _order_class,
    _prime_orders,
    classify_prime,
    congruence_count,
    lcm_defect,
    minus_one_exponent,
    norm_one_count,
    order_profile,
    small_order_modulus,
    split_by_class,
    splitting_character,
    trivial_solution_count,
)

A = DEFAULT_MAP


# --- oracles ---------------------------------------------------------------

def orbit_rows(m: CatMap, N: int, n: tuple[int, int]) -> list[tuple[int, int]]:
    r = order_mod(m, N)
    x, y = n
    out = []
    for _ in range(r):
        x, y = (x * m.a + y * m.c) % N, (x * m.b + y * m.d) % N
        out.append((x, y))
    return out


def brute_nu(m: CatMap, N: int, n: tuple[int, int]) -> int:
    """O(r^4) enumeration of the quartic congruence, the oracle."""
    rows = orbit_rows(m, N, n)
    wx = np.array([p[0] for p in rows], dtype=np.int64)
    wy = np.array([p[1] for p in rows], dtype=np.int64)
    X = (
        wx[:, None, None, None]
        - wx[None, :, None, None]
        + wx[None, None, :, None]
        - wx[None, None, None, :]
    ) % N
    Y = (
        wy[:, None, None, None]
        - wy[None, :, None, None]
        + wy[None, None, :, None]
        - wy[None, None, None, :]
    ) % N
    return int(np.count_nonzero((X == 0) & (Y == 0)))


def loop_minus_one_exponent(m: CatMap, N: int) -> int | None:
    """The first t in 1..r with A^t = -I mod N, found by stepping through the
    powers of A; the oracle for the closed form."""
    t_mod = m.trace % N
    u, v = 1 % N, 0
    for t in range(1, order_mod(m, N) + 1):
        u, v = (-v) % N, (u + t_mod * v) % N  # multiply by A
        # the four entries of u*I + v*A against those of -I
        if (
            (u + v * m.a + 1) % N == 0
            and v * m.b % N == 0
            and v * m.c % N == 0
            and (u + v * m.d + 1) % N == 0
        ):
            return t
    return None


def brute_trivial(m: CatMap, N: int) -> int:
    """Direct enumeration of the three index families."""
    r = order_mod(m, N)
    t = loop_minus_one_exponent(m, N)
    count = 0
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    fam12 = (i == j and k == l) or (i == l and j == k)
                    fam3 = t is not None and (i - t - k) % r == 0 and (j - t - l) % r == 0
                    if fam12 or fam3:
                        count += 1
    return count


def brute_norm_one(m: CatMap, M: int) -> int:
    t = m.trace
    return sum(
        1
        for x in range(M)
        for y in range(M)
        if (x * x + t * x * y + y * y) % M == 1 % M
    )


def is_square_mod(a: int, p: int) -> bool:
    return any((x * x - a) % p == 0 for x in range(p))


# --- splitting character ---------------------------------------------------

def test_chi_examples():
    assert splitting_character(A, 11) == 1
    assert splitting_character(A, 2) == 0
    assert splitting_character(A, 3) == 0
    assert splitting_character(A, 5) == -1


def test_chi_against_square_search():
    for p in primes_up_to(100).tolist():
        chi = splitting_character(A, p)
        if A.discriminant % p == 0:
            assert chi == 0
        else:
            assert chi == (1 if is_square_mod(A.trace**2 - 4, p) else -1)


def test_chi_rejects_composite():
    with pytest.raises(NotPrime):
        splitting_character(A, 10)


# --- norm-one counts -------------------------------------------------------

def test_norm_one_examples():
    assert norm_one_count(A, 1) == 1
    assert norm_one_count(A, 5) == 6
    assert norm_one_count(A, 25) == 30
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        norm_one_count(A, 0)


def test_norm_one_against_brute():
    for M in [1, 2, 3, 4, 6, 7, 8, 9, 12, 13, 31, 49]:
        assert norm_one_count(A, M) == brute_norm_one(A, M)


def test_norm_one_formula_prime_powers():
    for p in (5, 7, 11, 13):
        chi = splitting_character(A, p)
        for k in (1, 2):
            assert norm_one_count(A, p**k) == p ** (k - 1) * (p - chi)


def test_norm_one_multiplicative():
    rng = random.Random(42)
    done = 0
    while done < 20:
        a = rng.randrange(2, 50)
        b = rng.randrange(2, 50)
        if math.gcd(a, b) != 1:
            continue
        assert norm_one_count(A, a * b) == norm_one_count(A, a) * norm_one_count(A, b)
        done += 1


def test_norm_one_budget():
    with pytest.raises(BudgetExceeded):
        norm_one_count(A, 5000)


def test_order_at_most_norm_one_group():
    # the order of A mod N cannot exceed the size of the norm-one group
    for N in range(2, 400):
        count = 1
        for p, e in factorize(N):
            if A.discriminant % p == 0:
                count *= norm_one_count(A, p**e)
            else:
                count *= p ** (e - 1) * (p - splitting_character(A, p))
        assert order_mod(A, N) <= count


# --- lcm defect ------------------------------------------------------------

def test_lcm_defect_examples():
    assert lcm_defect([7]) == 1
    assert lcm_defect([6, 10]) == math.gcd(6, 10)
    assert lcm_defect([6, 10, 15]) == 30
    assert lcm_defect([]) == 1
    with pytest.raises(ValueError, match="entries must be >= 1"):
        lcm_defect([0])


@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=5),
    st.lists(st.integers(1, 6), min_size=5, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_lcm_defect_divisibility(ms, mults):
    # if m_j | n_j entrywise then the defect of M divides the defect of N
    ns = [m * mults[i] for i, m in enumerate(ms)]
    assert lcm_defect(ns) % lcm_defect(ms) == 0


def test_lcm_defect_thousand_random_divisor_pairs():
    rng = random.Random(99)
    for _ in range(1000):
        ms = [rng.randrange(1, 60) for _ in range(rng.randrange(1, 6))]
        ns = [m * rng.randrange(1, 8) for m in ms]
        assert lcm_defect(ns) % lcm_defect(ms) == 0


# --- order profiles --------------------------------------------------------

def test_profile_55():
    p = order_profile(A, 55)
    assert (p.d, p.s, p.d0, p.L, p.ord, p.lower_bound) == (55, 1, 55, 2, 30, 15)
    assert p.omega == 2
    assert order_profile(A, 1).in_s is False  # the small set starts at N = 2
    with pytest.raises(ValueError, match="N must be >= 1"):
        order_profile(A, 0)


def test_profile_360():
    p = order_profile(A, 360)
    assert (p.d, p.s, p.d0) == (10, 6, 5)


def test_profile_prime():
    for p in (7, 11, 13):
        prof = order_profile(A, p)
        assert prof.d0 == p
        assert prof.L == 1
        assert prof.lower_bound == order_mod(A, p)


def test_profile_invariants_small_range():
    for N in range(1, 600):
        p = order_profile(A, N)
        assert p.d * p.s * p.s == N
        dfac = factorize(p.d)
        assert all(e == 1 for _, e in dfac)
        assert math.gcd(p.d0, A.discriminant) == 1
        assert p.ord >= p.lower_bound
        prod = math.prod(q - splitting_character(A, q) for q in factorize(p.d0).primes())
        assert prod % p.L == 0


# --- prime classes ---------------------------------------------------------

def test_classify_examples():
    assert classify_prime(A, 2, 0.55) is PrimeClass.TERRIBLE
    assert classify_prime(A, 11, 0.55) is PrimeClass.GOOD
    assert classify_prime(A, 5, 0.55) is PrimeClass.GOOD


def test_classify_eta_range():
    with pytest.raises(EtaOutOfRange):
        classify_prime(A, 11, 0.5)
    with pytest.raises(EtaOutOfRange):
        classify_prime(A, 11, 0.6)


def test_classify_not_prime():
    with pytest.raises(NotPrime):
        classify_prime(A, 9, 0.55)


def test_a_large_prime_dividing_the_discriminant():
    # tr - 2 = 4 * 1000003, so A = I + (A - I) mod p with A - I nilpotent and
    # nonzero: ord(A, p) = p, which no walk over the powers of A should need
    m, p = CatMap(1, 2, 2000006, 4000013), 1_000_003
    assert (m.trace - 2) % p == 0 and m.b % p
    assert order_mod(m, p) == order_profile(m, p).ord == p
    assert splitting_character(m, p) == 0
    assert classify_prime(m, p, 0.55) is PrimeClass.TERRIBLE
    assert split_by_class(m, 2 * p, 0.55) == ClassSplit(1, 2 * p, 2 * p, 0.55)


# --- the smallest-prime-factor sieve ----------------------------------------

def smallest_factor_by_trial_division(k: int) -> int:
    """The least d >= 2 dividing k, or k itself for a prime, 0 and 1."""
    return next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 24, 25, 121, 10007, 10201, 20000])
def test_smallest_prime_factors_match_trial_division(n):
    # 25, 121 and 10201 = 101^2 end on a prime square, the one k that
    # q = sqrt(n) writes; 10007 ends on a prime.  The sieve writes the
    # largest q first, so the smallest prime of each k must end on top
    spf = quadorder._smallest_prime_factors(n)
    assert spf.dtype == np.int32
    assert spf[:2].tolist() == [0, 1][: n + 1]
    assert spf.tolist() == [smallest_factor_by_trial_division(k) for k in range(n + 1)]


# --- the batched prime-order kernel ----------------------------------------

KERNEL_MAPS = [A, CatMap(1, 2, 2, 5), CatMap(4, 1, -1, 0), CatMap(20001, 2, 10000, 1)]


def sieve_to(primes) -> np.ndarray:
    """The smallest-prime-factor sieve `_prime_orders` needs: up to
    max(primes) + 1."""
    return quadorder._smallest_prime_factors(int(np.max(primes, initial=2)) + 1)


def seeded(m: CatMap, primes) -> dict[int, tuple[int, int]]:
    """(chi(p), ord(A, p)) for each prime: the batched kernel's for the primes
    it takes, the scalar route's (`_legendre`, `_order_mod_prime_power`) for
    the rest."""
    primes = np.asarray(primes, dtype=np.int64)
    kept, chi, order = _prime_orders(m, primes, sieve_to(primes))
    got = dict(zip(kept.tolist(), zip(chi.tolist(), order.tolist())))
    for p in np.asarray(primes).tolist():
        if p not in got:
            got[p] = (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))
    return got


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=str)
def test_seeded_memo_matches_scalar_route(m):
    primes = primes_up_to(200_000)
    kept, chi, order = _prime_orders(m, primes, sieve_to(primes))
    assert kept.tolist() == [p for p in primes.tolist() if m.discriminant % p]
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        assert (c, o) == (_legendre(m.trace**2 - 4, p), _order_mod_prime_power(m, p, 1))
    got = seeded(m, primes)
    assert [got[p][1] for p in kept.tolist()] == order.tolist()
    assert [got[p][0] for p in kept.tolist()] == chi.tolist()


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=str)
def test_seeded_memo_matches_brute_orders(m):
    primes = primes_up_to(2000)
    got = seeded(m, primes)
    for p in primes.tolist():
        assert got[p][1] == order_mod_brute(m, p)


@pytest.mark.parametrize(
    "m, p, order, cls",
    [
        (A, 3691, 13, PrimeClass.BAD),
        (A, 191861, 19, PrimeClass.TERRIBLE),
        (CatMap(1, 2, 2, 5), 15607, 17, PrimeClass.BAD),
    ],
)
def test_seeded_small_orders_near_terrible_threshold(m, p, order, cls):
    # sqrt(p)/log(p) is 7.40, 36.0 and 12.9 here: the orders straddle it
    got = seeded(m, primes_up_to(200_000))
    assert got[p][1] == order
    assert _order_class(p, got[p][1], 0.55) is cls is classify_prime(m, p, 0.55)


# the primes where the kernel's exponent p is largest
PRIMES_BELOW_BOUND = [
    p
    for p in range(quadorder.INT64_PRIME_BOUND - 400, quadorder.INT64_PRIME_BOUND)
    if is_probable_prime(p)
]


def test_kernel_arithmetic_exact_just_below_int64_bound():
    # the largest residues the bound admits, where an unreduced product
    # overflows; the oracle is the trace 2u + t*v of A^k = u*I + v*A
    rng = random.Random(7)
    p = np.array(PRIMES_BELOW_BOUND * 8, dtype=np.int64)
    t = np.array([q - 1 - rng.randrange(3) for q in p.tolist()], dtype=np.int64)
    k = np.array([rng.randrange(1, 1 << 40) for _ in p.tolist()], dtype=np.int64)
    v, w = quadorder._lucas_ladder(t, k, p)
    for q, tq, kq, vq, wq in zip(*(z.tolist() for z in (p, t, k, v, w))):
        traces = [(2 * u + tq * c) % q for u, c in (_pair_pow(tq, j, q) for j in (kq, kq + 1))]
        assert [vq, wq] == traces


def test_lucas_steps_pass_the_pair_at_every_prefix_of_k():
    # each yielded pair, copied before the next step overwrites it, is
    # (V_j, V_(j+1)) with j = k >> s, from the top bit down to s = 0
    rng = random.Random(11)
    primes = PRIMES_BELOW_BOUND[:6] + [3, 5, 7, 101, 65537, 1000003]
    p = np.array(primes * 4, dtype=np.int64)
    t = np.array([rng.randrange(q) for q in p.tolist()], dtype=np.int64)
    k = np.array([rng.randrange(1 << rng.randrange(1, 41)) for _ in p.tolist()], dtype=np.int64)
    steps = [(s, v.copy(), w.copy()) for s, v, w in quadorder._lucas_steps(t, k, p)]
    assert [s for s, _, _ in steps] == list(range(int(k.max()).bit_length(), -1, -1))
    for s, v, w in steps:
        for q, tq, kq, vq, wq in zip(*(z.tolist() for z in (p, t, k, v, w))):
            j = kq >> s
            traces = [(2 * u + tq * c) % q for u, c in (_pair_pow(tq, i, q) for i in (j, j + 1))]
            assert [vq, wq] == traces


# quantizable maps are the words in S and T^(+-2), T = [[1, 1], [0, 1]]
_LETTERS = {"S": (0, 1, -1, 0), "T2": (1, 2, 0, 1), "T-2": (1, -2, 0, 1)}


def _times(M, letter):
    a, b, c, d = M
    x, y, z, w = _LETTERS[letter]
    return a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w


def _hyperbolic_words() -> list:
    """Every word of length 2..10 with |tr| > 2, shortest first, so that
    hypothesis shrinks towards short words; 43,428 of the 88,569 words."""
    words, level = [], [((), (1, 0, 0, 1))]
    for length in range(1, 11):
        level = [(w + (x,), _times(M, x)) for w, M in level for x in sorted(_LETTERS)]
        words += [w for w, (a, _, _, d) in level if length >= 2 and abs(a + d) > 2]
    return words


# drawn from the hyperbolic words themselves: an assume on the trace would
# reject most short words and trip hypothesis' filter_too_much health check
HYPERBOLIC_WORDS = st.deferred(lambda: st.sampled_from(_hyperbolic_words()))


def word_map(word) -> CatMap:
    return CatMap(*reduce(_times, word, (1, 0, 0, 1)))


@given(
    HYPERBOLIC_WORDS,
    st.lists(
        st.tuples(
            st.one_of(st.integers(1, 500), st.integers(1, (1 << 30) - 1)),
            st.integers(0, 1 << 40),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_lucas_ladder_sees_the_identity_exactly(word, draws):
    # (V_k, V_(k+1)) = (2, t) mod n iff A^k = I mod n, for odd n coprime to
    # t^2 - 4, composite or not; k is a multiple of ord(A, n) in half the
    # draws, so that both sides of the iff occur
    m = word_map(word)
    rows = []
    for h, k, mode in draws:
        n = 2 * h + 1
        if math.gcd(m.trace**2 - 4, n) != 1:
            continue
        rows.append((n, k % 64 * order_mod(m, n) if mode < 2 else k))
    assume(rows)
    n = np.array([row[0] for row in rows], dtype=np.int64)
    k = np.array([row[1] for row in rows], dtype=np.int64)
    t = np.remainder(m.trace, n)
    v, w = quadorder._lucas_ladder(t, k, n)
    for nq, kq, tq, vq, wq in zip(*(z.tolist() for z in (n, k, t, v, w))):
        assert ((vq, wq) == (2, tq)) == _power_is_identity(m, kq, nq)


class FactoredSpf:
    """Stands in for a smallest-prime-factor sieve up to 2^31, which would
    take 8 GiB: looks up each entry by `factorize`."""

    def __getitem__(self, n):
        return np.array([factorize(k).factors[0][0] for k in n.tolist()], dtype=np.int64)


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=str)
def test_kernel_chi_and_order_just_below_int64_bound(m):
    primes = np.array(PRIMES_BELOW_BOUND, dtype=np.int64)
    kept, chi, order = _prime_orders(m, primes, FactoredSpf())
    assert kept.tolist() == [p for p in PRIMES_BELOW_BOUND if m.discriminant % p]
    assert set(chi.tolist()) == {-1, 1}
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        assert (c, o) == (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))


# primes where p - 1 or p + 1 carries a large power of 2, so that the ladder
# to p - 1 decides the 2-part of the order at many of its prefixes: Fermat
# primes, k*2^m + 1 (786433 = 3*2^18 + 1 up to 2013265921 = 15*2^27 + 1) and
# Mersenne primes, up to 2^31 - 1
TWO_ADIC_PRIMES = [3, 5, 7, 17, 257, 8191, 65537, 131071, 524287, 786433, 7340033,
                   167772161, 469762049, 998244353, 2013265921, 2**31 - 1]


@pytest.mark.parametrize(
    "m", KERNEL_MAPS + [CatMap(0, 1, -1, 6), CatMap(0, 1, -1, 10)], ids=str
)
def test_kernel_two_part_where_p_plus_or_minus_one_is_rich_in_twos(m):
    primes = np.array(TWO_ADIC_PRIMES, dtype=np.int64)
    kept, chi, order = _prime_orders(m, primes, FactoredSpf())
    assert kept.tolist() == [p for p in TWO_ADIC_PRIMES if m.discriminant % p]
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        assert (c, o) == (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))


def test_kernel_two_part_of_both_kinds():
    # 2^31 - 1 is inert for A with ord = 2^31, so its (t, 2) test runs at
    # s = 1, ..., 31 without a hit; 786433 splits with ord = 3*2^16, two hits of
    # (2, t); for 1,2,2,5 (discriminant 2^7) chi(p) = (2/p), so all but 3
    # and 5 split
    primes = np.array(TWO_ADIC_PRIMES, dtype=np.int64)
    kept, chi, order = _prime_orders(A, primes, FactoredSpf())
    got = dict(zip(kept.tolist(), zip(chi.tolist(), order.tolist())))
    assert got[2**31 - 1] == (-1, 2**31)
    assert got[786433] == (1, 3 << 16)
    kept, chi, _ = _prime_orders(CatMap(1, 2, 2, 5), primes, FactoredSpf())
    assert kept.tolist() == TWO_ADIC_PRIMES
    assert chi.tolist() == [-1, -1] + [1] * (len(TWO_ADIC_PRIMES) - 2)


class RecordingSpf:
    """A smallest-prime-factor sieve that keeps every value looked up."""

    def __init__(self, spf: np.ndarray):
        self.spf, self.looked_up = spf, []

    def __getitem__(self, n):
        self.looked_up.extend(n.tolist())
        return self.spf[n]


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=str)
def test_kernel_strips_only_odd_primes(m):
    # the ladder to p - 1 gives the 2-part of the order, so the sieve is only
    # asked for the odd part of p - chi: no round for q = 2 runs
    primes = primes_up_to(200_000)
    spf = RecordingSpf(sieve_to(primes))
    _prime_orders(m, primes, spf)
    assert spf.looked_up and all(n % 2 for n in spf.looked_up)


# primes p <= 10^6 where two odd primes q of M = p - chi both hit at s = 2,
# q^2 | M/ord: the level's one ladder holds the entry twice, and both
# divisions must land (found by a search over the primes <= 10^6; 4,1,-1,0
# shares A's trace and its primes)
TWO_HITS_AT_ONE_LEVEL = [
    (A, [99901, 140453, 654029, 734849]),
    (CatMap(1, 2, 2, 5), [46349, 163351, 215983]),
    (CatMap(20001, 2, 10000, 1), [434249, 543601]),
    (CatMap(0, 1, -1, 6), [46349, 163351, 215983]),
]


@pytest.mark.parametrize("m, primes", TWO_HITS_AT_ONE_LEVEL, ids=str)
def test_kernel_divides_out_two_primes_that_hit_at_one_level(m, primes):
    kept, chi, order = _prime_orders(m, np.array(primes, dtype=np.int64), sieve_to(primes))
    assert kept.tolist() == primes
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        assert (c, o) == (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))
        odd = [q for q, _ in factorize(p - c).factors if q > 2]
        assert sum((p - c) // o % (q * q) == 0 for q in odd) >= 2


def test_kernel_ladder_launches_on_default_map(monkeypatch):
    # one ladder to p - 1; one s = 1 ladder per round, round r taking the
    # r-th odd prime of every M; then one ladder per level s = 2, 3, ...
    # shared by all rounds.  Over the primes <= 2e5, M has at most 5 odd
    # primes and the deepest test is at s = 5: 1 + 5 + 4 = 10 launches, where
    # a ladder per round and level took 13
    launches = []
    steps = quadorder._lucas_steps

    def counting(t, k, p):
        launches.append(k.size)
        return steps(t, k, p)

    monkeypatch.setattr(quadorder, "_lucas_steps", counting)
    primes = primes_up_to(200_000)
    kept, chi, order = _prime_orders(A, primes, sieve_to(primes))
    rounds = deepest = 0
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        odd = [(q, e) for q, e in factorize(p - c).factors if q > 2]
        rounds = max(rounds, len(odd))
        for q, e in odd:  # e - v_q(ord) hits, then a miss unless s reached e
            hits = e - next(s for s in range(e + 1) if o % q ** (s + 1))
            deepest = max(deepest, min(e, hits + 1))
    assert (rounds, deepest) == (5, 5)
    assert len(launches) == 1 + rounds + (deepest - 1) == 10


SMALL_PRIMES = primes_up_to(5000)


@given(HYPERBOLIC_WORDS)
@settings(max_examples=30, deadline=None)
def test_kernel_matches_scalar_route_on_random_maps(word):
    m = word_map(word)
    for primes, spf in [
        (SMALL_PRIMES, sieve_to(SMALL_PRIMES)),
        (np.array(PRIMES_BELOW_BOUND, dtype=np.int64), FactoredSpf()),
        (np.array(TWO_ADIC_PRIMES, dtype=np.int64), FactoredSpf()),
    ]:
        kept, chi, order = _prime_orders(m, primes, spf)
        assert kept.tolist() == [p for p in primes.tolist() if p > 2 and m.discriminant % p]
        for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
            assert (c, o) == (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=str)
@pytest.mark.parametrize("composite", [91, 341, 561, 1105, 399, 105])
def test_kernel_rejects_a_composite_among_primes(m, composite):
    # 341 = 11 * 31 is a base-2 Fermat pseudoprime; the Carmichael numbers
    # 561 = 3 * 11 * 17 and 1105 = 5 * 13 * 17 share a factor with t^2 - 4
    # at t = 4 and t = 20002.  So do 399 = 3 * 7 * 19 at t = 4 and 105 at
    # t = 20002, where (V_(n-1), V_n) or (V_(n+1), V_(n+2)) is (2, t) mod n
    # though A^n is neither A nor A^-1: only the gcd guard rejects them
    primes = [p for p in primes_up_to(400).tolist() if p != 2] + [composite]
    with pytest.raises(NotAMultiple):
        _prime_orders(m, np.array(sorted(primes), dtype=np.int64), sieve_to(primes))


def test_kernel_bound_falls_back_to_scalar_route(monkeypatch):
    primes = primes_up_to(5000)
    full = seeded(A, primes)
    monkeypatch.setattr(quadorder, "INT64_PRIME_BOUND", 1000)
    kept, _, _ = _prime_orders(A, primes, sieve_to(primes))
    assert kept.size and kept.max() < 1000
    cut = seeded(A, primes)
    for p in primes.tolist():
        assert cut[p] == full[p]


@pytest.mark.parametrize(
    "m",
    # trace 4 and -4 reduce in int64; trace 2^63 + 2 does not fit there
    [CatMap(2, 1, 3, 2), CatMap(-2, -1, -3, -2), CatMap(2**63, 1, 2**64 - 1, 2)],
    ids=str,
)
def test_kernel_trace_reduction_on_both_sides_of_the_int64_bound(m):
    primes = primes_up_to(20_000)
    kept, chi, order = _prime_orders(m, primes, sieve_to(primes))
    assert kept.tolist() == [p for p in primes.tolist() if p > 2 and m.discriminant % p]
    for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
        assert (c, o) == (_legendre(m.discriminant, p), _order_mod_prime_power(m, p, 1))


def test_kernel_empty_and_discriminant_primes():
    empty = np.empty(0, dtype=np.int64)
    assert all(a.size == 0 for a in _prime_orders(A, empty, sieve_to(empty)))
    assert seeded(A, empty) == {}
    ramified = [p for p in primes_up_to(100).tolist() if A.discriminant % p == 0]
    assert ramified == [2, 3]
    primes = np.array(ramified + [5, 7], dtype=np.int64)
    kept, _, _ = _prime_orders(A, primes, sieve_to(primes))
    assert kept.tolist() == [5, 7]
    got = seeded(A, ramified)
    for p in ramified:
        assert got[p] == (0, order_mod_brute(A, p))


def test_split_by_class_examples():
    assert split_by_class(A, 8, 0.55) == ClassSplit(1, 8, 8, 0.55)
    assert split_by_class(A, 55, 0.55) == ClassSplit(55, 1, 1, 0.55)
    assert split_by_class(A, 110, 0.55) == ClassSplit(55, 2, 2, 0.55)
    with pytest.raises(ValueError, match="N must be >= 1"):
        split_by_class(A, 0, 0.55)


def test_split_by_class_invariants():
    for N in range(1, 300):
        cs = split_by_class(A, N, 0.55)
        assert cs.N_G * cs.N_B == N
        assert cs.N_B % cs.N_T == 0


# --- small-order moduli ----------------------------------------------------

def test_small_order_k1_degenerate():
    so = small_order_modulus(A, 1)
    assert so.det_value == 2
    assert so.N_k == 1
    assert so.degenerate
    with pytest.raises(ValueError, match="k must be >= 1"):
        small_order_modulus(A, 0)


def test_small_order_k2():
    so = small_order_modulus(A, 2)
    assert so.det_value == 12
    assert so.N_k == 2
    assert all(e.split is SplitType.RAMIFIED for e in so.entries)
    assert order_mod(A, 2) == 2


def test_small_order_k3():
    so = small_order_modulus(A, 3)
    assert so.det_value == 50
    assert so.N_k == 5
    by_prime = {e.prime: e for e in so.entries}
    assert by_prime[2].split is SplitType.RAMIFIED
    assert by_prime[2].modulus_exponent == 0
    assert by_prime[5].split is SplitType.INERT
    assert by_prime[5].det_exponent == 2
    assert by_prime[5].modulus_exponent == 1
    assert order_mod(A, 5) == 3


def test_small_order_descent_where_two_divides_the_conductor():
    # D = 4*(6^2 - 4) = 2^7: the maximal order has discriminant 8, so 2 divides
    # the conductor and half the 2-adic exponent of det(A^k - I) overshoots
    m = CatMap(0, 1, -1, 6)
    pins = {2: (2, 5, 1), 4: (12, 7, 2), 8: (408, 9, 3)}
    for k in range(1, 9):
        so = small_order_modulus(m, k)
        assert so.shrunk, k
        two = next(e for e in so.entries if e.prime == 2)
        if k in pins:
            assert (so.N_k, two.det_exponent, two.modulus_exponent) == pins[k]
        assert k % order_mod_brute(m, so.N_k) == 0
        assert k % order_mod_brute(m, 2 * so.N_k) != 0


def test_small_order_invariants_range():
    for k in range(2, 16):
        so = small_order_modulus(A, k)
        # A^k = I mod N_k, so the order divides (hence is at most) k
        if so.N_k > 1:
            assert k % order_mod(A, so.N_k) == 0
        # N_k <= det <= N_k^2 * delta
        assert so.N_k <= so.det_value <= so.N_k**2 * so.ramified_product
        for e in so.entries:
            if e.split is not SplitType.RAMIFIED:
                assert e.det_exponent % 2 == 0


def test_unramified_primes_have_even_exponents_in_det_a_k_minus_i():
    # in Z[lambda], det(A^k - I) = -lambda^-k * (lambda^k - 1)^2, so a prime
    # not dividing D has an even exponent, which small_order_modulus halves
    maps = []
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        try:
            maps.append(CatMap(a, b, c, d))
        except (NotUnimodular, NotHyperbolic, NotQuantizable):
            pass
    assert len(maps) == 24
    factors = unramified = 0
    for m in maps:
        power = ((1, 0), (0, 1))
        for k in range(1, 21):
            (p00, p01), (p10, p11) = power
            power = (
                (p00 * m.a + p01 * m.c, p00 * m.b + p01 * m.d),
                (p10 * m.a + p11 * m.c, p10 * m.b + p11 * m.d),
            )
            det = (power[0][0] - 1) * (power[1][1] - 1) - power[0][1] * power[1][0]
            so = small_order_modulus(m, k)
            assert so.det_value == abs(det)
            assert [(e.prime, e.det_exponent) for e in so.entries] == list(factorize(abs(det)))
            for e in so.entries:
                factors += 1
                if _legendre(m.discriminant, e.prime):
                    unramified += 1
                    assert e.split is not SplitType.RAMIFIED
                    assert e.det_exponent % 2 == 0, (m, k, e)
    assert (factors, unramified) == (1484, 764)


# --- congruence counts -----------------------------------------------------

def test_nu_N5_exact():
    c = congruence_count(A, 5, (1, 0))
    assert c.r == 3
    assert c.minus_one_exponent is None
    assert c.count == 15  # brute force over all 81 tuples
    assert c.trivial_count == 15
    assert 2 * 9 - 3 <= c.count <= 27


def test_nu_N7_exact():
    c = congruence_count(A, 7, (1, 0))
    assert c.r == 8
    assert c.minus_one_exponent == 4
    assert c.count == 168  # brute force over all 4096 tuples
    assert c.trivial_count == 168


def test_nu_zero_vector():
    with pytest.raises(ZeroVector):
        congruence_count(A, 5, (5, 5))
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        congruence_count(A, 1, (1, 0))


def test_nu_matches_brute():
    for N, n in [(5, (1, 0)), (7, (1, 0)), (7, (2, 3)), (11, (1, 0)), (13, (0, 1)),
                 (9, (1, 1)), (10, (1, 0)), (14, (3, 1))]:
        c = congruence_count(A, N, n)
        assert c.count == brute_nu(A, N, n), (N, n)
        assert c.trivial_count <= c.count <= c.r**4
        assert c.count >= 2 * c.r**2 - c.r


def test_trivial_count_matches_family_enumeration():
    for N in (5, 7, 9, 10, 11, 13):
        assert trivial_solution_count(A, N, (1, 0)) == brute_trivial(A, N), N


def test_trivial_count_r1():
    # a map congruent to the identity mod 3 has order 1 there
    m = CatMap(10, 3, 33, 10)
    assert order_mod(m, 3) == 1
    assert trivial_solution_count(m, 3, (1, 0)) == 1
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        trivial_solution_count(m, 1, (1, 0))


def test_nu_prime_bound():
    # 2r^2 - r <= nu <= 3r^2 at primes not dividing D_A*det(M_n), n=(1,0)
    for p in primes_up_to(50).tolist():
        if A.discriminant % p == 0:
            continue
        c = congruence_count(A, p, (1, 0))
        assert 2 * c.r**2 - c.r <= c.count <= 3 * c.r**2, p


def test_nu_squarefree_composite_bound():
    # squarefree N coprime to D_A: nu <= 3^omega(N) * r^2
    for N in range(2, 200):
        fac = factorize(N)
        if any(e > 1 for _, e in fac) or math.gcd(N, A.discriminant) != 1:
            continue
        c = congruence_count(A, N, (1, 0))
        assert c.count <= 3 ** len(fac.factors) * c.r**2, N


POOL_MAPS = [CatMap(2, 1, 3, 2), CatMap(2, 3, 1, 2), CatMap(4, 1, -1, 0), CatMap(0, 1, -1, 4)]


def dict_loop_nu(m: CatMap, N: int, n: tuple[int, int]) -> int:
    """The dict loop the numpy count replaced, kept as its oracle: tabulate
    the multiset {n(A^i - A^j) mod N} and pair each value v with -v."""
    rows = quadorder._orbit(m, N, n, order_mod(m, N))
    table: dict[tuple[int, int], int] = {}
    for xi, yi in rows:
        for xj, yj in rows:
            key = ((xi - xj) % N, (yi - yj) % N)
            table[key] = table.get(key, 0) + 1
    return sum(c * table.get(((-x) % N, (-y) % N), 0) for (x, y), c in table.items())


@pytest.mark.parametrize("m", POOL_MAPS, ids=str)
def test_nu_matches_the_dict_loop_on_the_sweep_sizes(m):
    sizes = [*range(3, 65), *range(65, 102, 2)]
    for N in sizes:
        for n in ((1, 0), (0, 1), (2, 1)):
            assert congruence_count(m, N, n).count == dict_loop_nu(m, N, n), (N, n)


def test_nu_across_chunk_boundaries_and_with_python_int_keys(monkeypatch):
    cases = [(m, N, (1, 0)) for m in POOL_MAPS for N in (5, 7, 9, 10, 31, 64, 101)]
    want = [dict_loop_nu(*case) for case in cases]
    monkeypatch.setattr(quadorder, "_DIFFERENCE_CHUNK", 7)  # a chunk every row or two
    assert [congruence_count(*case).count for case in cases] == want
    monkeypatch.setattr(quadorder, "_INT64_KEY_MODULUS", 1)  # keys as Python ints
    assert [congruence_count(*case).count for case in cases] == want


def pairing_congruence_count(m: CatMap, N: int, n: tuple[int, int]) -> CongruenceCount:
    """The pairing counter, kept as the oracle for the key lookup:
    tabulate the multiset {n(A^i - A^j) mod N} in chunks of np.unique keys,
    merge the chunks, and pair each value v with -v; t from the power loop."""
    r = order_mod(m, N)
    orbit = np.array(quadorder._orbit(m, N, n, r), np.int64)
    xs, ys = orbit[:, 0], orbit[:, 1]
    rows = max(1, (1 << 20) // r)
    parts = []
    for lo in range(0, r, rows):
        dx = (xs[lo : lo + rows, None] - xs) % N
        dy = (ys[lo : lo + rows, None] - ys) % N
        parts.append(np.unique((dx * N + dy).ravel(), return_counts=True))
    keys, where = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.zeros(len(keys), np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    minus = (-(keys // N) % N) * N + (-(keys % N) % N)
    at = np.minimum(np.searchsorted(keys, minus), len(keys) - 1)
    paired = np.where(keys[at] == minus, counts[at], 0)
    t = loop_minus_one_exponent(m, N)
    return CongruenceCount(N, n, r, int(np.dot(counts, paired)), quadorder._trivial_count(r, t), t)


ORACLE_MAPS = [*POOL_MAPS, CatMap(1, 2, 2, 5)]


@pytest.mark.parametrize("lo", range(2, 401, 100))
@pytest.mark.parametrize("m", ORACLE_MAPS, ids=str)
def test_nu_matches_the_pairing_counter(m, lo):
    for N in range(lo, min(lo + 100, 401)):
        for n in ((1, 0), (0, 1), (2, 3)):
            assert congruence_count(m, N, n) == pairing_congruence_count(m, N, n), (N, n)


@pytest.mark.parametrize("N", [1999, 4096])
def test_nu_matches_the_pairing_counter_over_several_chunks(N):
    m = CatMap(2, 3, 1, 2)
    assert order_mod(m, N) ** 2 > quadorder._DIFFERENCE_CHUNK
    assert congruence_count(m, N, (2, 3)) == pairing_congruence_count(m, N, (2, 3))


def test_nu_memory_stays_below_the_difference_table():
    # holding all r^2 = 2^22 difference keys at once peaked at about 250 MiB
    tracemalloc.start()
    try:
        congruence_count(CatMap(2, 3, 1, 2), 4096, (2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


@pytest.mark.parametrize("m", [*ORACLE_MAPS, CatMap(10, 3, 33, 10)], ids=str)
def test_minus_one_exponent_matches_the_power_loop(m):
    for N in range(1, 401):
        assert minus_one_exponent(m, N) == loop_minus_one_exponent(m, N), N
