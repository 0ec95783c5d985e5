"""Tests for exact arithmetic: map validation, powers, orders, factorization."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmap import (
    CatMap,
    DEFAULT_MAP,
    Mat2Mod,
    factorize,
    is_probable_prime,
    mat_pow_mod,
    order_dividing,
    order_mod,
    order_mod_brute,
    primes_up_to,
)
from catmap import arith
from catmap.arith import _pair_pow
from catmap.errors import (
    FactorizationTimeout,
    NotAMultiple,
    NotHyperbolic,
    NotQuantizable,
    NotUnimodular,
)

A = DEFAULT_MAP


# --- oracles ---------------------------------------------------------------

def naive_pow(m: CatMap, k: int, modulus: int) -> tuple[int, int, int, int]:
    """Direct repeated multiplication, the oracle for mat_pow_mod."""
    r = (1 % modulus, 0, 0, 1 % modulus)
    for _ in range(k):
        r = (
            (r[0] * m.a + r[1] * m.c) % modulus,
            (r[0] * m.b + r[1] * m.d) % modulus,
            (r[2] * m.a + r[3] * m.c) % modulus,
            (r[2] * m.b + r[3] * m.d) % modulus,
        )
    return r


def naive_factor(n: int) -> list[tuple[int, int]]:
    """Trial division only, the oracle for factorize on small n."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# --- validation ------------------------------------------------------------

def test_default_map_valid():
    assert A.entries == (2, 1, 3, 2)
    assert A.trace == 4
    assert A.discriminant == 48


def test_second_example_map_valid():
    m = CatMap(2, 3, 1, 2)
    assert m.trace == 4


def test_not_unimodular():
    with pytest.raises(NotUnimodular):
        CatMap(1, 2, 3, 4)


def test_not_hyperbolic():
    with pytest.raises(NotHyperbolic):
        CatMap(1, 4, 0, 1)


def test_not_quantizable():
    with pytest.raises(NotQuantizable):
        CatMap(3, 1, 5, 2)


# --- matrix powers ---------------------------------------------------------

def test_cube_exact():
    assert mat_pow_mod(A, 3, 10**9).entries == (26, 15, 45, 26)


def test_fourth_power_mod7_is_minus_identity():
    assert mat_pow_mod(A, 4, 7).entries == (6, 0, 0, 6)


def test_pow_zero_is_identity():
    assert mat_pow_mod(A, 0, 12).is_identity()


def test_mod_one_collapses():
    assert mat_pow_mod(A, 17, 1).entries == (0, 0, 0, 0)
    assert mat_pow_mod(A, 17, 1).is_identity()


@given(st.integers(0, 300), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_pow_matches_naive(k, modulus):
    assert mat_pow_mod(A, k, modulus).entries == naive_pow(A, k, modulus)


@given(st.integers(0, 2**64), st.integers(0, 2**64), st.integers(2, 10**9))
@settings(max_examples=200, deadline=None)
def test_pow_additivity(i, j, modulus):
    lhs = mat_pow_mod(A, i, modulus).mul(mat_pow_mod(A, j, modulus))
    assert lhs.entries == mat_pow_mod(A, i + j, modulus).entries


@pytest.mark.parametrize(
    "m", [A, CatMap(2, 3, 1, 2), CatMap(4, 1, -1, 0), CatMap(0, 1, -1, 4)], ids=str
)
def test_pair_pow_exact_and_reduced(m):
    # A^k = u*I + v*A over the integers, and reduced mod n it is the modular pair
    power = (1, 0, 0, 1)
    for k in range(41):
        u, v = _pair_pow(m.trace, k)
        assert (u + v * m.a, v * m.b, v * m.c, u + v * m.d) == power
        for n in (1, 7, 360, 10**9 + 7):
            assert _pair_pow(m.trace, k, n) == (u % n, v % n)
        a, b, c, d = power
        power = (a * m.a + b * m.c, a * m.b + b * m.d, c * m.a + d * m.c, c * m.b + d * m.d)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        mat_pow_mod(A, -1, 5)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        mat_pow_mod(A, 3, 0)


def test_mat2mod_checks_its_moduli():
    assert Mat2Mod.reduce(A, 5).entries == (2, 1, 3, 2)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        Mat2Mod.reduce(A, 0)
    with pytest.raises(ValueError, match="moduli differ"):
        Mat2Mod.reduce(A, 5).mul(Mat2Mod.reduce(A, 7))


# --- factorization ---------------------------------------------------------

def test_factorize_one():
    assert factorize(1).factors == ()


def test_factorize_small_against_naive():
    for n in list(range(1, 2000)) + [2**20, 3 * 5 * 7 * 11 * 13, 104729]:
        assert list(factorize(n).factors) == naive_factor(n)


def test_factorize_product_restores():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        assert f.n == n
        assert f.certified
        for p, _ in f:
            assert is_probable_prime(p)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_two_big_primes_rho_path():
    # both factors exceed the trial-division limit
    p, q = 10_000_019, 10_000_079
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_a_prime_beyond_the_proof_bound_is_not_certified():
    # 2^89 - 1 is prime and above the deterministic Miller-Rabin bound, so it
    # passes the probabilistic test only
    p = 2**89 - 1
    f = factorize(p)
    assert f.factors == ((p, 1),)
    assert not f.certified


def test_factorize_at_the_trial_division_bounds():
    # trial division runs to a power of two above sqrt(n), capped at 10^6 from
    # n = 2^38 on; the last cases need Brent's rho beyond the cap
    cases = [
        65521 * 65537,
        65537**2,
        999983**2,
        1000003**2,
        2**40 - 1,
        2**40 + 1,
        2**40 + 15,  # prime
        1048583 * 1048589,
    ]
    for n in cases:
        f = factorize(n)
        assert list(f.factors) == naive_factor(n), n
        assert f.certified


def test_factorize_budget_timeout(monkeypatch):
    p = 2_147_483_647  # 2^31 - 1
    q = 2_147_483_629
    # the budget is not part of factorize's cache key: clear it on both sides
    factorize.cache_clear()
    monkeypatch.setattr(arith, "_DEFAULT_FACTOR_BUDGET", 8)
    try:
        with pytest.raises(FactorizationTimeout):
            factorize(p * q)
    finally:
        factorize.cache_clear()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_miller_rabin_spot_values():
    assert is_probable_prime(2)
    assert is_probable_prime(10**9 + 7)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_primes_up_to():
    ps = primes_up_to(50)
    assert ps.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert len(primes_up_to(10**5)) == 9592


# --- orders ----------------------------------------------------------------

def test_order_examples():
    assert order_mod(A, 1) == 1
    assert order_mod(A, 2) == 2
    assert order_mod(A, 3) == 6
    assert order_mod(A, 5) == 3
    assert order_mod(A, 7) == 8
    assert order_mod(A, 11) == 10
    assert order_mod(A, 55) == 30
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        order_mod(A, 0)


def test_order_brute_examples():
    assert order_mod_brute(A, 1) == 1
    assert order_mod_brute(A, 5) == 3
    assert order_mod_brute(A, 7) == 8
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        order_mod_brute(A, 0)


def test_order_matches_brute_small_range():
    for n in range(1, 300):
        assert order_mod(A, n) == order_mod_brute(A, n), n


def test_order_matches_brute_other_map():
    m = CatMap(2, 3, 1, 2)
    for n in range(1, 200):
        assert order_mod(m, n) == order_mod_brute(m, n), n


def test_order_prime_powers_lift():
    # orders at prime powers grow by factors of p once they start moving
    for p in (5, 7, 11, 13):
        o1 = order_mod(A, p)
        for e in (2, 3):
            oe = order_mod(A, p**e)
            assert oe % o1 == 0
            assert oe == order_mod_brute(A, p**e)


LIFT_MAPS = [
    CatMap(2, 1, 3, 2),
    CatMap(2, 3, 1, 2),
    CatMap(4, 1, -1, 0),
    CatMap(0, 1, -1, 4),
    CatMap(1, 2, 2, 5),
    CatMap(-3, -2, -4, -3),
    # 2, 3 and 5 divide the conductor of these
    *(CatMap(0, 1, -1, t) for t in (6, 10, 14, 18, 52)),
]


@pytest.mark.parametrize("m", LIFT_MAPS, ids=str)
def test_order_prime_power_lift_matches_brute(m):
    for p in primes_up_to(54).tolist():
        for e in range(2, 12):
            if p**e <= 3000:
                assert order_mod(m, p**e) == order_mod_brute(m, p**e), (p, e)


def test_order_lcm_composition():
    rng = random.Random(123)
    done = 0
    while done < 50:
        m = rng.randrange(2, 80)
        n = rng.randrange(2, 80)
        if math.gcd(m, n) != 1:
            continue
        assert order_mod(A, m * n) == math.lcm(order_mod(A, m), order_mod(A, n))
        done += 1


def test_order_dividing_reduces():
    assert order_dividing(A, 5, 6) == 3
    assert order_dividing(A, 7, 8) == 8
    assert order_dividing(A, 11, 10) == 10


def test_order_dividing_rejects_non_multiple():
    with pytest.raises(NotAMultiple):
        order_dividing(A, 5, 4)
    with pytest.raises(ValueError, match="multiple must be >= 1"):
        order_dividing(A, 5, 0)


def test_order_divides_p_minus_chi():
    # chi(5) = -1 (12 is not a square mod 5), chi(11) = +1 (12 = 1 mod 11)
    assert (5 - (-1)) % order_mod(A, 5) == 0
    assert (11 - 1) % order_mod(A, 11) == 0
