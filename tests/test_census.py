"""Census records, summaries, resumable storage, and the spectral sweep."""

import dataclasses
import functools
import json
import math
import os
import random
import re
import signal
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmap import arith, census, quadorder, quantum
from catmap.arith import (
    DEFAULT_MAP,
    CatMap,
    _legendre,
    _order_mod_prime_power,
    factorize,
    mat_pow_mod,
    order_mod,
    order_mod_brute,
    primes_up_to,
)
from catmap.census import (
    IntegerRecord,
    PrimeCensusSummary,
    PrimeRecord,
    SweepRecord,
    TailCount,
    c_eta,
    integer_census,
    load_results,
    prime_census,
    quantum_sweep,
    resume_point,
    small_order_report,
    store_results,
    summarize_integer_records,
    summarize_prime_records,
)
from catmap.cli import main as cli_main
from catmap.errors import CatmapError, ConstructionFailed, EtaOutOfRange, SchemaMismatch
from catmap.quadorder import (
    PrimeClass,
    _smallest_prime_factors,
    classify_prime,
    order_profile,
    split_by_class,
)
from catmap.quantum import Observable

A = DEFAULT_MAP
ETA = 0.55

# frozen reference values for the N = 5 sweep row (same canonical basis as
# the quantum tests)
VARIANCE_N5_COS = 0.32519377823691187
MAX_DEV_N5_PROBE = 0.37823420592164597
S4_N5 = 0.04730367248713313
BOUND_N5 = 25.0 / 27.0


# ---------------------------------------------------------------------------
# independent oracles for the census records

OTHER = CatMap(1, 2, 2, 5)


@functools.cache
def _brute_order(m, n):
    return order_mod_brute(m, n)


def _discriminant(m):
    return 4 * (m.trace**2 - 4)


def _trial_factor(n):
    """{p: e} by trial division."""
    fac = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def _chi_oracle(m, p):
    """chi(p): 0 if p | D, else whether tr^2 - 4 is a square mod p, by search."""
    if _discriminant(m) % p == 0:
        return 0
    t = m.trace**2 - 4
    return 1 if any((y * y - t) % p == 0 for y in range(p)) else -1


def _class_oracle(m, p, eta):
    """Terrible: p | D or ord(A, p) < sqrt(p)/log p; Good: ord(A, p) >= p^eta."""
    o = _brute_order(m, p)
    if _discriminant(m) % p == 0 or o < math.sqrt(p) / math.log(p):
        return PrimeClass.TERRIBLE
    return PrimeClass.GOOD if o >= p**eta else PrimeClass.BAD


# ---------------------------------------------------------------------------
# integer census


def test_integer_records_cover_range_in_order():
    recs = integer_census(A, 300, ETA)[0]
    assert [r.N for r in recs] == list(range(2, 301))


def test_integer_records_match_profile_oracle():
    # every field from the definitions, with brute-force orders and
    # characters; nothing here goes through the library's order engine
    for m in (A, OTHER):
        disc = _discriminant(m)
        recs = integer_census(m, 1000, ETA)[0]
        assert [r.N for r in recs] == list(range(2, 1001))
        for rec in recs:
            N = rec.N
            fac = _trial_factor(N)
            assert rec.order == _brute_order(m, N), (m, N)
            assert rec.d * rec.s**2 == N
            assert all(rec.d % (q * q) for q in range(2, math.isqrt(rec.d) + 1))
            assert rec.d0 == rec.d // math.gcd(rec.d, disc)
            d0_primes = [p for p in fac if rec.d0 % p == 0]
            cof = [p - _chi_oracle(m, p) for p in d0_primes]
            assert rec.L == math.prod(cof) // math.lcm(*cof)
            orders = math.prod(_brute_order(m, p) for p in d0_primes)
            assert rec.lower_bound == orders // rec.L <= rec.order
            parts = {cls: 1 for cls in PrimeClass}
            for p, e in fac.items():
                parts[_class_oracle(m, p, ETA)] *= p**e
            assert rec.good_part == parts[PrimeClass.GOOD]
            assert rec.terrible_part == parts[PrimeClass.TERRIBLE]
            assert rec.bad_part == parts[PrimeClass.BAD] * parts[PrimeClass.TERRIBLE]


def test_integer_record_internal_consistency():
    for rec in integer_census(A, 1000, ETA)[0]:
        assert rec.d * rec.s**2 == rec.N
        assert rec.d % rec.d0 == 0
        assert rec.good_part * rec.bad_part == rec.N
        assert rec.bad_part % rec.terrible_part == 0
        assert rec.lower_bound <= rec.order
        assert rec.order >= 1
        assert rec.order_over_sqrt == rec.order / math.sqrt(rec.N)


def test_in_s_flag_matches_definition():
    recs = integer_census(A, 300, ETA)[0]
    omega = {}
    for rec in recs:
        n, w = rec.N, 0
        for p in range(2, n + 1):
            if n % p == 0:
                w += 1
                while n % p == 0:
                    n //= p
        omega[rec.N] = w
    for rec in recs:
        expect = rec.s <= math.log(rec.N) and omega[rec.N] <= 1.5 * math.log(
            math.log(rec.N)
        )
        assert rec.in_s == expect


def test_integer_summary_decades():
    recs, summary = integer_census(A, 500, ETA)
    assert summary.unit_skipped
    assert summary.count == 499
    assert [d.bound for d in summary.decades] == [500, 50, 5]
    for dec in summary.decades:
        for frac in (
            dec.big_order,
            dec.large_square,
            dec.many_factors,
            dec.all_bad,
            dec.in_s,
        ):
            assert 0.0 <= frac <= 1.0
    # orders mod N are nontrivial for every N >= 2, and the census never
    # drops a modulus, so each decade count is bound - 1
    assert [d.count for d in summary.decades] == [499, 49, 4]
    total = sum(cnt for _, cnt in summary.l_distribution)
    assert total == 499
    assert summary.l_distribution[0][0] == 1


def test_integer_summary_growth_fractions_decrease_in_delta(monkeypatch):
    recs = integer_census(A, 2000, ETA)[0]
    monkeypatch.setattr(census, "DELTA_GRID", (0.05, 0.2, 0.4))
    summary = summarize_integer_records(recs, 2000, ETA)
    assert [d for d, _ in summary.growth_fractions] == [0.05, 0.2, 0.4]
    fracs = [f for _, f in summary.growth_fractions]
    assert fracs == sorted(fracs, reverse=True)


def _summary_oracle(records, x, eta, delta_grid=census.DELTA_GRID):
    """The record-by-record summary: 19 passes, omega by trial division."""
    recs = list(records)
    decades = []
    for bound in (x, x // 10, x // 100):
        if bound < 2:
            continue
        sub = [r for r in recs if r.N <= bound]
        total = len(sub)
        if total == 0:
            decades.append(census.DecadeFractions(bound, 0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        big = sum(1 for r in sub if r.order * r.order > r.N)
        square = sum(1 for r in sub if r.s > math.log(r.N))
        many = sum(
            1 for r in sub if len(_trial_factor(r.N)) >= 1.5 * math.log(math.log(r.N))
        )
        allbad = sum(1 for r in sub if r.good_part == 1)
        small = sum(1 for r in sub if r.in_s)
        decades.append(
            census.DecadeFractions(
                bound,
                total,
                big / total,
                square / total,
                many / total,
                allbad / total,
                small / total,
            )
        )
    l_counter = Counter(r.L for r in recs)
    growth = []
    for delta in delta_grid:
        hits = sum(
            1
            for r in recs
            if r.order >= math.sqrt(r.N) * math.exp(math.log(r.N) ** delta)
        )
        growth.append((float(delta), hits / len(recs) if recs else 0.0))
    return census.IntegerCensusSummary(
        x=x,
        eta=eta,
        count=len(recs),
        decades=tuple(decades),
        l_distribution=tuple(sorted(l_counter.items())),
        growth_fractions=tuple(growth),
        unit_skipped=True,
        failures=(),
    )


@functools.cache
def _census_records(m, x):
    return tuple(integer_census(m, x, ETA)[0])


@pytest.mark.parametrize("m", [A, OTHER], ids=["default", "other"])
@pytest.mark.parametrize("x", [2, 3, 150, 2000])
def test_integer_summary_matches_record_by_record_oracle(m, x, monkeypatch):
    recs = _census_records(m, x)
    for part in (recs, recs[len(recs) // 2 :]):
        # repr, not ==, so a numpy scalar in place of a float shows
        want = repr(_summary_oracle(part, x, ETA))
        assert repr(summarize_integer_records(part, x, ETA)) == want
        assert repr(summarize_integer_records(iter(part), x, ETA)) == want
    grid = (0.05, 0.2, 0.4)
    monkeypatch.setattr(census, "DELTA_GRID", grid)
    assert repr(summarize_integer_records(recs, x, ETA)) == repr(
        _summary_oracle(recs, x, ETA, grid)
    )


def test_integer_summary_of_no_records():
    for x in (2, 150):
        assert repr(summarize_integer_records([], x, ETA)) == repr(
            _summary_oracle([], x, ETA)
        )


def test_integer_summary_at_square_boundaries(monkeypatch):
    # N = k**2 - 1, k**2, k**2 + 1 with ord = k - 1, k, k + 1 (ord**2 on both
    # sides of N and equal to it) and 2**40 (beyond int32); k = 46340 puts N
    # just below 2**31, beyond x and so in no decade
    x = 10_001
    recs = []
    for k in (2, 3, 10, 31, 99, 100, 46_340):
        for N in (k * k - 1, k * k, k * k + 1):
            for order in (k - 1, k, k + 1, 1 << 40):
                good = 1 if order % 2 else N
                recs.append(
                    IntegerRecord(N, N, k % 4, N, order % 5 + 1, order, 1, good, 1, 1, k < 50)
                )
    assert max(r.N for r in recs) > x
    for grid in (census.DELTA_GRID, (0.0, 0.5, 1.0)):
        want = _summary_oracle(recs, x, ETA, grid)
        monkeypatch.setattr(census, "DELTA_GRID", grid)
        assert repr(summarize_integer_records(recs, x, ETA)) == repr(want)
    beyond = recs + [dataclasses.replace(recs[-1], N=1 << 31)]
    with pytest.raises(OverflowError, match="below 2\\*\\*31"):
        summarize_integer_records(beyond, x, ETA)


# three maps of different (t, g): (4, 1), (6, 2), (10, 1)
_MERGE_MAPS = (A, OTHER, CatMap(0, 1, -1, 10))


def _concatenated_summary(kind, parts, x, eta):
    """The summary of the parts joined into one table: how a resumed census
    was summarized before the counts of its parts were added, kept as the
    oracle."""
    summarize = summarize_prime_records if kind == "primes" else summarize_integer_records
    return summarize(np.concatenate(parts), x, eta)


@pytest.mark.parametrize("kind", ["primes", "integers"])
@pytest.mark.parametrize("m", _MERGE_MAPS, ids=str)
def test_counts_of_two_parts_add_to_the_whole_table_summary(m, kind):
    x, eta = 3000, 0.52
    if kind == "primes":
        table = census._prime_columns(m, x, eta)
        count, finish = functools.partial(census._prime_counts, x=x), census._prime_summary
    else:
        table = census._integer_columns(m, x, eta)
        omega = census._omega_sieve(x)  # one sieve for both parts, as the CLI counts them
        count = functools.partial(census._integer_counts, x=x, omega=omega)
        finish = census._integer_summary
    n = len(table)
    for k in (0, 1, random.Random(str(m)).randrange(2, n - 1), n - 1, n):
        parts = table[:k], table[k:]
        merged = dataclasses.asdict(finish(count(parts[0]) + count(parts[1]), x, eta))
        whole = dataclasses.asdict(_concatenated_summary(kind, parts, x, eta))
        assert merged == whole, k
        assert repr(merged) == repr(whole), k  # float for float


def test_integer_census_rejects_bad_eta(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"omega sieve built up to {limit}")

    monkeypatch.setattr(census, "_omega_sieve", no_sieve)  # eta fails before any work
    with pytest.raises(EtaOutOfRange):
        integer_census(A, 100, 0.7)


@pytest.mark.parametrize("m", [A, OTHER], ids=["default", "other"])
def test_integer_records_from_lo_are_the_tail_of_the_full_run(m):
    full = integer_census(m, 1000, ETA)[0]
    for lo in (2, 3, 31, 500, 999, 1000, 1001):
        tail = census._records(census._integer_columns(m, 1000, ETA, lo), "integers")
        assert tail == full[lo - 2 :], lo
    with pytest.raises(ValueError, match="x must be >= 2"):
        census._integer_columns(m, 1, ETA)


def test_integer_census_rejects_x_beyond_the_sieve_before_building_it(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieve built up to {n}")

    monkeypatch.setattr(census, "_smallest_prime_factors", no_sieve)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        census._integer_columns(A, 2**31, ETA)
    with pytest.raises(AssertionError):  # the largest x the int32 sieve takes
        census._integer_columns(A, 2**31 - 1, ETA)


def test_prime_census_rejects_x_beyond_the_sieve_before_building_it(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieve built up to {n}")

    monkeypatch.setattr(census, "_smallest_prime_factors", no_sieve)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        census._prime_columns(A, 2**31, ETA)
    with pytest.raises(AssertionError):  # the largest x the int32 sieve takes
        census._prime_columns(A, 2**31 - 1, ETA)


def _record_loop(m, x, eta, lo=2):
    """The per-N record loop the column engine replaced, kept as its oracle:
    each N's profile from `order_profile` (which factors N by trial
    division) and its class parts from `split_by_class`, both on the scalar
    route."""
    rows = []
    for N in range(max(lo, 2), x + 1):
        prof = order_profile(m, N)
        parts = split_by_class(m, N, eta)
        rows.append(
            (N, prof.d, prof.s, prof.d0, prof.L, prof.ord, prof.lower_bound)
            + (parts.N_G, parts.N_B, parts.N_T)
            + (prof.in_s,)
        )
    return rows


_FIELDS = [f.name for f in dataclasses.fields(IntegerRecord)]


# 2 and 3 divide the discriminant 4 (t^2 - 4) of each; 3^3 and 5^2 that of t = 52
@pytest.mark.parametrize(
    "m",
    [A, CatMap(0, 1, -1, 10), CatMap(0, -1, 1, -4), CatMap(0, 1, -1, 52), CatMap(2, 3, 1, 2)],
    ids=str,
)
@pytest.mark.parametrize("x, lo", [(60_000, 31_467), (3000, 2), (1024, 2)])
def test_census_power_orders_match_the_scalar_lift(m, x, lo):
    # one chain up the powers of each p <= sqrt(x) gives every ord(A, p^e)
    primes, *_, power_orders = census._census_primes(m, x, ETA, lo)
    small = [p for p in primes.tolist() if p * p <= x]
    assert len(power_orders) == len(small) > 0
    for p, orders in zip(small, power_orders):
        want = [1] + [arith._order_mod_prime_power(m, p, e) for e in range(1, len(orders))]
        assert orders == want, p
        assert p ** (len(orders) - 1) <= x < p ** len(orders), p


@pytest.mark.parametrize("m", [A, OTHER, CatMap(4, 1, -1, 0)], ids=["default", "other", "4,1,-1,0"])
@pytest.mark.parametrize(
    "x, lo",
    [
        (3000, 2),
        (3481, 2),  # 59**2
        (2401, 2),  # 7**4
        (1024, 2),  # 2**10
        (2401, 2401),  # lo = x
        (3000, 55),  # lo just past sqrt(x)
        (3000, 1213),  # a prime: mid-range, no small prime divides lo
    ],
)
def test_integer_columns_match_the_record_loop_field_by_field(m, x, lo):
    table = census._integer_columns(m, x, ETA, lo)
    want = _record_loop(m, x, ETA, lo)
    assert table.shape == (len(want), len(_FIELDS)) and table.dtype == np.int64
    for row, expect in zip(table.tolist(), want):
        for name, got, value in zip(_FIELDS, row, expect):
            assert got == value, (row[0], name, got, value)
    assert census._records(table, "integers") == [IntegerRecord(*r) for r in want]


@pytest.mark.parametrize("x", [2, 3, 7, 8, 44, 45, 1618, 1619, 60_000, 2**31 - 1])
def test_in_s_thresholds_are_the_least_moduli(x):
    n_s, n_w = census._in_s_thresholds(x)
    for thresholds, holds in (
        (n_s, lambda k, n: k <= math.log(n)),
        (n_w, lambda k, n: k <= 1.5 * math.log(math.log(n))),
    ):
        assert thresholds[-1] == x + 1  # the clipped last entry holds nowhere
        for k, n in enumerate(thresholds.tolist()):
            assert 2 <= n <= x + 1
            assert n == x + 1 or holds(k, n), (k, n)
            assert n == 2 or not holds(k, n - 1), (k, n)


def test_integer_census_builds_one_sieve(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return _smallest_prime_factors(n)

    omegas = []
    real_omega = census._omega_sieve

    def counting_omega(limit):
        omegas.append(limit)
        return real_omega(limit)

    monkeypatch.setattr(census, "_smallest_prime_factors", counting)
    monkeypatch.setattr(quadorder, "_smallest_prime_factors", counting)
    monkeypatch.setattr(census, "_omega_sieve", counting_omega)
    records = integer_census(A, 6000, ETA)[0]
    assert built == [6001]  # p - chi(p) <= x + 1
    assert omegas == [6000]  # one omega sieve serves the summary
    assert records == [IntegerRecord(*r) for r in _record_loop(A, 6000, ETA)]


def test_prime_census_builds_one_sieve(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return _smallest_prime_factors(n)

    def no_sieve(x):
        raise AssertionError(f"second sieve up to {x}")

    want = prime_census(A, 6000, ETA)[0]
    monkeypatch.setattr(census, "_smallest_prime_factors", counting)
    monkeypatch.setattr(quadorder, "_smallest_prime_factors", counting)
    monkeypatch.setattr(census, "primes_up_to", no_sieve)
    assert prime_census(A, 6000, ETA)[0] == want
    assert built == [6001]  # the primes and every p - chi(p) from one sieve


@pytest.mark.parametrize("x", [100, 6000, 200_000])
def test_sieved_primes_are_the_primes_up_to_x(x):
    # the primes are the k <= x that the sieve leaves as their own factor;
    # x + 1 itself, sieved for p - chi(p), is never read as a prime
    spf, primes = census._sieved_primes(x)
    assert spf.size == x + 2
    assert primes.tolist() == primes_up_to(x).tolist()


# Census tables depend on the map only through t = tr A and
# g = gcd(b, c, a - d): A^k = u_k I + v_k A with u_k, v_k polynomials in t,
# and A is scalar mod p exactly where p | g.
def _census_tables(m):
    return census._integer_columns(m, 3000, ETA), census._prime_columns(m, 5000, ETA)


def _trace_and_content(m):
    return m.trace, math.gcd(m.b, m.c, m.a - m.d)


def _times(x, y):
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


def _theta_conjugate(m, rng):
    """W A W^-1 for a drawn product W of S = [[0, -1], [1, 0]] and T^2k; the
    theta group keeps the parity condition, and conjugation keeps t and g."""
    w = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 4)):
        k = rng.choice([-2, -1, 1, 2])
        w = _times(w, rng.choice([(0, -1, 1, 0), (1, 2 * k, 0, 1)]))
    inverse = (w[3], -w[1], -w[2], w[0])
    return CatMap(*_times(_times(w, m.entries), inverse))


_BASE_MAPS = ["2,1,3,2", "0,1,-1,6", "1,2,2,5", "-3,-2,-4,-3", "7,12,4,7"]
_TRACE_GROUPS = {
    "pool-t4-g1": ["2,1,3,2", "2,3,1,2", "4,1,-1,0", "0,1,-1,4"],
    "t6-g1": ["0,1,-1,6", "6,1,-1,0"],
    "t6-g2": ["1,2,2,5", "3,2,4,3"],
    **{f"conjugates-of-{base}": [base] for base in _BASE_MAPS},
}


@pytest.mark.parametrize("group", sorted(_TRACE_GROUPS))
def test_census_tables_depend_only_on_trace_and_content(group):
    maps = [CatMap(*map(int, entries.split(","))) for entries in _TRACE_GROUPS[group]]
    if len(maps) == 1:  # the map and three conjugates other than it
        rng, conjugates = random.Random(group), set(maps)
        while len(conjugates) < 4:
            conjugates.add(_theta_conjugate(maps[0], rng))
        maps += sorted(conjugates - set(maps), key=lambda m: m.entries)
    assert len({_trace_and_content(m) for m in maps}) == 1
    integers, primes = _census_tables(maps[0])
    for m in maps[1:]:
        other_integers, other_primes = _census_tables(m)
        assert np.array_equal(other_integers, integers), m
        assert np.array_equal(other_primes, primes), m


def test_census_tables_of_equal_trace_differ_only_where_the_content_does():
    # 1,2,2,5 (g = 2) and 0,1,-1,6 (g = 1) share t = 6: A is scalar mod 2
    # for the first only, so the tables agree at every odd N and every p > 2
    (ints_g2, primes_g2), (ints_g1, primes_g1) = (
        _census_tables(CatMap(1, 2, 2, 5)), _census_tables(CatMap(0, 1, -1, 6))
    )
    odd = ints_g1[:, 0] % 2 == 1
    assert np.array_equal(ints_g2[odd], ints_g1[odd])
    assert not np.array_equal(ints_g2, ints_g1)
    assert np.array_equal(primes_g2[1:], primes_g1[1:])
    assert primes_g2[0, 0] == 2 and not np.array_equal(primes_g2[0], primes_g1[0])


# ---------------------------------------------------------------------------
# prime census


def _small_order_primes(m, k_max, lo, hi):
    """Primes in (lo, hi] dividing det(A^k - I) for some k <= k_max: their
    order is at most k_max, near the Terrible threshold sqrt(p)/log p."""
    found = set()
    a, b, c, d = m.a, m.b, m.c, m.d
    for _ in range(k_max):
        det = (a - 1) * (d - 1) - b * c
        found |= {p for p in factorize(abs(det)).primes() if lo < p <= hi}
        a, b = a * m.a + b * m.c, a * m.b + b * m.d
        c, d = c * m.a + d * m.c, c * m.b + d * m.d
    return sorted(found)


def test_prime_records_match_classifier_oracle():
    primes = [p for p in range(2, 2001) if _trial_factor(p) == {p: 1}]
    for m in (A, OTHER):
        recs = prime_census(m, 2000, ETA)[0]
        assert [r.p for r in recs] == primes
        for p in _small_order_primes(m, 20, 2000, 200_000):
            recs.extend(census._records(census._prime_columns(m, p, ETA, p), "primes"))
        for rec in recs:
            assert rec.order == _brute_order(m, rec.p), (m, rec.p)
            assert rec.chi == _chi_oracle(m, rec.p)
            assert rec.prime_class == _class_oracle(m, rec.p, ETA)
            assert rec.exceeds == (rec.order > max(2000, rec.p) ** ETA)


# the batched kernel's maps, and one with a negative trace
TABLE_MAPS = [A, OTHER, CatMap(4, 1, -1, 0), CatMap(20001, 2, 10000, 1), CatMap(-2, -1, -3, -2)]


@functools.cache
def _scalar_primes(m, x):
    """(p, chi(p), ord(A, p)) for every prime up to x, by the scalar route."""
    disc = m.discriminant
    return [
        (p, 0 if disc % p == 0 else _legendre(m.trace**2 - 4, p), _order_mod_prime_power(m, p, 1))
        for p in primes_up_to(x).tolist()
    ]


# every class by the scalar route, once per prime and eta
_scalar_class = functools.cache(classify_prime)


def _prime_summary_oracle(records, x, eta):
    """The record-by-record summary the column summary replaced."""
    classes = Counter(r.prime_class for r in records)
    exceed = sum(1 for r in records if r.exceeds)
    tails = tuple(
        TailCount(y, sum(1 for r in records if r.order <= y), y * y)
        for y in (float(x) ** expo for expo in (0.2, 0.3, 0.4))
    )
    total = len(records)
    return PrimeCensusSummary(
        x, eta, total, exceed, exceed / total if total else 0.0, c_eta(eta),
        classes[PrimeClass.GOOD], classes[PrimeClass.BAD], classes[PrimeClass.TERRIBLE],
        tails, (),
    )


@pytest.mark.parametrize("eta", [0.501, 0.55, 0.599])
@pytest.mark.parametrize("lo", [2, 10_007])  # 10,007: the least prime above x/2
@pytest.mark.parametrize("m", TABLE_MAPS, ids=str)
def test_prime_table_matches_the_scalar_route(m, lo, eta):
    x = 20_000
    table = census._prime_columns(m, x, eta, lo)
    assert table.dtype == np.int64
    want = [
        [p, chi, o, census._CLASSES.index(_scalar_class(m, p, eta)), int(o > float(x) ** eta)]
        for p, chi, o in _scalar_primes(m, x)
        if p >= lo
    ]
    assert table.tolist() == want
    if lo == 2:  # p = 2 and the primes dividing D, off the batched kernel, are rows too
        ramified = [p for p in primes_up_to(x).tolist() if m.discriminant % p == 0]
        assert [row[0] for row in want if row[1] == 0] == ramified and ramified[0] == 2
    records = census._records(census._prime_columns(m, x, eta, lo), "primes")
    assert records == [
        PrimeRecord(p, chi, o, census._CLASSES[k], bool(e)) for p, chi, o, k, e in want
    ]
    summary = _prime_summary_oracle(records, x, eta)
    assert summarize_prime_records(table, x, eta) == summary
    assert summarize_prime_records(records, x, eta) == summary


@pytest.mark.parametrize(
    "m, p, order, cls",
    [
        (A, 3691, 13, PrimeClass.BAD),
        (A, 191861, 19, PrimeClass.TERRIBLE),
        (OTHER, 15607, 17, PrimeClass.BAD),
    ],
)
def test_prime_table_small_orders_near_terrible_threshold(m, p, order, cls):
    # sqrt(p)/log(p) is 7.40, 36.0 and 12.9 here: the orders straddle it
    table = census._prime_columns(m, 200_000, 0.55)
    (row,) = table[table[:, 0] == p].tolist()
    assert row[2] == order
    assert census._CLASSES[row[3]] is cls is classify_prime(m, p, 0.55)


def test_prime_table_decides_near_ties_by_the_float_rule():
    # eta with p**eta within an ulp or two of ord(A, p), so that a vectorized
    # power may round either way and the float rule has to decide
    table = census._prime_columns(A, 20_000, 0.55)
    ties = 0
    for p, _, o, _, _ in table.tolist():
        eta = math.log(o) / math.log(p)
        if p < 100 or not 0.5 < eta < 0.6:
            continue
        for e in (math.nextafter(eta, 0), eta, math.nextafter(eta, 1)):
            row = census._prime_columns(A, p, e, lo=p)[0].tolist()
            assert census._CLASSES[row[3]] is classify_prime(A, p, e), (p, e)
        ties += 1
        if ties == 20:
            break
    assert ties == 20


@pytest.mark.parametrize("m", TABLE_MAPS, ids=str)
def test_prime_census_resumed_mid_row_gives_the_uninterrupted_bytes(m, tmp_path, capsys):
    out = tmp_path / "primes.csv"
    matrix = f"--matrix={m.a},{m.b},{m.c},{m.d}"  # "=": a matrix may start with "-"
    argv = ["census-primes", "-x", "20000", matrix, "--out", str(out)]
    assert cli_main(argv) == 0
    whole = json.loads(capsys.readouterr().out)
    full = out.read_bytes()
    head = full[: full.index(b"\n", len(full) // 2) - 3]  # cut mid-row near half
    out.write_bytes(head)
    assert cli_main(argv + ["--resume"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert out.read_bytes() == full
    assert resumed["summary"] == whole["summary"]


def test_prime_census_summary():
    recs, summary = prime_census(A, 1000, ETA)
    assert summary.prime_count == 168
    assert summary.exceed_count == sum(1 for r in recs if r.exceeds)
    assert summary.fraction == summary.exceed_count / 168
    assert summary.good_count + summary.bad_count + summary.terrible_count == 168
    assert summary.failures == ()
    assert math.isclose(summary.c_eta, 0.25 / 0.9)
    ys = [t.y for t in summary.tails]
    assert ys == sorted(ys)
    counts = [t.count for t in summary.tails]
    assert counts == sorted(counts)
    for tail in summary.tails:
        assert tail.y_squared == tail.y * tail.y


def test_prime_small_order_tail_is_quadratic():
    # the count of primes with tiny order grows like y^2, so at most
    # y^2 = 100 primes below 1e4 have order <= 10
    recs = prime_census(A, 10_000, ETA)[0]
    tiny = [r.p for r in recs if r.order <= 10]
    assert len(tiny) <= 100
    assert len(tiny) >= 1  # e.g. ramified primes have small order


def test_prime_census_rejects_small_x():
    with pytest.raises(ValueError):
        prime_census(A, 80, ETA)


def test_c_eta_values():
    assert math.isclose(c_eta(0.55), 0.2777777777777778, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(c_eta(0.52), 0.41666666666666663, rel_tol=0, abs_tol=1e-15)
    for bad in (0.5, 0.6, 0.3):
        with pytest.raises(EtaOutOfRange) as info:
            c_eta(bad)
        assert str(info.value) == f"eta must lie in (0.5, 0.6), got {bad}"


# ---------------------------------------------------------------------------
# small-order report


def test_small_order_rows():
    rows, failures = small_order_report(A, 14)
    assert failures == []
    by_k = {row.k: row for row in rows}
    assert by_k[2].modulus == 2 and by_k[2].order == 2
    assert by_k[3].modulus == 5 and by_k[3].order == 3
    for row in rows:
        assert row.order <= row.k
        assert row.modulus > 1
        assert row.order_over_log == row.order / math.log(row.modulus)
        assert row.certified
        power = mat_pow_mod(A, row.k, row.modulus)
        assert power.is_identity()


@pytest.mark.parametrize(
    "m", [A, CatMap(4, 1, -1, 0), CatMap(0, 1, -1, 6), CatMap(-3, -2, -4, -3)], ids=str
)
def test_small_order_rows_take_the_least_order(m):
    # A^k = I mod N_k, so the report reads ord(A, N_k) off the divisors of k
    rows, failures = small_order_report(m, 40)
    assert failures == [] and rows
    for row in rows:
        assert row.order == order_mod(m, row.modulus), row.k


def test_small_order_rows_where_two_divides_the_conductor():
    rows, failures = small_order_report(CatMap(0, 1, -1, 6), 4)
    assert failures == []
    assert [(row.k, row.modulus, row.order) for row in rows] == [(2, 2, 2), (3, 7, 3), (4, 12, 4)]


def test_small_order_report_skips_degenerate_moduli(monkeypatch):
    # N_k > 1 at every k >= 2 the report visits, so N_3 = 1 is forced here
    real = census.small_order_modulus

    def with_degenerate_k3(m, k):
        so = real(m, k)
        return dataclasses.replace(so, N_k=1) if k == 3 else so

    monkeypatch.setattr(census, "small_order_modulus", with_degenerate_k3)
    rows, failures = small_order_report(A, 6)
    assert failures == []
    assert [row.k for row in rows] == [2, 4, 5, 6]


def test_small_order_report_lists_factorization_timeouts(monkeypatch):
    # the budget is not part of factorize's cache key: clear it on both sides
    arith.factorize.cache_clear()
    monkeypatch.setattr(arith, "_DEFAULT_FACTOR_BUDGET", 1)
    try:
        rows, failures = small_order_report(A, 45)
    finally:
        arith.factorize.cache_clear()
    assert failures == [29, 35, 37, 39, 41, 45]
    assert not {row.k for row in rows} & set(failures)
    assert {row.k for row in rows} | set(failures) == set(range(2, 46))


def test_small_order_ratio_stays_moderate():
    rows, _ = small_order_report(A, 20)
    assert all(row.order_over_log < 3.0 for row in rows)


# ---------------------------------------------------------------------------
# quantum sweep


def test_sweep_pinned_row_n5():
    recs, fails = quantum_sweep(A, [5], Observable.cosine(1), (1, 0))
    assert fails == []
    (row,) = recs
    assert row.N == 5 and (row.n1, row.n2) == (1, 0)
    assert row.rstar == 3 and row.ms == 0
    assert abs(row.s4 - S4_N5) < 1e-12
    assert abs(row.bound - BOUND_N5) < 1e-12
    assert abs(row.variance - VARIANCE_N5_COS) < 1e-12
    assert abs(row.max_dev - MAX_DEV_N5_PROBE) < 1e-12
    assert abs(row.ratio - row.s4 / row.bound) < 1e-15


def test_sweep_invariants_across_primes(monkeypatch):
    sizes = [3, 5, 7, 11, 13, 17, 19]
    recs, fails = quantum_sweep(A, sizes, Observable.cosine(1), (1, 0))
    assert fails == []
    assert [r.N for r in recs] == sizes
    for row in recs:
        assert row.ratio <= 1 + 1e-6
        assert row.max_dev**4 <= row.bound * (1 + 1e-6)
        assert row.max_dev**4 <= row.s4 * (1 + 1e-9)
        assert row.rstar >= 1
    # the ceiling is checked again per record: a moment above it aborts the sweep
    real = quantum.fourth_moment

    def above_the_ceiling(*args, **kwargs):
        moment = real(*args, **kwargs)
        return dataclasses.replace(moment, s4=2 * moment.bound)

    monkeypatch.setattr(quantum, "fourth_moment", above_the_ceiling)
    with pytest.raises(ConstructionFailed, match="ceiling violated at N=5"):
        quantum_sweep(A, [5], Observable.cosine(1), (1, 0))


def test_sweep_collects_failures_and_continues():
    # (7, 0) vanishes mod 7 but not mod 5; 350 is past the dense limit
    recs, fails = quantum_sweep(A, [7, 5, 350], Observable.cosine(1), (7, 0))
    assert [r.N for r in recs] == [5]
    assert sorted(n for n, _ in fails) == [7, 350]
    reasons = dict(fails)
    assert reasons[7].startswith("ZeroVector")
    assert "dense limit" in reasons[350]


def test_sweep_zero_frequency_is_per_size_failure():
    recs, fails = quantum_sweep(A, [5, 7], Observable.cosine(1), (0, 0))
    assert recs == []
    assert [n for n, _ in fails] == [5, 7]


def test_sweep_constant_observable_has_zero_variance():
    recs, _ = quantum_sweep(A, [5], Observable.constant(2.0), (1, 0))
    assert recs[0].variance <= 1e-25  # exact zero up to rounding in <psi,psi>


def test_sweep_is_deterministic():
    first, _ = quantum_sweep(A, [5, 8, 11], Observable.cosine(1), (1, 0))
    second, _ = quantum_sweep(A, [5, 8, 11], Observable.cosine(1), (1, 0))
    assert first == second


def _cpus(monkeypatch, count):
    """Make the sweep see `count` usable CPUs, so it runs `count` shares; the
    pins to those made-up CPUs are recorded, not passed on to the system."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(list(cpus)))
    return pins


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("m", [A, CatMap(1, 2, 2, 5), CatMap(0, 1, -1, 6)], ids=str)
def test_split_sweep_equals_one_size_sweeps(m, monkeypatch):
    # three shares of 13, 13 and 12 sizes; N = 40 is past the dense limit and
    # n = (5, 0) vanishes mod 5, so both kinds of failure row are merged too
    sizes, f, n = range(3, 41), Observable.cosine(1), (5, 0)
    pins = _cpus(monkeypatch, 3)
    split = quantum_sweep(m, sizes, f, n, dense_limit=39)
    _assert_no_child_left()
    assert pins == [[0], [0, 1, 2]]  # this process on CPU 0 for its share, then unpinned
    ones = [quantum_sweep(m, [N], f, n, dense_limit=39) for N in sizes]
    records = [r for recs, _ in ones for r in recs]
    failures = [fail for _, fails in ones for fail in fails]
    assert [N for N, _ in failures] == [5, 40]
    assert repr(split) == repr((records, failures))  # bit for bit: repr round-trips a float


@pytest.mark.parametrize("broken, named", [((7, 11), 7), ((11, 13), 11)])
def test_split_sweep_raises_the_earliest_ceiling_violation(broken, named, monkeypatch):
    # two shares: [5, 11] in this process, [7, 13] in the child
    real = quantum.fourth_moment

    def above_the_ceiling(m, N, n, **kwargs):
        moment = real(m, N, n, **kwargs)
        return dataclasses.replace(moment, s4=2 * moment.bound) if N in broken else moment

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(quantum, "fourth_moment", above_the_ceiling)
    with pytest.raises(ConstructionFailed, match=f"ceiling violated at N={named}:"):
        quantum_sweep(A, [5, 7, 11, 13], Observable.cosine(1), (1, 0))
    _assert_no_child_left()


def test_a_killed_sweep_worker_is_a_catmap_error(monkeypatch):
    caller, real = os.getpid(), quantum.propagator_spectrum

    def killed_in_the_child(m, N):
        if N == 6 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(m, N)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(quantum, "propagator_spectrum", killed_in_the_child)
    with pytest.raises(CatmapError) as info:
        quantum_sweep(A, [3, 4, 5, 6, 7, 8], Observable.cosine(1), (1, 0))
    assert type(info.value) is CatmapError
    assert str(info.value) == "sweep worker for N in [4, 6, 8] ended without its rows (wait status 9)"
    _assert_no_child_left()


def test_an_unpicklable_worker_error_arrives_as_a_catmap_error(monkeypatch):
    class LocalError(Exception):  # defined in a function, so pickle cannot find it
        pass

    real = quantum.variance_stat

    def failing_at_7(m, N, f, **kwargs):
        if N == 7:
            raise LocalError("no way back")
        return real(m, N, f, **kwargs)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(quantum, "variance_stat", failing_at_7)
    with pytest.raises(CatmapError, match="^LocalError: no way back$"):
        quantum_sweep(A, [5, 7], Observable.cosine(1), (1, 0))
    _assert_no_child_left()


def test_an_interrupted_sweep_kills_and_reaps_its_children(monkeypatch):
    caller, real = os.getpid(), quantum.propagator_spectrum

    def interrupted(m, N):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # the child would outlive the caller's share
        return real(m, N)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(quantum, "propagator_spectrum", interrupted)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        quantum_sweep(A, [5, 7], Observable.cosine(1), (1, 0))
    assert time.perf_counter() - began < 30
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# storage


def _int_records(x=200):
    return integer_census(A, x, ETA)[0]


def test_csv_round_trip_integers(tmp_path):
    recs = _int_records()
    path = tmp_path / "ints.csv"
    wrote = store_results(recs, path, config={"matrix": "2,1,3,2", "x": 200})
    assert wrote == len(recs)
    loaded = load_results(path)
    assert loaded.kind == "integers"
    assert loaded.records == tuple(recs)
    assert len(loaded) == len(recs)
    assert loaded.config == {"matrix": "2,1,3,2", "x": "200"}


def test_csv_round_trip_primes(tmp_path):
    recs = prime_census(A, 500, ETA)[0]
    path = tmp_path / "primes.csv"
    store_results(recs, path, config={"eta": ETA})
    loaded = load_results(path)
    assert loaded.kind == "primes"
    assert loaded.records == tuple(recs)


def test_csv_round_trip_sweep_floats_exact(tmp_path):
    recs, _ = quantum_sweep(A, [5, 8, 11], Observable.cosine(1), (1, 0))
    path = tmp_path / "sweep.csv"
    store_results(recs, path)
    loaded = load_results(path)
    assert loaded.kind == "sweep"
    assert loaded.records == tuple(recs)  # bit-exact floats through .17g
    assert resume_point(path) == 11


def test_json_round_trip(tmp_path):
    recs = _int_records()
    path = tmp_path / "ints.json"
    store_results(recs, path, config={"x": 200})
    loaded = load_results(path)
    assert loaded.kind == "integers"
    assert loaded.config == {"x": "200"}
    assert loaded.records == tuple(recs)
    assert resume_point(path) == 200
    sweep, _ = quantum_sweep(A, [5], Observable.cosine(1), (1, 0))
    spath = tmp_path / "sweep.json"
    store_results(sweep, spath)
    assert load_results(spath).records == tuple(sweep)
    assert resume_point(spath) == 5


def test_round_trip_ten_thousand_records(tmp_path):
    recs = integer_census(A, 10_001, ETA)[0]
    assert len(recs) == 10_000
    path = tmp_path / "big.csv"
    store_results(recs, path, config={"x": 10_001})
    assert load_results(path).records == tuple(recs)
    assert resume_point(path) == 10_001


def test_header_and_layout(tmp_path):
    recs = _int_records(120)
    path = tmp_path / "ints.csv"
    store_results(recs, path, config={"x": 120, "matrix": "2,1,3,2"})
    lines = path.read_text().splitlines()
    assert lines[0] == "#catmap-census v1; kind=integers; matrix=2,1,3,2; x=120"
    assert lines[1] == "N,d,s,d0,L,ord,lower_bound,NG,NB,NT,in_S"
    assert lines[2].startswith("2,")
    assert len(lines) == 2 + len(recs)


def test_each_kind_stores_its_columns_in_the_cell_types_of_its_record_fields():
    # the layouts stated a second time, literally: the code states them once
    want = {
        "primes": [
            ("p", int), ("chi", int), ("ord", int), ("class", PrimeClass), ("exceeds", bool),
        ],
        "integers": [
            ("N", int), ("d", int), ("s", int), ("d0", int), ("L", int), ("ord", int),
            ("lower_bound", int), ("NG", int), ("NB", int), ("NT", int), ("in_S", bool),
        ],
        "sweep": [
            ("N", int), ("n1", int), ("n2", int), ("S4", float), ("bound", float),
            ("ratio", float), ("variance", float), ("max_dev", float), ("rstar", int),
            ("ms", int),
        ],
    }
    assert {
        kind: list(zip(layout.columns, layout.types)) for kind, layout in census._LAYOUTS.items()
    } == want


def test_a_layout_with_a_column_short_of_its_record_fields_raises():
    with pytest.raises(TypeError, match="PrimeRecord has 5 fields, not 4"):
        census._Layout(PrimeRecord, "p,chi,ord,class")
    with pytest.raises(TypeError, match="SweepRecord has 10 fields, not 11"):
        census._Layout(SweepRecord, "N,n1,n2,S4,bound,ratio,variance,max_dev,rstar,ms,extra")
    layout = census._Layout(PrimeRecord, "p,chi,ord,class,exceeds")
    assert layout.columns == census._LAYOUTS["primes"].columns


def test_summary_count_names_are_the_fields_of_the_summary_classes():
    assert census._STATS == ("big_order", "large_square", "many_factors", "all_bad", "in_s")
    assert census._PRIME_COUNTS == (
        "prime_count", "exceed_count", "good_count", "bad_count", "terrible_count"
    )
    decade = {f.name for f in dataclasses.fields(census.DecadeFractions)}
    prime = {f.name for f in dataclasses.fields(census.PrimeCensusSummary)}
    assert set(census._STATS) == decade - {"bound", "count"}
    assert set(census._PRIME_COUNTS) <= prime
    assert census._CLASSES == (PrimeClass.GOOD, PrimeClass.BAD, PrimeClass.TERRIBLE)
    # the class counts follow the class codes
    counts = census._prime_counts(np.array([[2, 0, 1, 2, 0], [5, 1, 4, 0, 1]]), 200)
    assert [counts[name] for name in census._PRIME_COUNTS] == [2, 1, 1, 0, 1]


# Literal records of each kind and the exact bytes they are stored as: a
# Terrible, a Bad and a Good prime; an in_S modulus with L = 2 next to one
# with a terrible part; a sweep row whose floats need 17 significant digits
# in CSV (and the shortest repr in JSON), down to the smallest subnormal.
_GOLDEN = {
    "primes": (
        [
            PrimeRecord(3, 0, 6, PrimeClass.TERRIBLE, False),
            PrimeRecord(19, -1, 5, PrimeClass.BAD, False),
            PrimeRecord(199, -1, 200, PrimeClass.GOOD, True),
        ],
        "p,chi,ord,class,exceeds\n"
        "3,0,6,terrible,0\n"
        "19,-1,5,bad,0\n"
        "199,-1,200,good,1\n",
        '"records": [\n'
        '  {\n   "p": 3,\n   "chi": 0,\n   "ord": 6,\n'
        '   "class": "terrible",\n   "exceeds": false\n  },\n'
        '  {\n   "p": 19,\n   "chi": -1,\n   "ord": 5,\n'
        '   "class": "bad",\n   "exceeds": false\n  },\n'
        '  {\n   "p": 199,\n   "chi": -1,\n   "ord": 200,\n'
        '   "class": "good",\n   "exceeds": true\n  }\n ]\n}\n',
    ),
    "integers": (
        [
            IntegerRecord(95, 95, 1, 95, 2, 15, 7, 5, 19, 1, True),
            IntegerRecord(360, 10, 6, 5, 1, 36, 3, 5, 72, 72, False),
        ],
        "N,d,s,d0,L,ord,lower_bound,NG,NB,NT,in_S\n"
        "95,95,1,95,2,15,7,5,19,1,1\n"
        "360,10,6,5,1,36,3,5,72,72,0\n",
        '"records": [\n'
        '  {\n   "N": 95,\n   "d": 95,\n   "s": 1,\n   "d0": 95,\n   "L": 2,\n'
        '   "ord": 15,\n   "lower_bound": 7,\n   "NG": 5,\n   "NB": 19,\n'
        '   "NT": 1,\n   "in_S": true\n  },\n'
        '  {\n   "N": 360,\n   "d": 10,\n   "s": 6,\n   "d0": 5,\n   "L": 1,\n'
        '   "ord": 36,\n   "lower_bound": 3,\n   "NG": 5,\n   "NB": 72,\n'
        '   "NT": 72,\n   "in_S": false\n  }\n ]\n}\n',
    ),
    "sweep": (
        [
            SweepRecord(
                5, 1, 0, 0.1 + 0.2, 1 / 3, 0.9000000000000001, 2 / 3, 5e-324, 3, 17
            )
        ],
        "N,n1,n2,S4,bound,ratio,variance,max_dev,rstar,ms\n"
        "5,1,0,0.30000000000000004,0.33333333333333331,0.90000000000000013,"
        "0.66666666666666663,4.9406564584124654e-324,3,17\n",
        '"records": [\n'
        '  {\n   "N": 5,\n   "n1": 1,\n   "n2": 0,\n'
        '   "S4": 0.30000000000000004,\n   "bound": 0.3333333333333333,\n'
        '   "ratio": 0.9000000000000001,\n   "variance": 0.6666666666666666,\n'
        '   "max_dev": 5e-324,\n   "rstar": 3,\n   "ms": 17\n  }\n ]\n}\n',
    ),
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN))
def test_storage_golden_bytes(tmp_path, kind):
    recs, csv_body, json_records = _GOLDEN[kind]
    cfg = {"x": 200, "eta": 0.55}
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    store_results(recs, csv_path, config=cfg)
    store_results(recs, json_path, config=cfg)
    assert csv_path.read_bytes().decode() == (
        f"#catmap-census v1; eta=0.55; kind={kind}; x=200\n" + csv_body
    )
    assert json_path.read_bytes().decode() == (
        '{\n "version": "catmap-census v1",\n'
        f' "kind": "{kind}",\n'
        ' "config": {\n  "x": "200",\n  "eta": "0.55"\n },\n '
        + json_records
    )
    for path in (csv_path, json_path):
        loaded = load_results(path)
        assert loaded.kind == kind
        assert loaded.records == tuple(recs)


def test_golden_integers_parse_into_the_table_of_their_records(tmp_path, monkeypatch):
    recs = _GOLDEN["integers"][0]
    path = tmp_path / "r.csv"
    store_results(recs, path, config={"x": 200})
    monkeypatch.setattr(census, "_parse_rows", None)  # rows of digits take one pass
    table = census._load_table(path, "integers")
    assert table.dtype == np.int64
    assert table.tolist() == [list(census._LAYOUTS["integers"].values(r)) for r in recs]
    assert census._records(table, "integers") == list(load_results(path).records) == recs


def test_golden_primes_parse_into_the_table_of_their_records(tmp_path, monkeypatch):
    recs = _GOLDEN["primes"][0]  # chi of 0 and -1, and each class
    path = tmp_path / "r.csv"
    store_results(recs, path, config={"x": 200})
    monkeypatch.setattr(census, "_parse_rows", None)  # the rows take one pass
    table = census._load_table(path, "primes")
    assert table.dtype == np.int64
    assert table.tolist() == [[3, 0, 6, 2, 0], [19, -1, 5, 1, 0], [199, -1, 200, 0, 1]]
    assert census._records(table, "primes") == list(load_results(path).records) == recs


def _set_cell(row: bytes, i: int, cell: bytes) -> bytes:
    cells = row.split(b",")
    cells[i] = cell
    return b",".join(cells)


# Edits of the stored rows of a census, and the error every reader must raise
# (None: the rows load).  The first row is line 3 of the file.
_ROW_EDITS = {
    "blank-line": (lambda rows: rows[:1] + [b""] + rows[1:], "bad row 4:"),
    "only-a-blank-line": (lambda rows: [b""], "bad row 3:"),
    "hash-row": (lambda rows: rows[:1] + [b"#" + rows[1]] + rows[2:], "bad row 4:"),
    "crlf": (lambda rows: [row + b"\r" for row in rows], None),
    "not-utf8": (lambda rows: rows[:1] + [rows[1] + b"\xa0"] + rows[2:], "UTF-8"),
    "flag-of-2": (lambda rows: [_set_cell(rows[0], -1, b"2")] + rows[1:], None),
    "unknown-class": (lambda rows: [_set_cell(rows[0], 3, b"great")] + rows[1:], "bad row 3:"),
    # cells numpy reads as integers and int() does not: U+01FE (as 462), "1\x1c"
    "letter-digit": (lambda rows: [_set_cell(rows[0], 2, b"\xc7\xbe")] + rows[1:], "bad row 3:"),
    "file-separator": (lambda rows: [_set_cell(rows[0], 2, b"1\x1c")] + rows[1:], "bad row 3:"),
    "no-rows": (lambda rows: [], None),
}


# What an interrupted write may leave after the stored rows (nothing, a cut
# row, zero bytes); every reader leaves it out
_TAILS = (b"", b"199,-1,2", bytes(3000))


@pytest.mark.parametrize("edit", sorted(_ROW_EDITS))
@pytest.mark.parametrize("kind", ["primes", "integers"])
def test_census_rows_read_as_the_row_parser_reads_them(tmp_path, kind, edit):
    change, error = _ROW_EDITS[edit]
    path = tmp_path / "r.csv"
    store_results(_GOLDEN[kind][0], path, config={"x": 200})
    header, columns, *rows = path.read_bytes().split(b"\n")[:-1]
    body = b"".join(row + b"\n" for row in change(rows))
    readers = (load_results, lambda path: census._load_table(path, kind), resume_point)
    for tail in _TAILS:
        path.write_bytes(header + b"\n" + columns + b"\n" + body + tail)
        if error:
            with pytest.raises(SchemaMismatch, match=error) as per_row:
                census._parse_rows(kind, body)
            for read in readers:
                with pytest.raises(SchemaMismatch, match=re.escape(str(per_row.value))):
                    read(path)
        else:
            records = census._parse_rows(kind, body)
            assert load_results(path).records == tuple(records)
            table = census._load_table(path, kind)
            assert table.shape == (len(records), len(census._LAYOUTS[kind].columns))
            assert table.tolist() == census._records_table(records, kind).tolist()
            assert resume_point(path) == max((r.key for r in records), default=None)


@pytest.mark.parametrize("cut", ["empty", "header", "column-line"])
def test_a_file_cut_before_its_rows_reads_as_no_rows_stored(tmp_path, cut):
    path = tmp_path / "r.csv"
    store_results(_GOLDEN["primes"][0], path, config={"x": 200})
    header, columns, _ = path.read_bytes().split(b"\n", 2)
    stored, error = {
        "empty": (b"", "empty file"),
        "header": (header[:9], "empty file"),
        "column-line": (header + b"\n" + columns[:5], "missing column line"),
    }[cut]
    path.write_bytes(stored)
    assert resume_point(path) is None
    for read in (load_results, lambda path: census._load_table(path, "primes")):
        with pytest.raises(SchemaMismatch, match=error):
            read(path)
    assert path.read_bytes() == stored


@pytest.mark.parametrize("kind", ["primes", "integers"])
def test_json_files_read_through_the_csv_readers_entry_points(tmp_path, kind):
    records = _GOLDEN[kind][0]
    path = tmp_path / "r.json"
    store_results(records, path, config={"x": 200})
    assert load_results(path).records == tuple(records)
    assert resume_point(path) == max(r.key for r in records)
    store_results([], path, kind=kind)
    assert load_results(path).records == ()
    assert resume_point(path) is None


@pytest.mark.parametrize("kind", ["primes", "integers"])
def test_a_json_census_reads_into_the_table_of_its_csv_twin(tmp_path, kind):
    # a census is stored as its int64 table in both containers, and JSON is
    # written from that table as from its records
    make = census._prime_columns if kind == "primes" else census._integer_columns
    table = make(A, 2000, ETA)
    for name, rows in (("t.csv", table), ("t.json", table), ("r.json", census._records(table, kind))):
        store_results(rows, tmp_path / name, config={"x": 2000})
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "r.json").read_bytes()
    got = census._load_table(tmp_path / "t.json", kind)
    assert got.dtype == np.int64
    assert np.array_equal(got, census._load_table(tmp_path / "t.csv", kind))
    assert np.array_equal(got, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_reader_refuses_a_stored_cell_beyond_int64_in_csv_and_json(tmp_path, fmt):
    path = tmp_path / f"ints.{fmt}"
    store_results(_int_records(300), path, config={"x": 300})
    if fmt == "json":
        doc = json.loads(path.read_bytes())
        doc["records"][18]["ord"] = 1 << 63
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_bytes().split(b"\n")
        lines[20] = _set_cell(lines[20], 5, str(1 << 63).encode())
        path.write_bytes(b"\n".join(lines))
    readers = (load_results, resume_point, lambda path: census._load_table(path, "integers"))
    for read in readers:
        with pytest.raises(SchemaMismatch, match="int64"):
            read(path)


def test_load_table_holds_one_copy_of_the_stored_bytes(tmp_path):
    # the whole file, its rows after the header and their body, all alive
    # while the body was parsed, peaked at 7.8 MiB here
    path = tmp_path / "ints.csv"
    store_results(census._integer_columns(A, 60_000, ETA), path, config={"x": 60_000})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2 + 7])  # cut mid-row
    del blob
    tracemalloc.start()
    try:
        table = census._load_table(path, "integers")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 29_000
    assert peak < 2 * path.stat().st_size + table.nbytes, peak


def _integers_file(tmp_path, x=300):
    path = tmp_path / "ints.csv"
    store_results(_int_records(x), path, config={"x": x})
    return path, path.read_bytes().split(b"\n")


@pytest.mark.parametrize(
    "change",
    ["key", "order", "short", "long", "empty"],
)
def test_bad_stored_integer_row_raises_naming_its_row(tmp_path, change):
    path, lines = _integers_file(tmp_path)
    cells = lines[50].split(b",")  # line 51 of the file
    if change == "key":
        cells[0] = b"oops"
    elif change == "order":
        cells[5] = b"oops"
    elif change == "short":
        cells.pop()
    elif change == "long":
        cells.append(b"7")
    lines[50] = b"" if change == "empty" else b",".join(cells)
    path.write_bytes(b"\n".join(lines))
    for load in (load_results, lambda path: census._load_table(path, "integers")):
        with pytest.raises(SchemaMismatch, match="bad row 51:"):
            load(path)


def test_integer_rows_off_the_digit_path_parse_as_records_do(tmp_path):
    # cells int() takes but that are not plain digits, and an in_S cell of 2,
    # read the same by the table and by the per-row parser
    path, lines = _integers_file(tmp_path)
    for i, cell in ((10, b" 12"), (11, b"+12"), (12, b"0012"), (13, b"12\t")):
        cells = lines[i].split(b",")
        cells[1] = cell
        lines[i] = b",".join(cells)
    lines[14] = lines[14][:-1] + b"2"
    path.write_bytes(b"\n".join(lines))
    records = load_results(path).records
    assert [records[i - 2].d for i in (10, 11, 12, 13)] == [12] * 4
    assert records[12].in_s is True
    table = census._load_table(path, "integers")
    assert table.tolist() == census._records_table(records, "integers").tolist()
    # a cell beyond int64 fits no column table, so no reader takes it
    cells = lines[20].split(b",")
    cells[5] = str(1 << 70).encode()
    lines[20] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))
    for read in (load_results, lambda path: census._load_table(path, "integers")):
        with pytest.raises(SchemaMismatch, match="int64"):
            read(path)


@pytest.mark.parametrize("kind, cell", [("integers", 5), ("primes", 3)])
def test_every_reader_rejects_a_bad_non_key_cell_naming_its_row(tmp_path, kind, cell):
    # a census cut mid-row, whose row 51 has a corrupt ord or class cell: the
    # key of every stored row parses, but the readers share one row reader
    path = tmp_path / "r.csv"
    recs = prime_census(A, 2000, ETA)[0] if kind == "primes" else _int_records(300)
    store_results(recs, path, config={"x": 300})
    lines = path.read_bytes().split(b"\n")
    lines[50] = _set_cell(lines[50], cell, b"oops")
    blob = b"\n".join(lines)
    path.write_bytes(blob[: len(blob) // 2])
    readers = (load_results, resume_point, lambda path: census._load_table(path, kind))
    errors = set()
    for read in readers:
        with pytest.raises(SchemaMismatch, match="bad row 51:") as exc:
            read(path)
        errors.add(str(exc.value))
    assert len(errors) == 1


def test_load_integer_table_takes_only_integer_csvs(tmp_path):
    recs = prime_census(A, 300, ETA)[0]
    store_results(recs, tmp_path / "p.csv")
    with pytest.raises(SchemaMismatch, match="primes"):
        census._load_table(tmp_path / "p.csv", "integers")
    path, lines = _integers_file(tmp_path)
    path.write_bytes(b"\n".join(lines)[:-9])  # cut mid-row: that row is not stored
    assert census._load_table(path, "integers").tolist() == census._records_table(
        load_results(path).records, "integers"
    ).tolist()


@pytest.mark.parametrize("x, lo", [(2500, 2), (2500, 1201), (2500, 2501)])
def test_a_column_table_is_stored_as_its_records_are(tmp_path, x, lo):
    table = census._integer_columns(A, x, ETA, lo)
    recs = census._records(census._integer_columns(A, x, ETA, lo), "integers")
    for name in ("t.csv", "t.json"):
        store_results(table, tmp_path / name, kind="integers", config={"x": x})
        store_results(recs, tmp_path / f"r{name}", kind="integers", config={"x": x})
        assert (tmp_path / name).read_bytes() == (tmp_path / f"r{name}").read_bytes()
    assert census._json_records(table, "integers") == census._json_records(recs, "integers")
    with pytest.raises(TypeError):
        store_results(table, tmp_path / "x.csv", kind="primes")


@pytest.mark.parametrize("kind", sorted(_GOLDEN))
def test_records_have_slots_and_still_compare_and_round_trip(tmp_path, kind):
    recs = _GOLDEN[kind][0]
    for rec in recs:
        assert not hasattr(rec, "__dict__")
        fields = [f.name for f in dataclasses.fields(rec)]
        assert dataclasses.asdict(rec) == {name: getattr(rec, name) for name in fields}
        assert dataclasses.replace(rec) == rec
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, fields[0], 0)
    for name in ("r.csv", "r.json"):
        store_results(recs, tmp_path / name)
        assert load_results(tmp_path / name).records == tuple(recs)


def test_truncation_then_resume_reconstructs_bytes(tmp_path):
    recs = _int_records(400)
    cfg = {"x": 400}
    path = tmp_path / "ints.csv"
    store_results(recs, path, config=cfg)
    full = path.read_bytes()
    path.write_bytes(full[: int(len(full) * 0.57)])  # kill mid-row
    last = resume_point(path)
    assert 2 <= last < 400
    rest = census._records(census._integer_columns(A, 400, ETA, last + 1), "integers")
    store_results(rest, path, append=True, config=cfg)
    assert path.read_bytes() == full
    assert load_results(path).records == tuple(recs)


def test_resume_after_long_unterminated_tail(tmp_path):
    # a crash can leave megabytes of zeros after the last complete row; the
    # append must drop exactly that tail and keep every row before it
    cfg = {"x": 1000}
    full_path = tmp_path / "full.csv"
    store_results(_int_records(1000), full_path, config=cfg)
    path = tmp_path / "ints.csv"
    store_results(_int_records(501), path, config=cfg)
    with open(path, "ab") as fh:
        fh.write(b"\0" * (2 << 20))
    last = resume_point(path)
    assert last == 501
    rest = census._records(census._integer_columns(A, 1000, ETA, last + 1), "integers")
    store_results(rest, path, append=True, config=cfg)
    assert path.read_bytes() == full_path.read_bytes()
    assert [r.N for r in load_results(path)] == list(range(2, 1001))


def test_truncation_inside_header_restarts_clean(tmp_path):
    recs = _int_records(150)
    path = tmp_path / "ints.csv"
    store_results(recs, path, config={"x": 150})
    full = path.read_bytes()
    path.write_bytes(full[:7])
    assert resume_point(path) is None
    store_results(recs, path, append=True, config={"x": 150})
    assert path.read_bytes() == full


def test_append_with_different_config_is_rejected(tmp_path):
    recs = _int_records(120)
    path = tmp_path / "ints.csv"
    store_results(recs, path, config={"x": 120})
    cut = path.read_bytes()[:-7]  # a partial last row stays until the header matches
    path.write_bytes(cut)
    with pytest.raises(SchemaMismatch):
        store_results(recs, path, append=True, config={"x": 240})
    assert path.read_bytes() == cut


@pytest.mark.parametrize(
    "config",
    [{"f": "c:(1,0)=1,0; c:(-1,0)=1,0"}, {"f": "cos1\n"}, {"a=b": "1"}, {"a; b": "1"}],
    ids=["semicolon-value", "newline-value", "equals-key", "semicolon-key"],
)
@pytest.mark.parametrize("append", [False, True], ids=["fresh", "append"])
def test_a_config_the_header_cannot_hold_raises_and_leaves_the_file(
    tmp_path, config, append
):
    recs = _int_records(120)
    path = tmp_path / "ints.csv"
    store_results(recs, path, config={"x": 120})
    cut = path.read_bytes()[:-7]
    path.write_bytes(cut)
    with pytest.raises(ValueError, match="CSV header"):
        store_results(recs, path, config=config, append=append)
    assert path.read_bytes() == cut
    store_results(recs, tmp_path / "r.json", config=config)  # JSON holds any string
    assert load_results(tmp_path / "r.json").config == config


def test_append_other_kind_is_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    store_results(_int_records(120), path, config={})
    primes = prime_census(A, 500, ETA)[0]
    with pytest.raises(SchemaMismatch):
        store_results(primes, path, append=True, config={})


def test_load_rejects_alien_and_corrupt_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "#catmap-census v1; kind=primes\n"
        "p,chi,ord,class,exceeds\n"
        "3,-1,4,good,1\n"
        "oops,not,a,row,!\n"
        "7,-1,8,good,1\n"
    )
    with pytest.raises(SchemaMismatch, match="^bad row 4: 'oops,not,a,row,!'"):
        load_results(path)
    head_only = [
        ("", "empty file"),
        ("#catmap-census v1; kind=primes\n", "missing column line"),
        ("#catmap-census v1; kind=integers\np,chi,ord,class,exceeds\n", "does not match columns"),
        ("catmap-census v1; kind=primes\np,chi,ord,class,exceeds\n", "missing header comment"),
        # a complete alien header over a cut column line
        ("#other-format v3; kind=primes\np,chi", "unsupported format tag"),
        ("#other-format v3; kind=primes\np,chi,ord,class,exceeds\n", "unsupported format tag"),
        ("#catmap-census v1; kind=primes\nwho,knows\n", "unknown column set"),
    ]
    for text, match in head_only:
        path.write_text(text)
        with pytest.raises(SchemaMismatch, match=match):
            load_results(path)
    # an append reads the head as the readers do: it raises exactly where
    # resume_point raises, and starts afresh where nothing is stored
    for text, match in head_only:
        path.write_text(text)
        try:
            stored = resume_point(path)
        except SchemaMismatch:
            with pytest.raises(SchemaMismatch, match=match):
                census.can_append(path, "primes")
        else:
            assert stored is None
            assert census.can_append(path, "primes") == 0
    path.write_text("#other-format v3; kind=primes\np,chi")
    for read in (resume_point, lambda path: census.can_append(path, "primes", {"x": 300})):
        with pytest.raises(SchemaMismatch, match="unsupported format tag"):
            read(path)


@pytest.mark.parametrize("line", [0, 1, 5], ids=["header", "columns", "row"])
@pytest.mark.parametrize("kind", ["primes", "integers"])
def test_a_stored_byte_that_is_not_utf8_raises_schema_mismatch(tmp_path, kind, line):
    path = tmp_path / "bad.csv"
    recs = prime_census(A, 300, ETA)[0] if kind == "primes" else _int_records(300)
    store_results(recs, path, config={"x": 300})
    lines = path.read_bytes().split(b"\n")
    lines[line] = lines[line][:3] + b"\xff" + lines[line][3:]
    path.write_bytes(b"\n".join(lines))
    readers = [load_results, resume_point, lambda path: census._load_table(path, kind)]
    if line < 2:  # an append reads only the header and the column line
        readers.append(lambda path: census.can_append(path, kind, {"x": 300}))
    else:
        assert census.can_append(path, kind, {"x": 300})
    for read in readers:
        with pytest.raises(SchemaMismatch, match="UTF-8"):
            read(path)


def _edit_record(blob: bytes, edit, i: int = 0) -> bytes:
    doc = json.loads(blob)
    edit(doc["records"][i])
    return json.dumps(doc).encode()


def _edit_doc(**fields):
    return lambda blob: json.dumps({**json.loads(blob), **fields}).encode()


def _edit_cell(name, value, i: int = 0):
    return lambda blob: _edit_record(blob, lambda rec: rec.update({name: value}), i)


# Edits of a stored JSON document of the given kind that every reader refuses
_JSON_EDITS = {
    "truncated": ("integers", lambda blob: blob[: len(blob) // 2]),
    "not-utf8": ("integers", lambda blob: blob.replace(b'"x"', b'"\xff"')),
    "records-int": ("integers", _edit_doc(records=5)),
    "records-object": ("integers", _edit_doc(records={"N": 2})),
    "config-int": ("integers", _edit_doc(config=5)),
    "config-string": ("integers", _edit_doc(config="x=120")),
    "config-pairs": ("integers", _edit_doc(config=[["x", "120"]])),
    "version-v9": ("integers", _edit_doc(version="v9")),
    "kind-nope": ("integers", _edit_doc(kind="nope")),
    "record-without-L": (
        "integers", lambda blob: _edit_record(blob, lambda rec: rec.pop("L"))
    ),
    "record-4-without-L": (
        "integers", lambda blob: _edit_record(blob, lambda rec: rec.pop("L"), 3)
    ),
    "record-4-L-list": ("integers", _edit_cell("L", [1], 3)),
    "record-N-two": ("integers", _edit_cell("N", "two")),
    # a cell that prints as no CSV cell, or as more cells or rows than one
    "ord-2.5": ("integers", _edit_cell("ord", 2.5)),
    "ord-null": ("integers", _edit_cell("ord", None)),
    "ord-list": ("integers", _edit_cell("ord", [1])),
    "ord-comma": ("integers", _edit_cell("ord", "1,2")),
    "ord-newline": ("integers", _edit_cell("ord", "5\n")),
    "class-GOOD": ("primes", _edit_cell("class", "GOOD")),
    "class-row-injection": ("primes", _edit_cell("class", "terrible,0\n5,1,4,good")),
    "record-5-ord-oops": ("primes", _edit_cell("ord", "oops", 4)),
    # a key that no CSV row can hold
    "record-extra-key": ("primes", _edit_cell("extra", 7, 1)),
}

# The error of some of those edits: a bad record is named by its place, from 1
_JSON_ERRORS = {
    "record-N-two": "^bad record 1: 'two,2,",
    "class-GOOD": "^bad record 1: '2,0,2,GOOD,0'",
    "record-5-ord-oops": "^bad record 5: '11,1,oops,good,0'",
    "record-extra-key": "^bad record 2: 'extra' is not a primes column$",
    "record-without-L": "^bad record 1: no 'L' column$",
    "record-4-without-L": "^bad record 4: no 'L' column$",
    "record-4-L-list": r"^bad record 4: \[1\] is not one CSV cell$",
    "ord-null": "^bad record 1: None is not one CSV cell$",
}


@pytest.mark.parametrize("edit", sorted(_JSON_EDITS))
def test_a_malformed_json_document_raises_schema_mismatch(tmp_path, edit):
    kind, change = _JSON_EDITS[edit]
    path = tmp_path / "r.json"
    recs = _int_records(120) if kind == "integers" else prime_census(A, 300, ETA)[0]
    store_results(recs, path, config={"x": 120})
    path.write_bytes(change(path.read_bytes()))
    for read in (load_results, resume_point):
        with pytest.raises(SchemaMismatch, match=_JSON_ERRORS.get(edit)):
            read(path)


@pytest.mark.parametrize(
    "name, value, cell",
    [("ord", "7", "7"), ("ord", 2.0, "2"), ("ord", " 5", " 5"), ("exceeds", 2, "2")],
    ids=["ord-string", "ord-float", "ord-spaced-string", "exceeds-2"],
)
def test_an_accepted_json_cell_reads_as_its_csv_twin(tmp_path, name, value, cell):
    # a JSON document reads as the CSV rows it prints as
    recs = prime_census(A, 300, ETA)[0]
    doc, twin = tmp_path / "r.json", tmp_path / "r.csv"
    store_results(recs, doc, config={"x": 300})
    store_results(recs, twin, config={"x": 300})
    doc.write_bytes(_edit_cell(name, value)(doc.read_bytes()))
    column = census._LAYOUTS["primes"].columns.index(name)
    lines = twin.read_text().split("\n")
    row = lines[2].split(",")
    row[column] = cell
    lines[2] = ",".join(row)
    twin.write_text("\n".join(lines))
    table = census._load_table(doc, "primes")
    assert np.array_equal(table, census._load_table(twin, "primes"))
    assert table[0, column] == (1 if name == "exceeds" else int(float(value)))
    assert load_results(doc).records == load_results(twin).records


def test_load_drops_partial_final_row_only(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_text(
        "#catmap-census v1; kind=primes\n"
        "p,chi,ord,class,exceeds\n"
        "3,-1,4,good,1\n"
        "7,-1,8,go"  # no newline: interrupted write
    )
    loaded = load_results(path)
    assert [r.p for r in loaded.records] == [3]


def test_resume_point_rejects_a_stored_row_with_a_bad_key(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "#catmap-census v1; kind=primes\n"
        "p,chi,ord,class,exceeds\n"
        "3,-1,4,good,1\n"
        "oops,-1,8,good,1\n"
        "7,-1,8,good,1\n"
    )
    with pytest.raises(SchemaMismatch):
        resume_point(path)


def test_resume_point_inside_the_column_line_checks_only_the_header(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_text("#catmap-census v1; kind=primes\np,chi,o")
    assert resume_point(path) is None
    path.write_text("#other-format v3; kind=primes\np,chi,o")
    with pytest.raises(SchemaMismatch, match="unsupported format tag"):
        resume_point(path)


def test_an_append_to_a_missing_file_writes_a_fresh_one(tmp_path):
    recs = prime_census(A, 300, ETA)[0]
    store_results(recs, tmp_path / "fresh.csv", config={"x": 300})
    store_results(recs, tmp_path / "appended.csv", config={"x": 300}, append=True)
    assert (tmp_path / "appended.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_empty_stream_gives_loadable_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    store_results([], path, kind="sweep", config={"f": "cos1"})
    loaded = load_results(path)
    assert loaded.kind == "sweep"
    assert loaded.records == ()
    assert resume_point(path) is None


def test_store_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        store_results([], tmp_path / "x.csv")  # kind unknowable
    mixed = [_int_records(110)[0], prime_census(A, 300, ETA)[0][0]]
    with pytest.raises(TypeError):
        store_results(mixed, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        store_results(_int_records(110), tmp_path / "x.json", append=True)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        store_results(_int_records(110), tmp_path / "x.csv", fmt="xml")
    with pytest.raises(TypeError, match="unknown record type object"):
        store_results([object()], tmp_path / "x.csv")
    with pytest.raises(ValueError, match="unknown record kind 'nope'"):
        store_results(_int_records(110), tmp_path / "x.csv", kind="nope")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_resume_point_missing_file(tmp_path):
    assert resume_point(tmp_path / "nope.csv") is None


def test_repeated_census_runs_are_byte_identical(tmp_path):
    for label, x, make in (
        ("integers", 2500, lambda x: integer_census(A, x, ETA)[0]),
        ("primes", 3000, lambda x: prime_census(A, x, ETA)[0]),
    ):
        a, b = tmp_path / f"{label}-a.csv", tmp_path / f"{label}-b.csv"
        store_results(make(x), a, config={"x": x})
        store_results(make(x), b, config={"x": x})
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(2, 10**6),
            st.floats(0, 1e3, allow_nan=False),
            st.floats(1e-12, 1e3, allow_nan=False),
            st.floats(0, 1e6, allow_nan=False),
            st.floats(0, 1e6, allow_nan=False),
            st.integers(1, 10**5),
            st.integers(0, 10**4),
        ),
        min_size=0,
        max_size=8,
    )
)
def test_sweep_round_trip_any_floats(tmp_path_factory, rows):
    recs = [
        SweepRecord(n, 1, 0, s4, b, s4 / b, var, dev, r, ms)
        for (n, s4, b, var, dev, r, ms) in rows
    ]
    base = tmp_path_factory.mktemp("rt")
    for name, fmt in (("r.csv", "csv"), ("r.json", "json")):
        path = base / name
        if recs:
            store_results(recs, path, fmt=fmt)
        else:
            store_results(recs, path, kind="sweep", fmt=fmt)
        assert load_results(path).records == tuple(recs)


# ---------------------------------------------------------------------------
# the CSV writer's digit kernel against the `%` template


_CLASS_NAMES = [c.value for c in census._CLASSES]
_INT64_EDGES = [-(1 << 63), (1 << 63) - 1, 0, 1, -1, 9, -9, 10, -10, 10**18, -(10**18)]


def _template_rows(table, types) -> bytes:
    """The rows of a column table by a `%` template, one row at a time."""
    template = ",".join("%s" if t is PrimeClass else "%d" for t in types) + "\n"
    cells = [
        [_CLASS_NAMES[v] if t is PrimeClass else v for v, t in zip(row, types)]
        for row in table.tolist()
    ]
    return "".join(template % tuple(row) for row in cells).encode()


def _body(path) -> bytes:
    """A stored CSV's rows: the bytes after its header and column line."""
    return path.read_bytes().split(b"\n", 2)[2]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(
                st.one_of(st.sampled_from(_INT64_EDGES), st.integers(-(1 << 63), (1 << 63) - 1)),
                min_size=k,
                max_size=k,
            ),
            min_size=0,
            max_size=12,
        ).map(lambda rows: np.array(rows, np.int64).reshape(len(rows), k))
    )
)
def test_csv_kernel_writes_any_int64_table_as_the_template_does(table):
    types = (int,) * table.shape[1]
    assert census._csv_body(table, types) == _template_rows(table, types)


def test_csv_kernel_writes_an_empty_table_as_no_bytes(tmp_path):
    for kind in ("primes", "integers"):
        types = census._LAYOUTS[kind].types
        assert census._csv_body(np.empty((0, len(types)), np.int64), types) == b""
        store_results(np.empty((0, len(types)), np.int64), tmp_path / "e.csv", kind=kind)
        assert _body(tmp_path / "e.csv") == b""


@pytest.mark.parametrize("rows", [4095, 4096, 4097])
def test_csv_rows_around_the_block_edge_are_the_template_rows(tmp_path, rows):
    # the writer takes 4,096 rows per block; cells of each width and sign on
    # both sides of the edge
    rng = np.random.default_rng(rows)
    table = rng.integers(-(10**12), 10**12, (rows, 11), dtype=np.int64)
    table //= 10 ** rng.integers(0, 13, table.shape)
    table[rows // 2 :: 97] = _INT64_EDGES
    path = tmp_path / "t.csv"
    assert store_results(table, path, kind="integers") == rows
    assert _body(path) == _template_rows(table, census._LAYOUTS["integers"].types)
    assert _body(path) == census._template_body(table, "integers")


def test_a_prime_table_with_every_class_and_sign_is_stored_as_its_template(tmp_path):
    table = census._prime_columns(A, 3000, ETA)
    assert min(table[:, 1]) == -1 and set(table[:, 3].tolist()) == {0, 1, 2}
    path = tmp_path / "p.csv"
    store_results(table, path)
    assert _body(path) == _template_rows(table, census._LAYOUTS["primes"].types)
    assert _body(path) == census._template_body(prime_census(A, 3000, ETA)[0], "primes")


@pytest.mark.parametrize(
    "kind, make",
    [
        ("primes", lambda lo: census._prime_columns(A, 3000, ETA, lo)),
        ("integers", lambda lo: census._integer_columns(A, 3000, ETA, lo)),
    ],
)
def test_records_and_their_table_store_the_same_bytes_fresh_and_appended(tmp_path, kind, make):
    table = make(2)
    records = census._records(table, kind)
    fresh = {}
    for name, rows in (("records", records), ("table", table)):
        fresh[name] = tmp_path / f"{name}.csv"
        store_results(rows, fresh[name], kind=kind, config={"x": 3000})
    assert fresh["records"].read_bytes() == fresh["table"].read_bytes()
    full = fresh["table"].read_bytes()
    cut = full[: len(full) // 2]
    assert not cut.endswith(b"\n")
    for name in ("records", "table"):
        path = tmp_path / f"cut-{name}.csv"
        path.write_bytes(cut)
        lo = resume_point(path) + 1
        rest = make(lo)
        store_results(
            census._records(rest, kind) if name == "records" else rest,
            path,
            kind=kind,
            config={"x": 3000},
            append=True,
        )
        assert path.read_bytes() == full


def test_only_an_int64_table_is_stored(tmp_path):
    table = census._prime_columns(A, 300, ETA)
    table[0, 1] = np.iinfo(np.int32).min
    for dtype in (np.int32, np.uint64, np.float64):
        with pytest.raises(TypeError, match="int64"):
            store_results(table.astype(dtype), tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()
    store_results(table, tmp_path / "t.csv")
    assert _body(tmp_path / "t.csv").startswith(b"2,-2147483648,")


def test_a_record_beyond_int64_raises_before_the_file_is_touched(tmp_path):
    recs = _int_records(300)
    huge = recs[:5] + [dataclasses.replace(recs[5], order=1 << 70)] + recs[6:]
    for path in (tmp_path / "fresh.csv", tmp_path / "fresh.json"):
        with pytest.raises(OverflowError):
            store_results(huge, path, config={"x": 300})
        assert not path.exists()
    path = tmp_path / "kept.csv"
    store_results(recs[:5], path, config={"x": 300})
    kept = path.read_bytes()[:-3]  # cut mid-row: an append would trim it
    path.write_bytes(kept)
    with pytest.raises(OverflowError):
        store_results(huge[5:], path, config={"x": 300}, append=True)
    assert path.read_bytes() == kept


def _omega_by_every_prime(limit: int) -> np.ndarray:
    """omega(n) for 0 <= n <= limit, one strided slice per prime."""
    omega = np.zeros(max(limit, 0) + 1, dtype=np.int8)
    for p in primes_up_to(limit).tolist():
        omega[p::p] += 1
    return omega


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 31, 32, 33, 64, 100, 60_000, 10**6])
def test_omega_sieve_matches_one_slice_per_prime(limit):
    got = census._omega_sieve(limit)
    want = _omega_by_every_prime(limit)
    assert got.dtype == want.dtype and np.array_equal(got, want)
