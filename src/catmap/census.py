"""Large-scale order censuses and eigenfunction sweeps, with resumable storage.

Three kinds of tabulated records:

* ``PrimeRecord`` -- per-prime order data with the Good/Bad/Terrible class,
  produced by :func:`prime_census`;
* ``IntegerRecord`` -- the order profile of every modulus up to a cutoff,
  produced by :func:`integer_census`;
* ``SweepRecord`` -- spectral statistics of the quantized map over a list of
  dimensions, produced by :func:`quantum_sweep`.

Records go to disk as CSV (one header comment line, one column line, then one
row per record) or as a JSON document with identical field names.  A CSV row
is stored once its newline is written: every reader ignores a final line
without one, the trace of an interrupted write.  So CSV files can be appended
to and survive truncation mid-row: :func:`store_results` with ``append=True``
drops that partial line before writing, and :func:`resume_point` reports the
largest key already stored.

Both censuses are computed, stored, read back and summarized as int64 column
tables (:func:`_prime_columns`, :func:`_integer_columns`, :func:`_load_table`):
one row per record, one column per field, the prime class as a code and flags
as 0/1.  A summary counts over one table (`_prime_counts`,
`_integer_counts`), in counts that add across tables, and divides once when
it is finished (`_prime_summary`, `_integer_summary`), so a resumed census
is summarized without joining its stored and new tables.  Every CSV reader
takes its rows from `_stored_rows`, so all accept and reject the same files.
It holds one copy of the stored body and reads a census body in one numpy
pass (`_parse_table`); the per-row parser `_parse_rows` reads sweeps and any
body numpy cannot take.  Census rows are written by one numpy kernel,
`_csv_body`, and sweep rows by their `%` template.
``PrimeRecord`` and ``IntegerRecord`` objects are built from the columns only
where the API returns records.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import operator
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import starmap
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .arith import CatMap, _order_mod_prime_power, order_dividing, primes_up_to
from .errors import CatmapError, FactorizationTimeout, SchemaMismatch
from .quadorder import (
    PrimeClass,
    _check_eta,
    _order_class,
    _prime_data,
    _prime_orders,
    _smallest_prime_factors,
    small_order_modulus,
)
from .quantum import Observable, fourth_moment, propagator_spectrum, variance_stat

FORMAT_TAG = "catmap-census v1"
DEFAULT_DELTA_GRID = (0.05, 0.1, 0.2, 0.3)
DENSE_DIMENSION_LIMIT = 300


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True, slots=True)
class PrimeRecord:
    """Order data for a single prime: chi(p), ord(A, p), class, threshold flag."""

    p: int
    chi: int
    order: int
    prime_class: PrimeClass
    exceeds: bool

    @property
    def key(self) -> int:
        return self.p


@dataclass(frozen=True, slots=True)
class IntegerRecord:
    """Order profile of one modulus N = d * s**2 plus its class decomposition.

    ``good_part * bad_part == N`` with ``terrible_part | bad_part``; ``in_s``
    flags moduli with small square part (s <= log N) and few prime factors
    (omega(N) <= 1.5 * log log N).
    """

    N: int
    d: int
    s: int
    d0: int
    L: int
    order: int
    lower_bound: int
    good_part: int
    bad_part: int
    terrible_part: int
    in_s: bool

    @property
    def key(self) -> int:
        return self.N

    @property
    def order_over_sqrt(self) -> float:
        return self.order / math.sqrt(self.N)


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """Spectral statistics of the dimension-N propagator at one frequency.

    ``s4`` is the fourth-moment sum of the diagonal translation elements over
    the canonical eigenbasis and ``bound`` its rigorous ceiling; ``max_dev``
    is the largest diagonal element of the same pure harmonic, so
    ``max_dev**4 <= s4 <= bound`` always.  ``variance`` refers to the swept
    observable, which may differ from the harmonic.  ``ms`` is wall time in
    milliseconds and is left at 0 unless timing was requested, keeping
    repeated runs byte-identical.
    """

    N: int
    n1: int
    n2: int
    s4: float
    bound: float
    ratio: float
    variance: float
    max_dev: float
    rstar: int
    ms: int

    @property
    def key(self) -> int:
        return self.N


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class TailCount:
    """How many primes have order <= y, next to the y**2 comparison curve."""

    y: float
    count: int
    y_squared: float


@dataclass(frozen=True)
class PrimeCensusSummary:
    x: int
    eta: float
    prime_count: int
    exceed_count: int
    fraction: float
    c_eta: float
    good_count: int
    bad_count: int
    terrible_count: int
    tails: tuple[TailCount, ...]
    failures: tuple[int, ...]  # always empty; kept for the stdout layout


@dataclass(frozen=True)
class DecadeFractions:
    """Fractions of moduli N <= bound violating each smallness condition."""

    bound: int
    count: int
    big_order: float
    large_square: float
    many_factors: float
    all_bad: float
    in_s: float


@dataclass(frozen=True)
class IntegerCensusSummary:
    x: int
    eta: float
    count: int
    decades: tuple[DecadeFractions, ...]
    l_distribution: tuple[tuple[int, int], ...]
    growth_fractions: tuple[tuple[float, float], ...]
    unit_skipped: bool  # always True: records start at N = 2
    failures: tuple[int, ...]  # always empty; kept for the stdout layout


@dataclass(frozen=True)
class SmallOrderRow:
    """ord(A, N_k) <= k for the modulus N_k built from the k-th power."""

    k: int
    modulus: int
    order: int
    order_over_log: float
    certified: bool


def c_eta(eta: float) -> float:
    """Asymptotic lower density (3 - 5*eta) / (2 - 2*eta) of exceeding primes."""
    _check_eta(eta)
    return (3 - 5 * eta) / (2 * (1 - eta))


# ---------------------------------------------------------------------------
# censuses


# the PrimeClass of each class code in a prime column table
_CLASSES = (PrimeClass.GOOD, PrimeClass.BAD, PrimeClass.TERRIBLE)
_GOOD, _BAD, _TERRIBLE = range(3)


def _class_codes(p: np.ndarray, order: np.ndarray, eta: float) -> np.ndarray:
    """The class codes of primes p not dividing D from their orders, by the
    rule of `_order_class`, exactly.

    Vectorized thresholds decide every order more than 1e-9 (relative) away
    from both; the float rule itself decides the rest.  The orders are at
    most p + 1 <= 2**31 here, so they convert to float64 exactly.
    """
    of, pf = order.astype(np.float64), p.astype(np.float64)
    low = np.sqrt(pf)
    low /= np.log(pf)
    high = np.power(pf, eta, out=pf)
    codes = np.full(len(p), _BAD, np.int64)
    codes[of >= high] = _GOOD
    codes[of < low] = _TERRIBLE
    near = np.isclose(of, low, rtol=1e-9, atol=0) | np.isclose(of, high, rtol=1e-9, atol=0)
    for i in np.flatnonzero(near).tolist():
        codes[i] = _CLASSES.index(_order_class(int(p[i]), int(order[i]), eta))
    return codes


def _prime_table(m: CatMap, x: int, eta: float, primes, spf) -> np.ndarray:
    """The prime column table of an ascending array of primes <= x < 2**31.

    chi and ord come from the batched kernel `_prime_orders` over the
    smallest-prime-factor sieve `spf` of `_sieved_primes`, and the class from
    `_class_codes`; the primes the kernel leaves (p = 2, p | D) take the
    scalar route, `_prime_data`, one order each.  Every number factored on
    either route is p - chi(p) or 2p < 2**32, which trial division settles,
    so no factoring can time out.  The table is written column by column in
    place, so that the peak memory after the kernel stays below the kernel's
    own.
    """
    kept, chi, order = _prime_orders(m, primes, spf)
    scalar = []
    for p in np.setdiff1d(primes, kept, assume_unique=True).tolist():
        chi_p, order_p, cls = _prime_data(m, p, eta)
        scalar.append((p, chi_p, order_p, _CLASSES.index(cls)))
    table = np.empty((len(primes), 5), np.int64)
    table[:, 0] = primes
    at = np.searchsorted(primes, kept)
    table[at, 1] = chi
    table[at, 2] = order
    table[at, 3] = _class_codes(kept, order, eta)
    if scalar:
        rows = np.array(scalar, np.int64)
        table[np.searchsorted(primes, rows[:, 0]), :4] = rows
    table[:, 4] = table[:, 2] > float(x) ** eta
    return table


def _prime_columns(m: CatMap, x: int, eta: float, lo: int = 2) -> np.ndarray:
    """The prime census over [lo, x] as one int64 column table; x < 2**31.

    Row i holds the PrimeRecord fields of the i-th prime in order: p, chi,
    ord(A, p), the class as its index in `_CLASSES`, and exceeds
    (ord > x**eta) as 0/1.
    """
    if x < 100:
        raise ValueError(f"cutoff x must be >= 100, got {x}")
    c_eta(eta)  # validates the range
    spf, primes = _sieved_primes(x)
    return _prime_table(m, x, eta, primes[primes >= lo], spf)


def _check_cutoff(x: int) -> None:
    """The one cutoff bound of both censuses, checked before any sieve up to
    x is built: x must be below 2**31, since the smallest-prime-factor sieve
    is int32."""
    if x >= 1 << 31:
        raise ValueError(f"cutoff x must be below 2**31 for the int32 sieve, got {x}")


def _sieved_primes(x: int) -> tuple[np.ndarray, np.ndarray]:
    """A smallest-prime-factor sieve up to x + 1, which reaches p - chi(p) for
    every prime p <= x, and the primes <= x read off it.

    The sieve is int32, so x must be below 2**31 (`_check_cutoff`).
    """
    _check_cutoff(x)
    spf = _smallest_prime_factors(x + 1)
    primes = np.flatnonzero(spf[2 : x + 1] == np.arange(2, x + 1, dtype=np.int32)) + 2
    return spf, primes


def compute_prime_records(
    m: CatMap,
    x: int,
    eta: float,
    *,
    lo: int = 2,
) -> list[PrimeRecord]:
    """Order records for all primes in [lo, x], in order.

    The column engine `_prime_columns` computes them as one int64 table; the
    records are built here, at the API edge, from that table's columns.
    x must be below 2**31.
    """
    return _records(_prime_columns(m, x, eta, lo), "primes")


def _tail_bounds(x: int) -> list[float]:
    return [float(x) ** expo for expo in (0.2, 0.3, 0.4)]


def _prime_counts(table: np.ndarray, x: int) -> Counter:
    """The counting step of `summarize_prime_records` over one prime column
    table, as a Counter of plain ints: the primes, the exceedances, each
    class, and under ("tail", y) the orders <= y for each tail bound y.
    Counts of two tables add (Counter `+`), so a census counted in parts is
    finished once (`_prime_summary`)."""
    order = table[:, 2]
    counts = Counter(prime_count=len(table), exceed_count=int(np.count_nonzero(table[:, 4])))
    classes = np.bincount(table[:, 3], minlength=len(_CLASSES)).tolist()
    counts.update(dict(zip(("good_count", "bad_count", "terrible_count"), classes)))
    for y in _tail_bounds(x):
        counts["tail", y] = int(np.count_nonzero(order <= y))
    return counts


def _prime_summary(counts: Counter, x: int, eta: float) -> PrimeCensusSummary:
    """The finishing step of `summarize_prime_records`: the summary of the
    counts of `_prime_counts`, summed over the tables of one census."""
    total, exceed = counts["prime_count"], counts["exceed_count"]
    return PrimeCensusSummary(
        x=x,
        eta=eta,
        prime_count=total,
        exceed_count=exceed,
        fraction=exceed / total if total else 0.0,
        c_eta=c_eta(eta),
        good_count=counts["good_count"],
        bad_count=counts["bad_count"],
        terrible_count=counts["terrible_count"],
        tails=tuple(TailCount(y, counts["tail", y], y * y) for y in _tail_bounds(x)),
        failures=(),
    )


def summarize_prime_records(records, x: int, eta: float) -> PrimeCensusSummary:
    """Exceedance fraction vs c(eta), class counts, and small-order tails.

    ``records`` is an iterable of PrimeRecord or a prime column table (see
    `_prime_columns`); records are read once into such a table.  The summary
    is the finishing step (`_prime_summary`) of the counting step
    (`_prime_counts`) over that table; a census counted in parts gets the
    same summary.  ``failures`` is always empty, since no prime of a census
    can fail; it stays in the printed summary, which the benchmark compares
    key for key with its references.
    """
    table = records if isinstance(records, np.ndarray) else _records_table(records, "primes")
    return _prime_summary(_prime_counts(table, x), x, eta)


def prime_census(
    m: CatMap, x: int, eta: float
) -> tuple[list[PrimeRecord], PrimeCensusSummary]:
    """Classify every prime up to x and compare the Good fraction with c(eta)."""
    table = _prime_columns(m, x, eta)
    return _records(table, "primes"), summarize_prime_records(table, x, eta)


def _in_s_thresholds(x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_s, n_w): s <= log N iff N >= n_s[s], and w <= 1.5 log log N iff
    N >= n_w[w], for 2 <= N <= x, with the float rule of `OrderProfile.in_s`.

    Each threshold is found once, by bisection on math.log, and the last
    entry of each is x + 1: larger s or w hold at no N <= x.
    """
    log_x = math.log(x)
    ns = range(2, x + 1)
    n_s = [
        bisect_left(ns, True, key=lambda n: k <= math.log(n)) + 2
        for k in range(int(log_x) + 2)
    ]
    n_w = [
        bisect_left(ns, True, key=lambda n: k <= 1.5 * math.log(math.log(n))) + 2
        for k in range(int(1.5 * math.log(log_x)) + 2)
    ]
    return np.array(n_s, np.int64), np.array(n_w, np.int64)


def _census_primes(m: CatMap, x: int, eta: float, lo: int):
    """The primes dividing some N in [lo, x], with per-prime data as arrays.

    Returns (primes, p - chi(p), ord(A, p), Good, Terrible, p not dividing D,
    and for each p <= sqrt(x) the list of ord(A, p**e) for 0 <= e with
    p**e <= x).  The per-prime columns come from one prime column table over
    one smallest-prime-factor sieve; only the orders for e >= 2 are lifted
    one prime power at a time, by `_order_mod_prime_power`.
    """
    spf, primes = _sieved_primes(x)
    table = _prime_table(m, x, eta, primes[x // primes * primes >= lo], spf)
    primes, chi, ords, code, _ = table.T
    power_orders = []
    for p, o in zip(primes.tolist(), ords.tolist()):
        if p * p > x:
            break
        orders, q = [1, o], p * p
        while q <= x:
            orders.append(_order_mod_prime_power(m, p, len(orders)))
            q *= p
        power_orders.append(orders)
    return (
        primes,
        primes - chi,
        ords,
        code == _GOOD,
        code == _TERRIBLE,
        chi != 0,  # chi(p) = 0 exactly where p | D
        power_orders,
    )


def _integer_columns(m: CatMap, x: int, eta: float, lo: int = 2) -> np.ndarray:
    """The integer census over [max(lo, 2), x] as one int64 column table.

    Row i of the table is modulus lo + i; its columns are the IntegerRecord
    fields in order, in_s as 0/1.  Sieve slices fill it.  Each prime p <= sqrt(x)
    takes the slice of its multiples, where the slices of its powers p^e give
    v_p(N); then one step per p updates ord (lcm with ord(A, p^v)), s, d and
    the class parts, and, where v_p is odd and p does not divide D, d0,
    prod(p - chi), lcm(p - chi) and prod ord(A, p).  What is left of N after
    that is 1 or one prime p > sqrt(x), and one vectorized step takes all of
    those.  Per-prime data come from `_census_primes`, whose sieve
    (`_sieved_primes`) needs x < 2**31.
    """
    if x < 2:
        raise ValueError(f"cutoff x must be >= 2, got {x}")
    c_eta(eta)
    lo = max(lo, 2)
    primes, cofactor, ords, good, terrible, in_d0, power_orders = _census_primes(
        m, x, eta, lo
    )
    table = np.ones((11, max(x - lo + 1, 0)), np.int64).T
    N, d, s, d0, L, order, lower_bound, ng, nb, nt, in_s = table.T
    N[:] = np.arange(lo, x + 1)
    # columns that hold running products until they are finished below
    cof_prod, d0_orders, cof_lcm = L, lower_bound, in_s
    omega = np.zeros(len(table), np.int8)

    def fold(at, i, pv, half, odd, ord_pv):
        """Multiply p**v into the N at `at`, where p = primes[i], pv = p**v,
        half = p**(v // 2), odd = p**(v % 2) and ord_pv = ord(A, p**v)."""
        order[at] = np.lcm(order[at], ord_pv)
        s[at] *= half
        d[at] *= odd
        ng[at] *= np.where(good[i], pv, 1)
        nb[at] *= np.where(good[i], 1, pv)
        nt[at] *= np.where(terrible[i], pv, 1)
        omega[at] += 1
        odd = np.where(in_d0[i], odd, 1)  # p where p | d0, else 1
        d0[at] *= odd
        cof = np.where(odd > 1, cofactor[i], 1)
        cof_prod[at] *= cof
        cof_lcm[at] = np.lcm(cof_lcm[at], cof)
        d0_orders[at] *= np.where(odd > 1, ords[i], 1)

    for i, ord_pe in enumerate(power_orders):
        p = int(primes[i])
        first = -lo % p
        at = slice(first, None, p)  # the N in range divisible by p
        v = np.ones(len(N[at]), np.int64)  # v_p(N)
        for e in range(2, len(ord_pe)):
            v[(-lo % p**e - first) // p :: p ** (e - 1)] += 1
        pe = p ** np.arange(len(ord_pe), dtype=np.int64)
        fold(at, i, pe[v], pe[v // 2], pe[v % 2], np.array(ord_pe, np.int64)[v])
    rest = ng * nb
    np.floor_divide(N, rest, out=rest)  # 1 or one prime beyond sqrt(x)
    at = np.flatnonzero(rest > 1)
    i = np.searchsorted(primes, rest[at])
    del rest  # lowers the peak memory of the fold below by 8 bytes per N
    P = primes[i]
    fold(at, i, P, 1, P, ords[i])

    L //= cof_lcm
    lower_bound //= L
    n_s, n_w = _in_s_thresholds(x)
    in_s[:] = (N >= n_s[np.minimum(s, len(n_s) - 1)]) & (
        N >= n_w[np.minimum(omega, len(n_w) - 1)]
    )
    return table


def compute_integer_records(
    m: CatMap,
    x: int,
    eta: float,
    *,
    lo: int = 2,
) -> list[IntegerRecord]:
    """Order profiles for every modulus in [max(lo, 2), x], in order.

    The column engine `_integer_columns` computes them as one int64 table;
    the records are built here, at the API edge, from that table's columns.
    x must be below 2**31.
    """
    return _records(_integer_columns(m, x, eta, lo), "integers")


def _omega_sieve(limit: int) -> np.ndarray:
    """omega(n), the number of distinct prime factors, for 0 <= n <= limit.

    A prime p <= limit // 32 counts at its multiples by one strided slice.
    Each larger prime has at most 31 multiples up to the limit, so the
    multiples j * p of all of them count in one step per j < 32.  The limit
    is a census cutoff, so it must be below 2**31 (`_check_cutoff`).
    """
    _check_cutoff(limit)
    omega = np.zeros(max(limit, 0) + 1, dtype=np.int8)
    primes = primes_up_to(limit)
    split = np.searchsorted(primes, limit // 32, side="right")
    for p in primes[:split].tolist():
        omega[p::p] += 1
    big = primes[split:]
    for j in range(1, 32):
        omega[j * big[: np.searchsorted(big, limit // j, side="right")]] += 1
    return omega


# the DecadeFractions fields of the five smallness statistics, in order
_STATS = ("big_order", "large_square", "many_factors", "all_bad", "in_s")


def _decade_bounds(x: int) -> list[int]:
    return [bound for bound in (x, x // 10, x // 100) if bound >= 2]


def _integer_counts(
    table: np.ndarray,
    x: int,
    omega: np.ndarray | None = None,
    delta_grid=DEFAULT_DELTA_GRID,
) -> Counter:
    """The counting step of `summarize_integer_records` over one integer
    column table, as a Counter of plain ints: under "count" the rows; per
    decade bound b, under (b, "count") the N <= b and under (b, stat) those
    with each statistic of `_STATS`; under an int L the moduli with that L;
    under ("growth", i) those with ord >= the i-th growth bound.  Counts of
    two tables add (Counter `+`), so a census counted in parts is finished
    once (`_integer_summary`).

    ``omega`` is `_omega_sieve` up to min(x, largest N) or beyond; by
    default it is built here.  The order is compared as float64, exact below
    2**53, so ord**2 > N is exact for N < 2**32 (an order >= 2**16 squares
    to >= 2**32 > N) and so is ord >= the float bound; N beyond the census
    bound 2**31 raises OverflowError.
    """
    N, s, L, good_part, in_s = (table[:, k] for k in (0, 2, 4, 7, 10))
    if N.max(initial=0) >= 1 << 31:
        raise OverflowError("moduli must be below 2**31")
    if omega is None:
        omega = _omega_sieve(min(x, int(N.max(initial=0))))
    order = table[:, 5].astype(np.float64)
    log_n = np.log(N)
    stats = (
        order * order > N,
        s > log_n,
        # moduli beyond x lie in no decade, so their clipped omega is unused
        omega[np.minimum(N, len(omega) - 1)] >= 1.5 * np.log(log_n),
        good_part == 1,
        in_s != 0,
    )
    counts = Counter(count=len(table))
    for bound in _decade_bounds(x):
        sub = N <= bound
        counts[bound, "count"] = int(np.count_nonzero(sub))
        for name, stat in zip(_STATS, stats):
            counts[bound, name] = int(np.count_nonzero(stat & sub))
    ls, l_counts = np.unique(L, return_counts=True)
    counts.update(dict(zip(ls.tolist(), l_counts.tolist())))
    for i, d in enumerate(delta_grid):
        counts["growth", i] = int(np.count_nonzero(order >= np.exp(log_n**d) * np.sqrt(N)))
    return counts


def _integer_summary(
    counts: Counter, x: int, eta: float, delta_grid=DEFAULT_DELTA_GRID
) -> IntegerCensusSummary:
    """The finishing step of `summarize_integer_records`: the summary of the
    counts of `_integer_counts`, summed over the tables of one census."""
    count = counts["count"]
    decades = []
    for bound in _decade_bounds(x):
        total = counts[bound, "count"]
        hits = (counts[bound, name] for name in _STATS)
        decades.append(DecadeFractions(bound, total, *(h / max(total, 1) for h in hits)))
    return IntegerCensusSummary(
        x=x,
        eta=eta,
        count=count,
        decades=tuple(decades),
        l_distribution=tuple(sorted((k, n) for k, n in counts.items() if type(k) is int)),
        growth_fractions=tuple(
            (float(d), counts["growth", i] / max(count, 1)) for i, d in enumerate(delta_grid)
        ),
        unit_skipped=True,
        failures=(),
    )


def summarize_integer_records(
    records,
    x: int,
    eta: float,
    *,
    delta_grid=DEFAULT_DELTA_GRID,
) -> IntegerCensusSummary:
    """Decade fractions of the five smallness statistics plus growth fractions.

    Per decade bound (x, x/10, x/100): the fractions of moduli with
    ord > sqrt(N), with s > log N, with omega(N) >= 1.5 * log log N, with no
    Good prime factor, and lying in the small set.  The L distribution is
    tabulated over the full range, and the growth fractions count moduli with
    ord >= sqrt(N) * exp((log N)**delta) for each delta in the grid.

    ``records`` is an iterable of IntegerRecord or an integer column table
    (see `_integer_columns`); records are read once into such a table.  The
    summary is the finishing step (`_integer_summary`) of the counting step
    (`_integer_counts`) over that table, with one `_omega_sieve` up to
    min(x, largest N); a census counted in parts gets the same summary.
    ``unit_skipped`` is always True and ``failures`` always empty, since no
    modulus of a census can fail; both stay in the printed summary, which
    the benchmark compares key for key with its references.
    """
    table = records if isinstance(records, np.ndarray) else _records_table(records, "integers")
    counts = _integer_counts(table, x, delta_grid=delta_grid)
    return _integer_summary(counts, x, eta, delta_grid)


def integer_census(
    m: CatMap, x: int, eta: float
) -> tuple[list[IntegerRecord], IntegerCensusSummary]:
    """Profile every modulus 2..x (N = 1 is skipped and flagged)."""
    table = _integer_columns(m, x, eta)
    return _records(table, "integers"), summarize_integer_records(table, x, eta)


def small_order_report(m: CatMap, k_max: int) -> tuple[list[SmallOrderRow], list[int]]:
    """Moduli N_k with ord(A, N_k) <= k, for k = 2..k_max.

    N_k is extracted from the k-th power of the map; rows with N_k = 1 are
    dropped, and k values whose factorization of det(A^k - I) timed out are
    returned in the failure list.  ``order_over_log`` = ord / log N_k
    measures how slowly the order grows compared to log N_k.
    """
    rows: list[SmallOrderRow] = []
    failures: list[int] = []
    for k in range(2, k_max + 1):
        try:
            sof = small_order_modulus(m, k)
        except FactorizationTimeout:
            failures.append(k)
            continue
        if sof.degenerate:
            continue
        # small_order_modulus leaves A^k = I mod N_k, so k is a multiple of the order
        order = order_dividing(m, sof.N_k, k)
        rows.append(
            SmallOrderRow(k, sof.N_k, order, order / math.log(sof.N_k), sof.certified)
        )
    return rows, failures


def quantum_sweep(
    m: CatMap,
    sizes,
    f: Observable,
    n,
    *,
    timing: bool = False,
    dense_limit: int = DENSE_DIMENSION_LIMIT,
) -> tuple[list[SweepRecord], list[tuple[int, str]]]:
    """Propagator spectra over a list of dimensions, one SweepRecord each.

    For every dimension: the propagator's spectrum (`propagator_spectrum`),
    the fourth moment at frequency n with its ceiling, the variance of the
    observable f, and the largest diagonal element of the pure harmonic at n.
    The ratio s4/bound never exceeds 1 and max_dev**4 <= bound is re-checked
    per record.  Dimensions that fail (beyond the dense cutoff, degenerate
    frequency, a construction or spectrum check) are reported in the failure
    list and do not abort the sweep.  ``ms`` stays 0 unless ``timing`` is
    set, so default sweeps are deterministic byte-for-byte.
    """
    n1, n2 = int(n[0]), int(n[1])
    records: list[SweepRecord] = []
    failures: list[tuple[int, str]] = []
    for N in sizes:
        N = int(N)
        if N > dense_limit:
            failures.append((N, f"dimension beyond dense limit {dense_limit}"))
            continue
        began = perf_counter()
        try:
            eigsys = propagator_spectrum(m, N)
            moment = fourth_moment(m, N, (n1, n2), eigsys=eigsys)
            variance = variance_stat(m, N, f, eigsys=eigsys)
        except (CatmapError, ValueError) as exc:
            failures.append((N, f"{type(exc).__name__}: {exc}"))
            continue
        ratio, dev = moment.s4 / moment.bound, moment.max_dev
        slack = 1 + 1e-6
        if ratio > slack or dev**4 > moment.bound * slack:
            raise AssertionError(
                f"fourth-moment ceiling violated at N={N}: "
                f"ratio={ratio!r}, max_dev={dev!r}"
            )
        elapsed = int((perf_counter() - began) * 1000) if timing else 0
        records.append(
            SweepRecord(
                N,
                n1,
                n2,
                moment.s4,
                moment.bound,
                ratio,
                variance,
                dev,
                eigsys.scalar_period,
                elapsed,
            )
        )
    return records, failures


# ---------------------------------------------------------------------------
# storage


# kind -> (record class, ((column, cell type), ...)), columns in field order
_SCHEMA = {
    "primes": (
        PrimeRecord,
        (
            ("p", int), ("chi", int), ("ord", int), ("class", PrimeClass),
            ("exceeds", bool),
        ),
    ),
    "integers": (
        IntegerRecord,
        (
            ("N", int), ("d", int), ("s", int), ("d0", int), ("L", int), ("ord", int),
            ("lower_bound", int), ("NG", int), ("NB", int), ("NT", int), ("in_S", bool),
        ),
    ),
    "sweep": (
        SweepRecord,
        (
            ("N", int), ("n1", int), ("n2", int), ("S4", float), ("bound", float),
            ("ratio", float), ("variance", float), ("max_dev", float), ("rstar", int),
            ("ms", int),
        ),
    ),
}

class _Cell(NamedTuple):
    """How one cell type is stored: CSV template and parser, JSON value, and,
    for the types a column table holds, its int64 column as stored cells and
    as record fields, and a stored cell as its int64 code (None: the cell)."""

    template: str
    parse: Callable
    to_json: Callable
    table_cells: Callable | None = None
    table_fields: Callable | None = None
    code: Callable | None = None


_CLASS_VALUES = np.array([c.value for c in _CLASSES], dtype=object)
_CLASS_OBJECTS = np.array(_CLASSES, dtype=object)

# A class is stored as its value string, a flag as 0/1; floats keep 17
# significant digits in CSV, so they read back bit-exact.
_CELL_TYPES = {
    int: _Cell("%d", int, int, np.ndarray.tolist, np.ndarray.tolist),
    float: _Cell("%.17g", float, float),
    bool: _Cell(
        "%d", lambda cell: bool(int(cell)), bool,
        np.ndarray.tolist, lambda col: (col != 0).tolist(),
    ),
    PrimeClass: _Cell(
        "%s", PrimeClass, str,
        lambda col: _CLASS_VALUES[col].tolist(), lambda col: _CLASS_OBJECTS[col].tolist(),
        {c.value: i for i, c in enumerate(_CLASSES)}.__getitem__,
    ),
}


class _Layout:
    """One record kind's stored layout, derived from its _SCHEMA entry."""

    def __init__(self, record: type, spec):
        self.record = record
        self.columns = tuple(name for name, _ in spec)
        self.types = tuple(t for _, t in spec)
        cells = [_CELL_TYPES[t] for _, t in spec]
        self.row = ",".join(c.template for c in cells) + "\n"
        self.parsers = tuple(c.parse for c in cells)
        self.to_json = tuple(c.to_json for c in cells)
        self.table_cells = tuple(c.table_cells for c in cells)
        self.table_fields = tuple(c.table_fields for c in cells)
        self.codes = tuple(c.code for c in cells)
        # a record's stored cells: its field values in column order, a class
        # as its value string
        self.values = operator.attrgetter(
            *(
                f.name + (".value" if t is PrimeClass else "")
                for f, (_, t) in zip(dataclasses.fields(record), spec)
            )
        )

    def rows(self, records):
        """The stored cells of each record, or of each row of a column table."""
        if isinstance(records, np.ndarray):
            return _table_rows(records, self.table_cells)
        return map(self.values, records)

    def parse(self, cells: list[str]):
        return self.record(*[parse(c) for parse, c in zip(self.parsers, cells)])

    def json_value(self, values) -> dict:
        return {
            name: to_json(v) for name, to_json, v in zip(self.columns, self.to_json, values)
        }


_LAYOUTS = {kind: _Layout(*entry) for kind, entry in _SCHEMA.items()}
_KIND_OF = {lay.record: kind for kind, lay in _LAYOUTS.items()}
# the kinds a column table can hold, by table width
_TABLE_KINDS = {
    len(lay.columns): kind for kind, lay in _LAYOUTS.items() if None not in lay.table_cells
}

_CHUNK_ROWS = 1 << 16
# rows per block of `_csv_body`: its grid of bytes stays near 200 kB
_CSV_ROWS = 1 << 12
# 10**k for each digit of an int64 cell
_POWERS_OF_TEN = np.uint64(10) ** np.arange(19, dtype=np.uint64)
# column i holds the stored bytes of class code i, padded with zero bytes
_CLASS_BYTES = np.array([c.value for c in _CLASSES], "S").view(np.uint8).reshape(len(_CLASSES), -1).T


def _table_rows(table: np.ndarray, convert):
    """The rows of a column table as tuples, each column converted to Python
    values by its function in `convert`, 65,536 rows at a time."""
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = table[start : start + _CHUNK_ROWS].T
        yield from zip(*(f(column) for f, column in zip(convert, chunk)))


def _csv_body(table: np.ndarray, types) -> bytes:
    """The CSV rows of an int64 column table whose columns hold cells of
    these types (int, bool or PrimeClass): the bytes of the `%` template
    (`_template_body`), built in one grid of bytes, not one format per row.

    The grid holds a row per character slot and a column per table row.
    Each table column takes the slots of its widest cell: its digits fill
    them from the right, least significant first, a `-` goes in front of a
    negative cell's first digit, and a class code is looked up in
    `_CLASS_BYTES`; a `,` or the newline follows.  Zero bytes pad the
    narrower cells, and the rows are the grid's other bytes read row by row.
    """
    columns = table.T
    widths = [
        len(_CLASS_BYTES)
        if cell is PrimeClass
        else max(len(str(col.max(initial=0))), len(str(col.min(initial=0))))
        for col, cell in zip(columns, types)
    ]
    grid = np.zeros((sum(widths) + len(widths), len(table)), np.uint8)
    end = 0
    for col, cell, width in zip(columns, types, widths):
        start, end = end, end + width
        if cell is PrimeClass:
            grid[start:end] = _CLASS_BYTES[:, col]
        else:
            # q[j] = |cell| // 10**(n - 1 - j), the cell's digits down to slot
            # end - n + j, is 0 over the padding
            n = min(width, len(_POWERS_OF_TEN))
            dtype = np.uint32 if n <= 9 else np.uint64  # |int64 min| wraps to 2**63
            q = np.abs(col).astype(dtype) // _POWERS_OF_TEN[n - 1 :: -1, None].astype(dtype)
            live = q != 0
            live[-1] = True  # the units digit, also of 0
            q[1:] -= q[:-1] * dtype(10)  # each slot's own digit
            cells = grid[end - n : end]
            cells[:] = q
            cells += live * np.uint8(ord("0"))
            neg = np.flatnonzero(col < 0)
            if len(neg):
                grid[end - 1 - np.count_nonzero(live[:, neg], axis=0), neg] = ord("-")
        grid[end] = ord(",")
        end += 1
    grid[end - 1] = ord("\n")
    return grid.T.tobytes().translate(None, b"\0")


def _template_body(records, kind: str) -> bytes:
    """The CSV rows of records, or of a column table, one `%` format of the
    kind's row template each: how sweeps are written, and the oracle of
    `_csv_body`."""
    layout = _LAYOUTS[kind]
    return "".join(map(layout.row.__mod__, layout.rows(records))).encode()


def _records(table: np.ndarray, kind: str) -> list:
    """The records of a column table of this kind."""
    layout = _LAYOUTS[kind]
    return list(starmap(layout.record, _table_rows(table, layout.table_fields)))


def _records_table(records, kind: str) -> np.ndarray:
    """The column table of one kind's records, with one read of each record.

    A value beyond int64 raises OverflowError.
    """
    layout = _LAYOUTS[kind]
    recs = list(records)
    table = np.empty((len(layout.columns), len(recs)), np.int64)
    for column, cells, code in zip(table, zip(*map(layout.values, recs)), layout.codes):
        column[:] = np.fromiter(cells if code is None else map(code, cells), np.int64, len(recs))
    return table.T


def _json_records(records, kind: str | None = None) -> list[dict]:
    """The JSON values of records, or of a column table, as stored."""
    if not isinstance(records, np.ndarray):
        records = list(records)
    layout = _LAYOUTS[_infer_kind(records, kind)]
    return [layout.json_value(values) for values in layout.rows(records)]


def _from_json_value(kind: str, obj: dict):
    lay = _LAYOUTS[kind]
    try:
        cells = []
        for name in lay.columns:
            v = obj[name]
            if isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, float):
                cells.append(format(v, ".17g"))
            else:
                cells.append(str(v))
        return lay.parse(cells)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaMismatch(f"bad {kind} record {obj!r}: {exc}") from exc


def _infer_kind(records, kind: str | None) -> str:
    """The kind of a list of records or of a column table."""
    if isinstance(records, np.ndarray):
        if records.dtype != np.int64:  # `_csv_body` reads int64 cells only
            raise TypeError(f"a column table must be int64, got {records.dtype}")
        got = _TABLE_KINDS.get(records.shape[1]) if records.ndim == 2 else None
        if got is None or kind not in (None, got):
            raise TypeError(f"a column table of shape {records.shape} is not of kind {kind!r}")
        return got
    if kind is None:
        if not records:
            raise ValueError("cannot infer the record kind of an empty stream")
        kind = _KIND_OF.get(type(records[0]))
        if kind is None:
            raise TypeError(f"unknown record type {type(records[0]).__name__}")
    if kind not in _LAYOUTS:
        raise ValueError(f"unknown record kind {kind!r}")
    for rec in records:
        if _KIND_OF.get(type(rec)) != kind:
            raise TypeError(f"record {rec!r} does not belong to kind {kind!r}")
    return kind


def _header_line(kind: str, config) -> str:
    items = {str(k): str(v) for k, v in (config or {}).items()}
    items["kind"] = kind
    for k, v in items.items():  # each item must read back through _parse_header
        if "=" in k or any(bad in f"{k}={v}" for bad in ("; ", "\n")):
            raise ValueError(f"config item {k}={v!r} cannot be stored in a CSV header")
    joined = "; ".join(f"{k}={items[k]}" for k in sorted(items))
    return f"#{FORMAT_TAG}; {joined}"


def _text(raw: bytes) -> str:
    """Stored bytes as UTF-8 text; bytes that are not raise SchemaMismatch."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"stored bytes are not UTF-8 text: {exc}") from exc


def _parse_header(line: str) -> dict[str, str]:
    if not line.startswith("#"):
        raise SchemaMismatch(f"missing header comment, got {line[:40]!r}")
    parts = line[1:].rstrip("\n").split("; ")
    if parts[0] != FORMAT_TAG:
        raise SchemaMismatch(f"unsupported format tag {parts[0]!r}")
    config: dict[str, str] = {}
    for part in parts[1:]:
        if part and "=" in part:
            k, _, v = part.partition("=")
            config[k] = v
    return config


def _stored_end(fh) -> int:
    """The offset just past the last newline of a file open for binary
    reading (0 if it has none), where its stored lines end.  Scans back in
    1 MiB chunks, so a tail of any length (say, zeros left by a crash) goes
    by one chunk at a time."""
    pos = fh.seek(0, os.SEEK_END)
    while pos > 0:
        step = min(pos, 1 << 20)
        pos = fh.seek(pos - step)
        cut = fh.read(step).rfind(b"\n")
        if cut >= 0:
            return pos + cut + 1
    return 0


def _trim_partial_tail(path) -> None:
    """Drop a trailing line without its newline (interrupted append); every
    complete line before it stays (see `_stored_end`)."""
    with open(path, "rb+") as fh:
        end = _stored_end(fh)
        if end < fh.seek(0, os.SEEK_END):
            fh.truncate(end)


def can_append(path, kind: str, config=None) -> bool:
    """Whether the CSV at path has stored its header and column line, so rows
    of this kind and config can be appended after its stored rows.

    False for a missing file or one cut off before the column line's newline,
    which a CSV append rewrites from scratch.  A stored header or column line
    that differs raises SchemaMismatch; the file is only read.
    """
    try:
        with open(path, "rb") as fh:
            stored = [fh.readline() for _ in range(2)]
    except FileNotFoundError:
        return False
    if not stored[1].endswith(b"\n"):
        return False
    for what, line, want in (
        ("header", stored[0], _header_line(kind, config)),
        ("columns", stored[1], ",".join(_LAYOUTS[kind].columns)),
    ):
        got = _text(line[:-1])
        if got != want:
            raise SchemaMismatch(f"cannot append: {what} {got!r} != {want!r}")
    return True


@dataclass(frozen=True)
class LoadedResults:
    kind: str
    config: dict
    records: tuple

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def store_results(
    records,
    path,
    *,
    kind: str | None = None,
    config=None,
    fmt: str | None = None,
    append: bool = False,
) -> int:
    """Write records to path as CSV (default) or JSON; returns rows written.

    `records` is a list of one kind's records or a prime or integer column
    table (see `_prime_columns`, `_integer_columns`); both are stored alike.
    CSV appending is resume-safe: an existing file is checked for a matching
    header and column line before it is touched (see `can_append`), a
    partially written final line is discarded, and new rows are added after
    the surviving ones.  JSON is whole-document only.

    Census rows go to CSV through `_csv_body`, 4,096 rows at a time; census
    records are read into a column table first, so a value beyond int64
    raises OverflowError before the file is touched.  Sweep rows go through
    their `%` template (`_template_body`).
    """
    if not isinstance(records, np.ndarray):
        records = list(records)
    kind = _infer_kind(records, kind)
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if fmt == "json":
        if append:
            raise ValueError("JSON storage is whole-document; append is not supported")
        doc = {
            "version": FORMAT_TAG,
            "kind": kind,
            "config": {str(k): str(v) for k, v in (config or {}).items()},
            "records": _json_records(records, kind),
        }
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        return len(records)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")

    layout = _LAYOUTS[kind]
    if kind != "sweep" and not isinstance(records, np.ndarray):
        records = _records_table(records, kind)  # a cell beyond int64 raises here
    # a config the header cannot hold, or a mismatched file, raises first
    header = _header_line(kind, config)
    fresh = not (append and can_append(path, kind, config))
    if not fresh:
        _trim_partial_tail(path)
    with open(path, "wb" if fresh else "ab") as fh:
        if fresh:
            fh.write(f"{header}\n{','.join(layout.columns)}\n".encode())
        if kind == "sweep":
            fh.write(_template_body(records, kind))
        else:
            for start in range(0, len(records), _CSV_ROWS):
                fh.write(_csv_body(records[start : start + _CSV_ROWS], layout.types))
    return len(records)


def _load_json(blob: bytes) -> LoadedResults:
    try:
        doc = json.loads(blob)
    except ValueError as exc:  # bytes that are not UTF-8, or not one JSON document
        raise SchemaMismatch(f"not a JSON document: {exc}") from exc
    if doc.get("version") != FORMAT_TAG:
        raise SchemaMismatch(f"unsupported format tag {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in _LAYOUTS:
        raise SchemaMismatch(f"unknown record kind {kind!r}")
    records, config = doc.get("records", []), doc.get("config", {})
    if not isinstance(records, list) or not isinstance(config, dict):
        raise SchemaMismatch("a JSON document needs a list of records and a config object")
    return LoadedResults(kind, config, tuple(_from_json_value(kind, obj) for obj in records))


def _parse_rows(kind: str, body: bytes) -> list:
    """One record per stored row; a row that does not parse raises
    SchemaMismatch naming its line number in the file."""
    layout = _LAYOUTS[kind]
    want = len(layout.columns)
    records = []
    for i, line in enumerate(_text(body).split("\n")[:-1], start=3):
        cells = line.split(",")
        try:
            if len(cells) != want:
                raise ValueError(f"expected {want} cells, got {len(cells)}")
            records.append(layout.parse(cells))
        except (ValueError, IndexError) as exc:
            raise SchemaMismatch(f"bad row {i}: {line!r}: {exc}") from exc
    return records


# The bytes of a body numpy may parse: its integer parser reads some letters as
# digits (U+01FE as 462) and the ASCII separators 0x1c-0x1f as spaces.
_TABLE_BYTES = b"0123456789-,\n" + "".join(c.value for c in _CLASSES).encode()


def _parse_table(kind: str, body: bytes) -> np.ndarray | None:
    """The stored rows of a census as one int64 column table, parsed in one
    numpy pass, or None when some row needs `_parse_rows` (which names a bad
    row).

    Only bodies of `_TABLE_BYTES` take this path, and numpy must give one
    row per newline (it skips blank lines).  The class column goes through
    its `_Cell.code`, and flags read as 0/1, as bool(int(cell)) does.
    """
    spec = _SCHEMA[kind][1]
    if not body:  # numpy warns on no data, as it does on blank lines only
        return np.empty((0, len(spec)), np.int64)
    rows = body.count(b"\n")
    if rows == len(body) or body.translate(None, _TABLE_BYTES):
        return None
    codes = {i: code for i, code in enumerate(_LAYOUTS[kind].codes) if code}
    try:
        table = np.loadtxt(io.BytesIO(body), np.int64, delimiter=",", ndmin=2, converters=codes)
    except ValueError:  # a cell that is not an int64 or a class name
        return None
    if table.shape != (rows, len(spec)):
        return None
    for column, (_, cell) in zip(table.T, spec):
        if cell is bool:
            column[:] = column != 0
    return table


def _stored_rows(fh) -> tuple[str, dict, np.ndarray | list]:
    """(kind, config, rows) of a CSV open for binary reading, its header and
    column line checked: the one reader of stored rows.

    The rows are the complete lines after the column line; a final line
    without its newline (cut off mid-write) is left out.  The header and the
    column line are read by `readline`, and the body by one `read` that ends
    at the last newline (`_stored_end`), so the body is the one copy of the
    stored bytes held while it is parsed.  For a census, rows is one int64
    column table: `_parse_table` reads it in one numpy pass, and where it
    cannot, the row parser `_parse_rows` names the bad row (a cell beyond
    int64 raises SchemaMismatch too).  For a sweep, rows is the list of its
    records.
    """
    end = _stored_end(fh)
    if not end:
        raise SchemaMismatch("empty file")
    fh.seek(0)
    config = _parse_header(_text(fh.readline()[:-1]))
    kind = config.pop("kind", None)
    if fh.tell() == end:
        raise SchemaMismatch("missing column line")
    by_columns = {",".join(v.columns): k for k, v in _LAYOUTS.items()}
    columns = _text(fh.readline()[:-1])
    col_kind = by_columns.get(columns)
    if col_kind is None:
        raise SchemaMismatch(f"unknown column set {columns!r}")
    if kind is not None and kind != col_kind:
        raise SchemaMismatch(f"header kind {kind!r} does not match columns {col_kind!r}")
    body = fh.read(end - fh.tell())
    if col_kind == "sweep":
        return col_kind, config, _parse_rows(col_kind, body)
    table = _parse_table(col_kind, body)
    if table is None:
        try:
            table = _records_table(_parse_rows(col_kind, body), col_kind)
        except OverflowError as exc:
            raise SchemaMismatch(f"a stored value exceeds int64: {exc}") from exc
    return col_kind, config, table


def load_results(path) -> LoadedResults:
    """Read a stored census back; the inverse of store_results.

    Only stored rows count: a final CSV line without its newline (cut off
    mid-write) is left out, and any stored row that does not parse raises
    SchemaMismatch.  JSON files are detected by their leading brace.  A CSV's
    rows come from `_stored_rows`; a census's records are built from the
    columns of its table.
    """
    with open(path, "rb") as fh:
        if fh.peek(1)[:1] == b"{":  # a JSON document
            return _load_json(fh.read())
        kind, config, rows = _stored_rows(fh)
    records = rows if kind == "sweep" else _records(rows, kind)
    return LoadedResults(kind, config, tuple(records))


def _load_table(path, kind: str) -> np.ndarray:
    """The stored rows of a census CSV of this kind as one int64 column
    table, read by `_stored_rows` as `load_results` reads them: the table
    and one copy of the stored body are all it holds."""
    with open(path, "rb") as fh:
        stored, _, table = _stored_rows(fh)
    if stored != kind:
        raise SchemaMismatch(f"not a census of {kind}: {stored!r} rows")
    return table


def resume_point(path) -> int | None:
    """Largest key already stored at path, or None if nothing usable survives.

    Only stored rows count, so a file truncated mid-write (even inside the
    header or the column line) reports the last fully stored key.  The rows
    are read as `load_results` reads them, by `_stored_rows` with one copy of
    the stored body: a complete but alien header or column line, or any
    stored row that does not parse, raises SchemaMismatch.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        if fh.peek(1)[:1] == b"{":
            return max((r.key for r in _load_json(fh.read()).records), default=None)
        header, columns = fh.readline(), fh.readline()
        if not columns.endswith(b"\n"):  # cut inside the header or the column line
            if header.endswith(b"\n"):
                _parse_header(_text(header[:-1]))
            return None
        kind, _, rows = _stored_rows(fh)
    if kind == "sweep":
        return max((r.key for r in rows), default=None)
    return int(rows[:, 0].max()) if len(rows) else None
