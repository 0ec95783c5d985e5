"""Large-scale order censuses and eigenfunction sweeps, with resumable storage.

Three kinds of tabulated records:

* ``PrimeRecord`` -- per-prime order data with the Good/Bad/Terrible class,
  produced by :func:`prime_census`;
* ``IntegerRecord`` -- the order profile of every modulus up to a cutoff,
  produced by :func:`integer_census`;
* ``SweepRecord`` -- spectral statistics of the quantized map over a list of
  dimensions, produced by :func:`quantum_sweep`.

Records go to disk as CSV (one header comment line, one column line, then one
row per record) or as a JSON document with the same column names, which
`_SCHEMA` states once per kind; a column's cell type is the annotation of its
field in the record class.  A CSV row is stored once its newline is written:
every reader ignores a final line without one, the trace of an interrupted
write.  So CSV files can be appended to and survive truncation mid-row:
:func:`store_results` with ``append=True`` writes at the stored end that
:func:`can_append` finds, over that partial line, and :func:`resume_point`
reports the largest key already stored.

Both censuses are computed, stored (in CSV and JSON alike), read back and
summarized as int64 column tables (:func:`_prime_columns`,
:func:`_integer_columns`, :func:`_load_table`): one row per record, one column
per field, the prime class as a code and flags as 0/1.  A summary counts over
one table (`_prime_counts`, `_integer_counts`), in counts that add across
tables, and divides once when it is finished (`_prime_summary`,
`_integer_summary`), so a resumed census is summarized without joining its
stored and new tables.  One function runs a census, `_run_census` (resume,
compute, store, count, finish), for the CLI and for :func:`prime_census` and
:func:`integer_census`.  Stored bytes become rows in one place,
`_stored_rows`, so every reader accepts and rejects the same files: a JSON
document is read as the CSV rows it prints as, and an append reads a CSV's
head as every reader does (`_csv_head`).  A census body is read in one numpy
pass (`_parse_table`); the per-row parser `_parse_rows` reads sweeps and any
body numpy cannot take.  Census rows are written by one numpy kernel,
`_csv_body`, and sweep rows by their `%` template.
``PrimeRecord`` and ``IntegerRecord`` objects are built from the columns only
where the API returns records: by the two censuses and :func:`load_results`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import operator
import os
import pickle
import threading
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from time import perf_counter
from typing import TYPE_CHECKING, Callable, NamedTuple, get_type_hints

import numpy as np

from .arith import CatMap, _power_content, _power_is_identity, order_dividing, primes_up_to
from .errors import CatmapError, ConstructionFailed, SchemaMismatch
from .quadorder import (
    PrimeClass,
    _check_eta,
    _order_class,
    _prime_data,
    _prime_orders,
    _smallest_prime_factors,
)

if TYPE_CHECKING:
    from .quantum import Observable

FORMAT_TAG = "catmap-census v1"
# the exponents delta of the growth fractions of an integer census summary
DELTA_GRID = (0.05, 0.1, 0.2, 0.3)
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
    """ord(A, N_k) <= k for N_k, the gcd of the entries of A^k - I."""

    k: int
    modulus: int
    order: int
    order_over_log: float
    certified: bool  # always True: N_k is exact; kept for the stdout layout


def c_eta(eta: float) -> float:
    """Asymptotic lower density (3 - 5*eta) / (2 - 2*eta) of exceeding primes."""
    _check_eta(eta)
    return (3 - 5 * eta) / (2 * (1 - eta))


# ---------------------------------------------------------------------------
# censuses


# the PrimeClass of each class code in a prime column table
_CLASSES = tuple(PrimeClass)
_GOOD, _BAD, _TERRIBLE = range(3)
# the PrimeCensusSummary fields that count primes: all, exceeding, each class
_PRIME_COUNTS = tuple(f.name for f in dataclasses.fields(PrimeCensusSummary) if "_count" in f.name)
_CUTOFF_BOUND = 1 << 31  # both censuses take x below it (`_check_cutoff`)


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
    _check_eta(eta)
    spf, primes = _sieved_primes(x)
    return _prime_table(m, x, eta, primes[primes >= lo], spf)


def _check_cutoff(x: int) -> None:
    """The one cutoff bound of both censuses, checked before any sieve up to
    x is built: x must be below `_CUTOFF_BOUND` = 2**31, since the
    smallest-prime-factor sieve is int32."""
    if x >= _CUTOFF_BOUND:
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


def _tail_bounds(x: int) -> list[float]:
    return [float(x) ** expo for expo in (0.2, 0.3, 0.4)]


def _prime_counts(table: np.ndarray, x: int) -> Counter:
    """The counting step of `summarize_prime_records` over one prime column
    table, as a Counter of plain ints: under the names of `_PRIME_COUNTS`
    the primes, the exceedances and each class, and under ("tail", y) the
    orders <= y for each tail bound y.  Counts of two tables add (Counter
    `+`), so a census counted in parts is finished once (`_prime_summary`)."""
    order = table[:, 2]
    classes = np.bincount(table[:, 3], minlength=len(_CLASSES)).tolist()
    exceed = int(np.count_nonzero(table[:, 4]))
    counts = Counter(dict(zip(_PRIME_COUNTS, [len(table), exceed, *classes], strict=True)))
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
        fraction=exceed / total if total else 0.0,
        c_eta=c_eta(eta),
        tails=tuple(TailCount(y, counts["tail", y], y * y) for y in _tail_bounds(x)),
        failures=(),
        **{name: counts[name] for name in _PRIME_COUNTS},
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
    table, summary = _run_census(m, "primes", x, eta)
    return _records(table, "primes"), summary


def _census_primes(m: CatMap, x: int, eta: float, lo: int):
    """The primes dividing some N in [lo, x], with per-prime data as arrays.

    Returns (primes, p - chi(p), ord(A, p), Good, Terrible, p not dividing D,
    and for each p <= sqrt(x) the list of ord(A, p**e) for 0 <= e with
    p**e <= x).  The per-prime columns come from one prime column table over
    one smallest-prime-factor sieve; the orders for e >= 2 are lifted from
    ord(A, p) up one chain of powers, by the rule of `_order_mod_prime_power`:
    ord(A, p**e) is ord(A, p**(e-1)) or p times it.
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
            if not _power_is_identity(m, o, q):
                o *= p
            orders.append(o)
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
    (`_sieved_primes`) needs x < 2**31.  in_s is the float rule of
    `OrderProfile.in_s` on np.log: for N < 2**31, log N and 1.5 log log N lie
    >= 1e-11 (relative) from every integer, so any log good to a few ULPs agrees.
    """
    if x < 2:
        raise ValueError(f"cutoff x must be >= 2, got {x}")
    _check_eta(eta)
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
    log_n = np.log(N)
    in_s[:] = (s <= log_n) & (omega <= 1.5 * np.log(log_n))
    return table


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


# the five smallness statistics: the DecadeFractions fields after bound, count
_STATS = tuple(f.name for f in dataclasses.fields(DecadeFractions))[2:]


def _decade_bounds(x: int) -> list[int]:
    return [bound for bound in (x, x // 10, x // 100) if bound >= 2]


def _integer_counts(table: np.ndarray, x: int, omega: np.ndarray | None = None) -> Counter:
    """The counting step of `summarize_integer_records` over one integer
    column table, as a Counter of plain ints: under "count" the rows; per
    decade bound b, under (b, "count") the N <= b and under (b, stat) those
    with each statistic of `_STATS`; under an int L the moduli with that L;
    under ("growth", delta) those with ord >= sqrt(N) * exp((log N)**delta)
    for each delta of `DELTA_GRID`.  Counts of two tables add (Counter `+`),
    so a census counted in parts is finished once (`_integer_summary`).

    ``omega`` is `_omega_sieve` up to min(x, largest N) or beyond; by
    default it is built here.  The order is compared as float64, exact below
    2**53, so ord**2 > N is exact for N < 2**32 (an order >= 2**16 squares
    to >= 2**32 > N) and so is ord >= the float bound; N beyond the census
    bound 2**31 raises OverflowError.
    """
    N, s, L, good_part, in_s = (table[:, k] for k in (0, 2, 4, 7, 10))
    if N.max(initial=0) >= _CUTOFF_BOUND:
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
    for d in DELTA_GRID:
        counts["growth", d] = int(np.count_nonzero(order >= np.exp(log_n**d) * np.sqrt(N)))
    return counts


def _integer_summary(counts: Counter, x: int, eta: float) -> IntegerCensusSummary:
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
            (float(d), counts["growth", d] / max(count, 1)) for d in DELTA_GRID
        ),
        unit_skipped=True,
        failures=(),
    )


def summarize_integer_records(records, x: int, eta: float) -> IntegerCensusSummary:
    """Decade fractions of the five smallness statistics plus growth fractions.

    Per decade bound (x, x/10, x/100): the fractions of moduli with
    ord > sqrt(N), with s > log N, with omega(N) >= 1.5 * log log N, with no
    Good prime factor, and lying in the small set.  The L distribution is
    tabulated over the full range, and the growth fractions count moduli with
    ord >= sqrt(N) * exp((log N)**delta) for each delta in `DELTA_GRID`.

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
    return _integer_summary(_integer_counts(table, x), x, eta)


def _resume_after(keys: np.ndarray, primes: bool, x: int) -> int:
    """The first key a resumed census computes, after stored keys that must be
    the start of what a fresh run writes: N = 2..k, or the primes <= k, with
    k <= x.  Other keys raise SchemaMismatch."""
    k = int(keys[-1]) if len(keys) else 1
    if k <= x and np.array_equal(keys, primes_up_to(k) if primes else np.arange(2, k + 1)):
        return k + 1
    what = "the primes <= k" if primes else "N = 2..k"
    raise SchemaMismatch(f"cannot resume: stored keys must be {what} with k <= x = {x}")


def _run_census(
    m: CatMap, kind: str, x: int, eta: float, path=None, *, fmt="csv", config=None, resume=False
) -> tuple[np.ndarray, PrimeCensusSummary | IntegerCensusSummary]:
    """One census run of kind "primes" or "integers": (new rows, summary).

    A CSV resume checks the stored header and keys before any work, the
    omega sieve too, so a mismatched or corrupt file fails unchanged; the new
    rows start after the last stored key and are stored at path if given.
    The summary adds the counts of both tables, the stored one dropped first.
    """
    _check_eta(eta)  # an eta out of range fails before any sieve is built
    primes = kind == "primes"
    stored, lo = None, 2
    resuming = bool(resume and path and fmt == "csv")
    if resuming and can_append(path, kind, config):
        stored = _load_table(path, kind)
        lo = _resume_after(stored[:, 0], primes, x)
    if primes:
        columns, finish = _prime_columns, _prime_summary
        count = partial(_prime_counts, x=x)
    else:
        # one omega sieve up to x serves the stored rows and the new ones
        columns, finish = _integer_columns, _integer_summary
        count = partial(_integer_counts, x=x, omega=_omega_sieve(x))
    counts = Counter() if stored is None else count(stored)
    del stored  # dropped before the new rows are computed
    table = columns(m, x, eta, lo)
    if path:
        store_results(table, path, kind=kind, config=config, fmt=fmt, append=resuming)
    counts += count(table)
    return table, finish(counts, x, eta)


def integer_census(
    m: CatMap, x: int, eta: float
) -> tuple[list[IntegerRecord], IntegerCensusSummary]:
    """Profile every modulus 2..x (N = 1 is skipped and flagged)."""
    table, summary = _run_census(m, "integers", x, eta)
    return _records(table, "integers"), summary


def small_order_report(m: CatMap, k_max: int) -> tuple[list[SmallOrderRow], list[int]]:
    """Moduli N_k with ord(A, N_k) <= k, for k = 2..k_max.

    N_k is the gcd of the entries of A^k - I, the largest N with A^k = I
    mod N, so nothing is factored and the failure list is always empty.
    ``order_over_log`` = ord / log N_k measures how slowly the order grows
    compared to log N_k.
    """
    rows: list[SmallOrderRow] = []
    for k in range(2, k_max + 1):
        n_k = _power_content(m, k)
        if n_k == 1:  # never at k >= 2, but ord / log 1 would divide by zero
            continue
        # A^k = I mod N_k, so k is a multiple of the order
        order = order_dividing(m, n_k, k)
        rows.append(SmallOrderRow(k, n_k, order, order / math.log(n_k), True))
    return rows, []


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
    per record; a record above that ceiling raises ConstructionFailed and
    aborts the sweep.  Dimensions that fail (beyond the dense cutoff, degenerate
    frequency, a construction or spectrum check) are reported in the failure
    list and do not abort the sweep.  ``ms`` stays 0 unless ``timing`` is
    set, so default sweeps are deterministic byte-for-byte.

    The dimensions run in forked processes, one per usable CPU and pinned to
    it (no fork while another Python thread runs), with byte-identical rows
    merged in ``sizes`` order.  The earliest size's exception is raised, a
    dead child's as CatmapError, and every child is reaped and this thread's
    CPU affinity restored before this returns or raises.
    """
    from . import quantum  # noqa: F401  (loaded once, before any fork)
    sizes = [int(N) for N in sizes]
    row = partial(_sweep_row, m, f, int(n[0]), int(n[1]), timing, dense_limit)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    k = max(1, min(len(cpus) if threading.active_count() == 1 else 1, len(sizes)))
    children = []  # (pid, read end) of each forked child; child j computes sizes[j::k]
    try:
        for j in range(1, k):
            children.append(_fork_share(row, sizes[j::k], cpus[j]))
        if k > 1:  # unpinned, a child and its parent can share one CPU for the whole sweep
            _pin(cpus[:1])
        shares = [_sweep_share(row, sizes[0::k])] + [fh.read() for _, fh in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, 9)  # SIGKILL, while the unreaped pid is still the child's
        raise
    finally:
        if k > 1:
            _pin(cpus)
        for _, fh in children:
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for j, status in enumerate(statuses, 1):
        died = f"sweep worker for N in {sizes[j::k]} ended without its rows (wait status {status})"
        shares[j] = pickle.loads(shares[j]) if shares[j] and not status else [CatmapError(died)]
    records, failures = [], []
    for i in range(len(sizes)):
        result = shares[i % k][i // k]
        if isinstance(result, Exception):
            raise result
        (records if isinstance(result, SweepRecord) else failures).append(result)
    return records, failures


def _sweep_row(m: CatMap, f: Observable, n1: int, n2: int, timing: bool, dense_limit: int, N: int):
    """One dimension of a sweep: its SweepRecord, or (N, reason) if it fails."""
    from .quantum import fourth_moment, propagator_spectrum, variance_stat

    if N > dense_limit:
        return (N, f"dimension beyond dense limit {dense_limit}")
    began = perf_counter()
    try:
        eigsys = propagator_spectrum(m, N)
        moment = fourth_moment(m, N, (n1, n2), eigsys=eigsys)
        variance = variance_stat(m, N, f, eigsys=eigsys)
    except (CatmapError, ValueError) as exc:
        return (N, f"{type(exc).__name__}: {exc}")
    ratio, dev = moment.s4 / moment.bound, moment.max_dev
    slack = 1 + 1e-6
    if ratio > slack or dev**4 > moment.bound * slack:
        raise ConstructionFailed(
            f"fourth-moment ceiling violated at N={N}: ratio={ratio!r}, max_dev={dev!r}"
        )
    elapsed = int((perf_counter() - began) * 1000) if timing else 0
    return SweepRecord(
        N, n1, n2, moment.s4, moment.bound, ratio, variance, dev, eigsys.scalar_period, elapsed
    )


def _sweep_share(row, share: list[int]) -> list:
    """A share's rows in order, ending at its first exception, if any."""
    rows = []
    try:
        for N in share:
            rows.append(row(N))
    except Exception as exc:
        rows.append(exc)
    return rows


def _pin(cpus) -> None:
    """Set this thread's CPU affinity where the system allows; it only steers
    the scheduler, so a refusal is no error."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _fork_share(row, share: list[int], cpu: int):
    """Fork a child, pinned to `cpu`, that pickles `_sweep_share(row, share)`
    into a pipe; an exception that does not pickle travels as a CatmapError
    of its type and text."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into its caller
        try:
            os.close(r)
            _pin([cpu])
            rows = _sweep_share(row, share)
            try:
                pickle.loads(pickle.dumps(rows[-1:]))
            except Exception:
                rows[-1] = CatmapError(f"{type(rows[-1]).__name__}: {rows[-1]}")
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(rows))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, os.fdopen(r, "rb")


# ---------------------------------------------------------------------------
# storage


# kind -> (record class, stored column line), one column per field in field
# order; a column's cell type is its field's annotation
_SCHEMA = {
    "primes": (PrimeRecord, "p,chi,ord,class,exceeds"),
    "integers": (IntegerRecord, "N,d,s,d0,L,ord,lower_bound,NG,NB,NT,in_S"),
    "sweep": (SweepRecord, "N,n1,n2,S4,bound,ratio,variance,max_dev,rstar,ms"),
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
    """One record kind's stored layout, derived from its _SCHEMA entry: the
    column names, one per field of the record class, and each column's cell
    type, read off its field's annotation; a column count off raises."""

    def __init__(self, record: type, column_line: str):
        fields = dataclasses.fields(record)
        self.columns = tuple(column_line.split(","))
        if len(self.columns) != len(fields):
            raise TypeError(f"{record.__name__} has {len(fields)} fields, not {len(self.columns)}")
        hints = get_type_hints(record)
        self.record = record
        self.types = tuple(hints[f.name] for f in fields)
        cells = [_CELL_TYPES[t] for t in self.types]
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
                for f, t in zip(fields, self.types)
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
# the kind of each stored column line
_KIND_OF_COLUMNS = {line: kind for kind, (_, line) in _SCHEMA.items()}
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


def _json_records(records, kind: str) -> list[dict]:
    """The JSON values of a list of records, or of a column table, of a kind
    already checked (`_infer_kind`), as stored."""
    layout = _LAYOUTS[kind]
    return [layout.json_value(values) for values in layout.rows(records)]


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


def can_append(path, kind: str, config=None) -> int:
    """Where rows of this kind and config can be appended to the CSV at path:
    its stored end, read with its head by `_csv_head` as every reader reads
    it.  0 for a missing file or one cut off before the column line's
    newline, which a CSV append rewrites from scratch.  A head that readers
    reject, or another header, raises SchemaMismatch; the file is only read.
    """
    try:
        with open(path, "rb") as fh:
            header, _, _, end = _csv_head(fh)
    except (FileNotFoundError, _NothingStored):
        return 0
    want = _header_line(kind, config)
    if header != want:
        raise SchemaMismatch(f"cannot append: header {header!r} != {want!r}")
    return end


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
    Census records are read into a column table first, in JSON as in CSV, so
    a value beyond int64 raises OverflowError before the file is touched.
    CSV appending is resume-safe: an existing file is checked for a matching
    header and column line before it is touched (see `can_append`), and new
    rows are written at its stored end, which drops a partially written final
    line.  JSON is whole-document only.

    Census rows go to CSV through `_csv_body`, 4,096 rows at a time, and
    sweep rows through their `%` template (`_template_body`).
    """
    if not isinstance(records, np.ndarray):
        records = list(records)
    kind = _infer_kind(records, kind)
    if kind != "sweep" and not isinstance(records, np.ndarray):
        records = _records_table(records, kind)  # a cell beyond int64 raises here
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
    # a config the header cannot hold, or a mismatched file, raises first
    header = _header_line(kind, config)
    end = can_append(path, kind, config) if append else 0
    with open(path, "r+b" if end else "wb") as fh:
        fh.seek(end)
        fh.truncate()  # drops a final line cut off mid-write
        if not end:
            fh.write(f"{header}\n{','.join(layout.columns)}\n".encode())
        if kind == "sweep":
            fh.write(_template_body(records, kind))
        else:
            for start in range(0, len(records), _CSV_ROWS):
                fh.write(_csv_body(records[start : start + _CSV_ROWS], layout.types))
    return len(records)


def _json_cell(value) -> str:
    """A JSON record value as the CSV cell it prints as: a flag as 0/1, a
    float in 17 digits, an int or a string as it is.  Other values, and a
    string holding `,` or a newline (more cells or rows), raise ValueError."""
    if isinstance(value, int):
        return str(int(value))  # a flag as 0/1
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str) and "," not in value and "\n" not in value:
        return value
    raise ValueError(f"{value!r} is not one CSV cell")


def _load_json(blob: bytes) -> tuple[str, dict, bytes]:
    """(kind, config, body) of a JSON document: the body holds each record
    printed as one CSV row (`_json_cell`), so `_stored_rows` parses it as it
    parses a CSV body.  A record that lacks a column, holds a value that is
    no CSV cell, or has a key no column of its kind has (so no CSV row holds
    it) raises SchemaMismatch naming its place in `records`, from 1."""
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
    columns = _LAYOUTS[kind].columns
    values = operator.itemgetter(*columns)
    lines = []
    for i, obj in enumerate(records, start=1):
        try:
            lines.append(",".join(map(_json_cell, values(obj))) + "\n")
        except KeyError as exc:
            raise SchemaMismatch(f"bad record {i}: no {exc.args[0]!r} column") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaMismatch(f"bad record {i}: {exc}") from exc
        if len(obj) > len(columns):  # it holds every column and more
            extra = next(key for key in obj if key not in columns)
            raise SchemaMismatch(f"bad record {i}: {extra!r} is not a {kind} column")
    return kind, config, "".join(lines).encode()


def _parse_rows(kind: str, body: bytes, first: int = 3, name: str = "row") -> list:
    """One record per stored row; a row that does not parse raises
    SchemaMismatch naming it as `name` and its number, counting from
    `first`: a CSV's line in the file, a JSON record's place in `records`."""
    layout = _LAYOUTS[kind]
    want = len(layout.columns)
    records = []
    for i, line in enumerate(_text(body).split("\n")[:-1], start=first):
        cells = line.split(",")
        try:
            if len(cells) != want:
                raise ValueError(f"expected {want} cells, got {len(cells)}")
            records.append(layout.parse(cells))
        except (ValueError, IndexError) as exc:
            raise SchemaMismatch(f"bad {name} {i}: {line!r}: {exc}") from exc
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
    layout = _LAYOUTS[kind]
    width = len(layout.columns)
    if not body:  # numpy warns on no data, as it does on blank lines only
        return np.empty((0, width), np.int64)
    rows = body.count(b"\n")
    if rows == len(body) or body.translate(None, _TABLE_BYTES):
        return None
    codes = {i: code for i, code in enumerate(layout.codes) if code}
    try:
        table = np.loadtxt(io.BytesIO(body), np.int64, delimiter=",", ndmin=2, converters=codes)
    except ValueError:  # a cell that is not an int64 or a class name
        return None
    if table.shape != (rows, width):
        return None
    for column, cell in zip(table.T, layout.types):
        if cell is bool:
            column[:] = column != 0
    return table


class _NothingStored(SchemaMismatch):
    """A CSV cut off before its column line's newline: no row is stored yet."""


def _stored_rows(fh) -> tuple[str, dict, np.ndarray | list]:
    """(kind, config, rows) of a CSV or, if it starts with `{`, a JSON
    document, open for binary reading: the one place where stored bytes
    become rows.

    A CSV body is read after its head (`_csv_head`) in one `read` that ends
    at the stored end, so a final line cut off mid-write is left out; a JSON
    body is its records printed as CSV rows (`_load_json`).  Either is
    parsed alike: a census body by `_parse_table` in one numpy pass, or else
    by the row parser `_parse_rows`, which names a bad CSV row by its line
    in the file and a bad JSON record by its place in `records`, from 1.  A
    census's rows are one int64 column table, so a stored value beyond int64
    raises SchemaMismatch; a sweep's are its records.
    """
    try:
        if fh.peek(1)[:1] == b"{":
            kind, config, body = _load_json(fh.read())
            first, name = 1, "record"
        else:
            _, kind, config, end = _csv_head(fh)
            body = fh.read(end - fh.tell())
            first, name = 3, "row"
        if kind == "sweep":
            return kind, config, _parse_rows(kind, body, first, name)
        table = _parse_table(kind, body)
        if table is None:
            table = _records_table(_parse_rows(kind, body, first, name), kind)
        return kind, config, table
    except OverflowError as exc:
        raise SchemaMismatch(f"a stored value exceeds int64: {exc}") from exc


def _csv_head(fh) -> tuple[str, str, dict, int]:
    """(header line, kind, config, `_stored_end`) of a CSV open for binary
    reading, left at its first row.  A complete header is parsed before a cut
    column line raises `_NothingStored`; the column line must be of its kind."""
    end = _stored_end(fh)
    if not end:
        raise _NothingStored("empty file")
    fh.seek(0)
    header = _text(fh.readline()[:-1])
    config = _parse_header(header)
    kind = config.pop("kind", None)
    if fh.tell() == end:
        raise _NothingStored("missing column line")
    columns = _text(fh.readline()[:-1])
    col_kind = _KIND_OF_COLUMNS.get(columns)
    if col_kind is None:
        raise SchemaMismatch(f"unknown column set {columns!r}")
    if kind is not None and kind != col_kind:
        raise SchemaMismatch(f"header kind {kind!r} does not match columns {col_kind!r}")
    return header, col_kind, config, end


def load_results(path) -> LoadedResults:
    """Read a stored census back; the inverse of store_results.

    The rows come from `_stored_rows`, CSV or JSON, so a CSV line cut off
    mid-write is left out and a stored row that does not parse raises
    SchemaMismatch; a census's records are built from its table's columns.
    """
    with open(path, "rb") as fh:
        kind, config, rows = _stored_rows(fh)
    records = rows if kind == "sweep" else _records(rows, kind)
    return LoadedResults(kind, config, tuple(records))


def _load_table(path, kind: str) -> np.ndarray:
    """The stored rows of a census of this kind, CSV or JSON, as one int64
    column table, read by `_stored_rows` as `load_results` reads them: the
    table and one copy of the stored body are all it holds."""
    with open(path, "rb") as fh:
        stored, _, table = _stored_rows(fh)
    if stored != kind:
        raise SchemaMismatch(f"not a census of {kind}: {stored!r} rows")
    return table


def resume_point(path) -> int | None:
    """Largest key already stored at path, or None if nothing usable survives.

    Only stored rows count, so a file truncated mid-write (even inside the
    header or the column line) reports the last fully stored key.  The rows
    are read by `_stored_rows`: a complete but alien header or column line,
    or a stored row that does not parse, raises SchemaMismatch.
    """
    try:
        with open(path, "rb") as fh:
            kind, _, rows = _stored_rows(fh)
    except (FileNotFoundError, _NothingStored):
        return None
    if kind == "sweep":
        return max((r.key for r in rows), default=None)
    return int(rows[:, 0].max()) if len(rows) else None
