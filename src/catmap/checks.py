"""Self-verification suite: every library invariant, runnable in one call.

`run_checks` executes each registered check at either the `quick` scale
(seconds, for smoke testing) or the full scale (a few minutes).  Each check
either returns a human-readable detail string or raises, and the runner
converts the outcome into a CheckResult.  The command-line `check`
subcommand prints one line per result and exits nonzero if anything failed.
"""

from __future__ import annotations

import math
import random
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .arith import (
    DEFAULT_MAP,
    CatMap,
    _legendre,
    _order_mod_prime_power,
    factorize,
    is_probable_prime,
    mat_pow_mod,
    order_mod,
    order_mod_brute,
    primes_up_to,
)
from .census import (
    _integer_columns,
    _integer_counts,
    _integer_summary,
    _omega_sieve,
    _prime_columns,
    _prime_counts,
    _prime_summary,
    _template_body,
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
from .quadorder import (
    PrimeClass,
    _prime_orders,
    _smallest_prime_factors,
    congruence_count,
    norm_one_count,
    order_profile,
    small_order_modulus,
    split_by_class,
    splitting_character,
    trivial_solution_count,
)
from .quantum import (
    SPECTRAL_TOL,
    UNITARY_TOL,
    Observable,
    egorov_residual,
    fourth_moment,
    propagator,
    propagator_spectrum,
    spectrum,
    translation,
    translation_trace,
    weyl_quantize,
)

ETA = 0.55


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class _Scale:
    """Problem sizes for one run of the suite."""

    order_brute_limit: int
    chi_prime_limit: int
    lcm_pairs: int
    factor_samples: int
    norm_one_limit: int
    crt_pairs: int
    profile_limit: int
    nu_brute_moduli: tuple
    small_order_k: int
    algebra_dim: int
    trace_dims: tuple
    egorov_max: int
    spectrum_max: int
    moment_prime_max: int
    census_x: int
    density_x: int


QUICK = _Scale(
    order_brute_limit=300,
    chi_prime_limit=2_000,
    lcm_pairs=30,
    factor_samples=150,
    norm_one_limit=400,
    crt_pairs=20,
    profile_limit=800,
    nu_brute_moduli=(3, 5, 7, 9, 10, 11, 13, 15),
    small_order_k=12,
    algebra_dim=8,
    trace_dims=(4, 7),
    egorov_max=16,
    spectrum_max=21,
    moment_prime_max=23,
    census_x=400,
    density_x=10_000,
)

FULL = _Scale(
    order_brute_limit=2_000,
    chi_prime_limit=100_000,
    lcm_pairs=200,
    factor_samples=1_500,
    norm_one_limit=2_000,
    crt_pairs=100,
    profile_limit=5_000,
    nu_brute_moduli=(3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19, 21, 23, 25, 35),
    small_order_k=25,
    algebra_dim=20,
    trace_dims=(4, 7, 12, 15),
    egorov_max=41,
    spectrum_max=101,
    moment_prime_max=47,
    census_x=2_000,
    density_x=100_000,
)


def nu_brute(m: CatMap, modulus: int, n: tuple[int, int]) -> int:
    """Quartic-loop count of i,j,k,l in [1,r]^4 with n(A^i - A^j + A^k - A^l) = 0.

    The independent oracle for congruence_count: builds the orbit of the row
    vector n under powers of A mod `modulus` and tests all r**4 combinations
    by numpy broadcasting (chunked so memory stays bounded).
    """
    r = order_mod(m, modulus)
    orbit = np.empty((r, 2), dtype=np.int64)
    v = (n[0] % modulus, n[1] % modulus)
    for i in range(r):
        v = ((v[0] * m.a + v[1] * m.c) % modulus, (v[0] * m.b + v[1] * m.d) % modulus)
        orbit[i] = v
    diff = (orbit[:, None, :] - orbit[None, :, :]) % modulus  # (r, r, 2)
    flat = diff.reshape(r * r, 2)
    total = 0
    chunk = max(1, (1 << 24) // (r * r * 2 * 8))
    for lo in range(0, r * r, chunk):
        part = flat[lo : lo + chunk]
        s = (part[:, None, :] + flat[None, :, :]) % modulus
        total += int(np.count_nonzero((s == 0).all(axis=2)))
    return total


# ---------------------------------------------------------------------------
# individual checks; each returns a detail string or raises


def _check_order_fast_vs_brute(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    for N in range(1, s.order_brute_limit + 1):
        fast = order_mod(m, N)
        slow = order_mod_brute(m, N)
        assert fast == slow, f"order mismatch at N={N}: {fast} != {slow}"
    return f"order_mod == brute for N <= {s.order_brute_limit}"


def _check_order_divides_p_minus_chi(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    checked = 0
    for p in (int(q) for q in primes_up_to(s.chi_prime_limit)):
        if m.discriminant % p == 0:
            continue
        chi = splitting_character(m, p)
        assert (p - chi) % order_mod(m, p) == 0, f"ord(A,{p}) does not divide p-chi"
        checked += 1
    return f"ord(A,p) | p - chi(p) for {checked} primes <= {s.chi_prime_limit}"


def _check_prime_kernel_vs_scalar(s: _Scale, rng) -> str:
    # two traces, so that the 2-part of the order is decided at other primes
    # by the split test (2, t) and the inert test (t, 2) of the kernel
    spf = _smallest_prime_factors(s.chi_prime_limit + 1)
    counts = []
    for m, limit in ((DEFAULT_MAP, s.chi_prime_limit),
                     (CatMap(1, 2, 2, 5), min(s.chi_prime_limit, 20_000))):
        primes = primes_up_to(limit)
        kept, chi, order = _prime_orders(m, primes, spf)
        assert kept.tolist() == [p for p in primes.tolist() if p > 2 and m.discriminant % p]
        for p, c, o in zip(kept.tolist(), chi.tolist(), order.tolist()):
            assert c == _legendre(m.discriminant, p), f"chi({p}) = {c} from the kernel for {m}"
            assert o == _order_mod_prime_power(m, p, 1), f"ord(A,{p}) = {o} from the kernel for {m}"
            assert p > 300 or o == order_mod_brute(m, p), f"ord(A,{p}) = {o} is not brute for {m}"
        counts.append(f"{kept.size} primes <= {limit} for t = {m.trace}")
    return f"batched chi and ord == scalar route at {' and '.join(counts)}, == brute at those <= 300"


def _coprime_pairs(rng, hi: int, count: int):
    """`count` coprime pairs (n1, n2), each drawn from [2, hi) until coprime."""
    while count:
        n1, n2 = rng.randrange(2, hi), rng.randrange(2, hi)
        if math.gcd(n1, n2) == 1:
            count -= 1
            yield n1, n2


def _check_order_lcm_composition(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    for n1, n2 in _coprime_pairs(rng, 1500, s.lcm_pairs):
        assert order_mod(m, n1 * n2) == math.lcm(order_mod(m, n1), order_mod(m, n2))
    return f"lcm composition on {s.lcm_pairs} coprime pairs"


def _check_factorization_roundtrip(s: _Scale, rng) -> str:
    for _ in range(s.factor_samples):
        n = rng.randrange(2, 10**12)
        fac = factorize(n)
        assert fac.n == n
        for p, e in fac:
            assert e >= 1 and is_probable_prime(p), f"bad factor {p}^{e} of {n}"
    return f"{s.factor_samples} random factorizations verified"


def _check_norm_one_formula(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    checked = 0
    for p in (int(q) for q in primes_up_to(s.norm_one_limit)):
        if m.discriminant % p == 0:
            continue
        chi = splitting_character(m, p)
        q = p
        k = 1
        while q <= s.norm_one_limit:
            expect = p ** (k - 1) * (p - chi)
            got = norm_one_count(m, q)
            assert got == expect, f"norm-one count mod {p}^{k}: {got} != {expect}"
            checked += 1
            q *= p
            k += 1
    return f"group size formula at {checked} prime powers <= {s.norm_one_limit}"


def _check_norm_one_crt(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    for n1, n2 in _coprime_pairs(rng, 60, s.crt_pairs):
        assert norm_one_count(m, n1 * n2) == norm_one_count(m, n1) * norm_one_count(
            m, n2
        )
    return f"multiplicativity on {s.crt_pairs} coprime pairs"


def _check_profile_lower_bound(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    for N in range(2, s.profile_limit + 1):
        prof = order_profile(m, N)
        assert prof.lower_bound <= prof.ord, f"bound fails at N={N}"
        split = split_by_class(m, N, ETA)
        assert split.N_G * split.N_B == N
        assert split.N_B % split.N_T == 0
    return f"lower bound and class split for N <= {s.profile_limit}"


def _check_nu_fast_vs_brute(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    vectors = ((1, 0), (0, 1), (2, 1))
    checked = 0
    for N in s.nu_brute_moduli:
        for n in vectors:
            fast = congruence_count(m, N, n)
            slow = nu_brute(m, N, n)
            assert fast.count == slow, f"nu mismatch at N={N}, n={n}"
            assert trivial_solution_count(m, N, n) <= fast.count
            checked += 1
    return f"quadratic counter == quartic brute at {checked} (N, n) cases"


def _check_nu_bounds(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    checked = 0
    for p in (int(q) for q in primes_up_to(50)):
        if m.discriminant % p == 0:
            continue
        cc = congruence_count(m, p, (1, 0))
        r = cc.r
        assert 2 * r * r - r <= cc.count <= 3 * r * r, f"nu bound fails at p={p}"
        checked += 1
    return f"2r^2 - r <= nu <= 3r^2 at {checked} admissible primes <= 50"


def _check_small_order_sequence(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    rows, failures = small_order_report(m, s.small_order_k)
    assert not failures, f"factoring failures at k={failures}"
    factored = {k: small_order_modulus(m, k).N_k for k in range(2, s.small_order_k + 1)}
    assert {row.k: row.modulus for row in rows} == factored, "gcd and factored N_k differ"
    for row in rows:
        assert row.order <= row.k
        assert mat_pow_mod(m, row.k, row.modulus).is_identity()
    return f"{len(rows)} moduli with ord <= k for k <= {s.small_order_k}, each the factored N_k"


def _check_translation_algebra(s: _Scale, rng) -> str:
    tol = 1e-10
    for N in range(1, s.algebra_dim + 1):
        t1 = translation(N, (1, 0)).matrix
        t2 = translation(N, (0, 1)).matrix
        phase = np.exp(2j * np.pi / N)
        assert np.abs(t1 @ t2 - phase * (t2 @ t1)).max() <= tol
        for _ in range(6):
            a = (rng.randrange(-2 * N, 2 * N + 1), rng.randrange(-2 * N, 2 * N + 1))
            b = (rng.randrange(-2 * N, 2 * N + 1), rng.randrange(-2 * N, 2 * N + 1))
            ta, tb = translation(N, a), translation(N, b)
            omega = a[0] * b[1] - a[1] * b[0]
            lhs = ta.matrix @ tb.matrix
            rhs = np.exp(1j * np.pi * omega / N) * translation(
                N, (a[0] + b[0], a[1] + b[1])
            ).matrix
            assert np.abs(lhs - rhs).max() <= tol
            assert np.abs(ta.adjoint().matrix - translation(N, (-a[0], -a[1])).matrix).max() <= tol
    return f"Heisenberg / composition / adjoint to 1e-10 for N <= {s.algebra_dim}"


def _check_trace_dichotomy(s: _Scale, rng) -> str:
    for N in s.trace_dims:
        for n1 in range(-2 * N, 2 * N + 1):
            for n2 in range(-2 * N, 2 * N + 1):
                dense = complex(np.trace(translation(N, (n1, n2)).matrix))
                closed = translation_trace(N, (n1, n2))
                assert abs(closed - dense) <= 1e-8, f"closed form at {n1, n2} mod {N}"
                if n1 % N == 0 and n2 % N == 0:
                    assert abs(abs(dense) - N) <= 1e-8, f"trace at lattice point {n1, n2}"
                else:
                    assert abs(dense) <= 1e-8, f"trace not tiny at {n1, n2} mod {N}"
    return f"closed form = dense trace on |n|inf <= 2N for N in {s.trace_dims}"


def _check_egorov(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    worst = 0.0
    built = 0
    for N in range(3, s.egorov_max + 1):
        try:
            u = propagator(m, N)
        except Exception as exc:
            raise AssertionError(f"no propagator at N={N}: {exc}") from exc
        worst = max(worst, egorov_residual(u, m, 3))
        built += 1
    assert worst <= 1e-9, f"egorov residual {worst}"
    return f"{built} propagators, worst residual {worst:.2e}"


def _check_spectrum_complete(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    residual = gram_defect = 0.0
    for N in range(5, s.spectrum_max + 1, 2):
        eig = propagator_spectrum(m, N)
        assert sum(eig.multiplicities()) == N
        # the generic route, r* and phase from its own first eigensolve
        ref = spectrum(propagator(m, N), order_mod(m, N))
        assert eig.scalar_period == ref.scalar_period, f"r* at N={N}"
        assert eig.multiplicities() == ref.multiplicities(), f"multiplicities at N={N}"
        for got, want in zip(eig.levels, ref.levels):
            P, Q = (lv.basis @ lv.basis.conj().T / N for lv in (got, want))
            assert np.abs(P - Q).max() <= 1e-9, f"level projector at N={N}"
        basis = eig.eigenbasis()
        gram = basis.conj().T @ basis / N
        assert np.abs(gram - np.eye(N)).max() <= 1e-10
        residual, gram_defect = max(residual, eig.residual), max(gram_defect, eig.gram_defect)
    return (f"complete orthonormal spectra for odd N in [5, {s.spectrum_max}] matching the generic "
            f"route, worst residual "
            f"{residual:.2e} (tol {SPECTRAL_TOL:.0e}), Gram defect {gram_defect:.2e} (tol {UNITARY_TOL:.0e})")


def _check_fourth_moment_bound(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    worst = 0.0
    for p in (int(q) for q in primes_up_to(s.moment_prime_max)):
        if p < 3:
            continue
        fm = fourth_moment(m, p, (1, 0))
        worst = max(worst, fm.s4 / fm.bound)
        assert fm.s4 <= fm.bound * (1 + 1e-6)
    return f"S4 within ceiling for primes <= {s.moment_prime_max}, worst ratio {worst:.3f}"


def _check_sweep_invariants(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    sizes = [n for n in range(5, s.moment_prime_max + 1, 2)]
    first, failures = quantum_sweep(m, sizes, Observable.cosine(1), (1, 0))
    one = [row for N in sizes for row in quantum_sweep(m, [N], Observable.cosine(1), (1, 0))[0]]
    assert not failures
    assert repr(first) == repr(one), "split sweep differs from the one-size sweeps"
    for row in first:
        assert row.ratio <= 1 + 1e-6
        assert row.max_dev**4 <= row.bound * (1 + 1e-6)
    return f"{len(first)} sweep rows, bit-identical to {len(sizes)} one-size sweeps, within ceilings"


def _check_weyl_hermitian(s: _Scale, rng) -> str:
    for N in (4, 9, 16):
        coeffs = {}
        for _ in range(4):
            n1, n2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[(n1, n2)] = coeffs.get((n1, n2), 0) + z
            coeffs[(-n1, -n2)] = coeffs.get((-n1, -n2), 0) + z.conjugate()
        op = weyl_quantize(N, Observable(coeffs))
        assert op.hermiticity_defect() <= 1e-10
    return "real observables quantize to Hermitian operators"


def _check_census_round_trip(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    recs = integer_census(m, s.census_x, ETA)[0]
    # primes to 1000 have chi = -1 and all three classes, so their rows take
    # the CSV writer's sign and class-name branches
    primes = prime_census(m, 1000, ETA)[0]
    assert min(r.chi for r in primes) == -1
    assert {r.prime_class for r in primes} == set(PrimeClass)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp, "census.csv")
        cfg = {"x": s.census_x, "eta": ETA}
        store_results(recs, csv_path, config=cfg)
        full_bytes = csv_path.read_bytes()
        assert full_bytes.split(b"\n", 2)[2] == _template_body(recs, "integers")
        assert load_results(csv_path).records == tuple(recs)
        prime_path = Path(tmp, "primes.csv")
        store_results(primes, prime_path)
        assert prime_path.read_bytes().split(b"\n", 2)[2] == _template_body(primes, "primes")
        json_path = Path(tmp, "census.json")
        store_results(recs, json_path, config=cfg)
        assert load_results(json_path).records == tuple(recs)
        csv_path.write_bytes(full_bytes[: int(len(full_bytes) * 0.61)])
        last = resume_point(csv_path)
        rest = _integer_columns(m, s.census_x, ETA, last + 1)
        store_results(rest, csv_path, append=True, config=cfg)
        assert csv_path.read_bytes() == full_bytes
    spot_rng = random.Random(rng.randrange(1 << 30))
    for rec in spot_rng.sample(recs, min(25, len(recs))):
        assert rec.order == order_mod_brute(m, rec.N), f"order at N={rec.N}"
        assert rec.d * rec.s**2 == rec.N
        assert all(rec.d % (q * q) for q in range(2, math.isqrt(rec.d) + 1))
    return (
        f"round trip + resume + brute-force spot checks at x={s.census_x}; "
        "CSV rows match their templates"
    )


def _check_summary_merge(s: _Scale, rng) -> str:
    """A census summarized from the added counts of four parts of its table
    (split at three drawn rows) equals the summary of the whole table."""
    m, x = DEFAULT_MAP, 2000
    omega = _omega_sieve(x)
    for kind, table, count, finish, summarize in (
        ("primes", _prime_columns(m, x, ETA), lambda t: _prime_counts(t, x),
         _prime_summary, summarize_prime_records),
        ("integers", _integer_columns(m, x, ETA), lambda t: _integer_counts(t, x, omega),
         _integer_summary, summarize_integer_records),
    ):
        cuts = sorted(rng.sample(range(len(table) + 1), 3))
        parts = np.split(table, cuts)
        merged = finish(sum(map(count, parts), Counter()), x, ETA)
        assert merged == summarize(table, x, ETA), f"{kind} split at rows {cuts}"
    return f"summaries of both censuses at x={x}, split at three drawn rows, add up"


def _check_prime_density(s: _Scale, rng) -> str:
    m = DEFAULT_MAP
    _, summary = prime_census(m, s.density_x, 0.52)
    assert summary.fraction >= summary.c_eta, (
        f"observed fraction {summary.fraction:.4f} below c(eta) {summary.c_eta:.4f}"
    )
    return (
        f"fraction {summary.fraction:.4f} >= c(0.52) = {summary.c_eta:.4f} "
        f"at x={s.density_x}"
    )


_CHECKS = (
    ("order-fast-vs-brute", _check_order_fast_vs_brute),
    ("order-divides-p-minus-chi", _check_order_divides_p_minus_chi),
    ("prime-kernel-vs-scalar", _check_prime_kernel_vs_scalar),
    ("order-lcm-composition", _check_order_lcm_composition),
    ("factorization-roundtrip", _check_factorization_roundtrip),
    ("norm-one-formula", _check_norm_one_formula),
    ("norm-one-crt", _check_norm_one_crt),
    ("profile-lower-bound", _check_profile_lower_bound),
    ("nu-fast-vs-brute", _check_nu_fast_vs_brute),
    ("nu-bounds", _check_nu_bounds),
    ("small-order-sequence", _check_small_order_sequence),
    ("translation-algebra", _check_translation_algebra),
    ("trace-dichotomy", _check_trace_dichotomy),
    ("egorov", _check_egorov),
    ("spectrum-complete", _check_spectrum_complete),
    ("fourth-moment-bound", _check_fourth_moment_bound),
    ("sweep-invariants", _check_sweep_invariants),
    ("weyl-hermitian", _check_weyl_hermitian),
    ("census-round-trip", _check_census_round_trip),
    ("summary-merge", _check_summary_merge),
    ("prime-density", _check_prime_density),
)


def run_checks(*, quick: bool = False, seed: int = 20240901, names=None) -> list[CheckResult]:
    """Run the registered invariant checks and collect results.

    `names` restricts the run to a subset (exact check names); unknown names
    raise ValueError up front so typos do not silently pass.
    """
    scale = QUICK if quick else FULL
    selected = _CHECKS
    if names is not None:
        known = {name for name, _ in _CHECKS}
        missing = set(names) - known
        if missing:
            raise ValueError(f"unknown check names: {sorted(missing)}")
        selected = [(n, f) for n, f in _CHECKS if n in set(names)]
    results = []
    for name, fn in selected:
        rng = random.Random(f"{seed}:{name}")  # str seeding is stable across runs
        began = perf_counter()
        try:
            detail = fn(scale, rng)
            ok = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            ok = False
        except Exception:
            detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
            ok = False
        results.append(CheckResult(name, ok, detail, perf_counter() - began))
    return results
