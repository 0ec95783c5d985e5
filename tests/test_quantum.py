"""Tests for the quantum engine: translations, propagator, spectra, stats."""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from catmap import CatMap, DEFAULT_MAP, census, cli, order_mod, quantum
from catmap.errors import (
    ConstructionFailed,
    NoScalarPower,
    NotNormalized,
    NotUnitary,
    ZeroVector,
)
from catmap.quantum import (
    Observable,
    Operator,
    StateVector,
    _apply_weyl,
    _intertwining_defect,
    egorov_residual,
    expectation,
    fourth_moment,
    max_deviation,
    propagator,
    propagator_spectrum,
    _level_bases,
    _theta_word,
    spectrum,
    translation,
    translation_trace,
    variance_stat,
    weyl_quantize,
)

A = DEFAULT_MAP
OTHER = CatMap(1, 2, 2, 5)

# frozen regression fixtures, computed with this package and cross-checked
# against a dense numpy eigendecomposition of the same propagator
VARIANCE_N5_COS = 0.32519377823691187
MAX_DEV_N5_COS = 0.7564684118432917
S4_N5 = 0.04730367248713313
BOUND_N5 = 25.0 / 27.0


def naive_translation(N, n):
    """Entry-by-entry construction straight from the defining action."""
    n1, n2 = n
    M = np.zeros((N, N), dtype=complex)
    for Q in range(N):
        M[Q, (Q + n1) % N] = np.exp(1j * np.pi * n1 * n2 / N) * np.exp(
            2j * np.pi * n2 * Q / N
        )
    return M


def row_times(m, n):
    return (n[0] * m.a + n[1] * m.c, n[0] * m.b + n[1] * m.d)


# ---------------------------------------------------------------- translations


def test_translation_matches_naive():
    for N in (1, 2, 3, 5, 8, 12):
        for n in [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 4), (-3, -7), (11, -2)]:
            got = translation(N, n).matrix
            want = naive_translation(N, n)
            assert np.abs(got - want).max() < 1e-12


def test_translation_identity_at_zero():
    assert np.abs(translation(5, (0, 0)).matrix - np.eye(5)).max() == 0.0


def test_translation_adjoint_is_negation():
    for N in (4, 7, 20):
        for n in [(1, 0), (2, 5), (-3, 1), (6, -2)]:
            left = translation(N, n).matrix.conj().T
            right = translation(N, (-n[0], -n[1])).matrix
            assert np.abs(left - right).max() < 1e-10


def test_translation_composition_symplectic_phase():
    for N in (3, 7, 16):
        for m, n in [((1, 2), (3, 4)), ((0, 1), (1, 0)), ((-2, 5), (3, -1))]:
            w = m[0] * n[1] - m[1] * n[0]
            lhs = translation(N, m).matrix @ translation(N, n).matrix
            rhs = np.exp(1j * np.pi * w / N) * translation(N, (m[0] + n[0], m[1] + n[1])).matrix
            assert np.abs(lhs - rhs).max() < 1e-10


def test_heisenberg_relation():
    # t1^a t2^b = t2^b t1^a e_N(ab) entrywise
    for N in (2, 3, 5, 8):
        t1 = translation(N, (1, 0)).matrix
        t2 = translation(N, (0, 1)).matrix
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                lhs = np.linalg.matrix_power(t1, a) @ np.linalg.matrix_power(t2, b)
                rhs = (
                    np.exp(2j * np.pi * a * b / N)
                    * np.linalg.matrix_power(t2, b)
                    @ np.linalg.matrix_power(t1, a)
                )
                assert np.abs(lhs - rhs).max() < 1e-10, (N, a, b)


def test_translation_lattice_period_sign():
    # shifting the index by N*w only flips the sign in a prescribed pattern
    for N in (4, 5, 9):
        for n in [(1, 0), (2, 3), (-1, 2)]:
            for w in [(1, 0), (0, 1), (1, 1), (-1, 2)]:
                shifted = translation(N, (n[0] + N * w[0], n[1] + N * w[1])).matrix
                sign = (-1) ** (w[0] * n[1] + w[1] * n[0] + N * w[0] * w[1])
                assert np.abs(shifted - sign * translation(N, n).matrix).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=24),
    n1=st.integers(min_value=-50, max_value=50),
    n2=st.integers(min_value=-50, max_value=50),
)
def test_translation_unitary_property(N, n1, n2):
    assert translation(N, (n1, n2)).is_unitary()


def test_trace_dichotomy_examples():
    assert abs(translation_trace(5, (0, 0)) - 5) < 1e-12
    assert abs(abs(translation_trace(5, (5, 10))) - 5) < 1e-10
    assert abs(translation_trace(5, (1, 3))) <= 1e-8


def test_trace_closed_form_matches_dense_trace():
    for N in range(1, 13):
        for n1 in range(-2 * N, 2 * N + 1):
            for n2 in range(-2 * N, 2 * N + 1):
                want = np.trace(naive_translation(N, (n1, n2)))
                assert abs(translation_trace(N, (n1, n2)) - want) <= 1e-9, (N, n1, n2)


def test_trace_rejects_nonpositive_dimension():
    for N in (0, -3):
        with pytest.raises(ValueError):
            translation_trace(N, (0, 0))


def test_trace_dichotomy_sweep():
    for N in (4, 7):
        for n1 in range(-2 * N, 2 * N + 1):
            for n2 in range(-2 * N, 2 * N + 1):
                t = abs(translation_trace(N, (n1, n2)))
                if n1 % N == 0 and n2 % N == 0:
                    assert abs(t - N) < 1e-10
                else:
                    assert t <= 1e-8


# ---------------------------------------------------------------- quantization


def test_weyl_single_harmonic_is_translation():
    f = Observable.harmonic((2, -1))
    got = weyl_quantize(9, f).matrix
    assert np.abs(got - translation(9, (2, -1)).matrix).max() < 1e-12


def test_weyl_constant():
    op = weyl_quantize(6, Observable.constant(2.5 - 1j))
    assert np.abs(op.matrix - (2.5 - 1j) * np.eye(6)).max() < 1e-12
    with pytest.raises(ValueError, match="dimension must be positive"):
        weyl_quantize(0, Observable.constant(1.0))


def test_weyl_cosine_hermitian():
    f = Observable.cosine(1)
    assert f.is_real_valued()
    assert f.mean == 0
    op = weyl_quantize(11, f)
    assert op.hermiticity_defect() <= 1e-10


def test_observable_validation():
    assert Observable.cosine(2).is_real_valued()
    with pytest.raises(ValueError):
        Observable.cosine(3)
    g = Observable({(1, 0): 1.0, (-1, 0): 0.5})
    assert not g.is_real_valued()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weyl_random_real_observable_hermitian(data):
    N = data.draw(st.integers(min_value=2, max_value=14))
    supp = data.draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    coeffs = {}
    for k, n in enumerate(supp):
        z = complex(1.0 / (k + 1), 0.3 * k)
        coeffs[n] = coeffs.get(n, 0) + z
        neg = (-n[0], -n[1])
        coeffs[neg] = coeffs.get(neg, 0) + z.conjugate()
    f = Observable(coeffs)
    assert f.is_real_valued()
    assert weyl_quantize(N, f).hermiticity_defect() <= 1e-10


def test_weyl_kernel_matches_dense_translation_sum():
    rng = np.random.default_rng(7)
    for N in (1, 2, 3, 7, 16, 31):
        # two terms sharing a shift (as in cos2), negative components and
        # components beyond +-2N
        fixed = {(0, 1): 0.5, (0, -1): 0.5 - 0.25j, (-2, 3): 1j}
        fixed[(3 * N + 1, -2 * N - 3)] = -1.5
        for trial in range(4):
            coeffs = dict(fixed)
            for _ in range(3):
                n = tuple(int(v) for v in rng.integers(-3 * N - 2, 3 * N + 3, size=2))
                coeffs[n] = complex(*rng.normal(size=2))
            f = Observable(coeffs)
            for cols in (1, N):
                X = rng.normal(size=(N, cols)) + 1j * rng.normal(size=(N, cols))
                want = sum(c * naive_translation(N, n) @ X for n, c in f.items())
                assert np.abs(_apply_weyl(N, f, X) - want).max() <= 1e-12, (N, trial, cols)


def test_intertwining_defect_matches_dense_defect():
    rng = np.random.default_rng(11)
    vectors = [(1, 0), (0, 1), (-2, 3), (3, -1)]
    for N in (7, 12):
        U = propagator(A, N).matrix + 1e-3 * rng.normal(size=(N, N))
        want = 0.0
        for n in vectors:
            lhs = naive_translation(N, n) @ U
            rhs = U @ naive_translation(N, row_times(A, n))
            want = max(want, np.abs(lhs - rhs).max())
        got = _intertwining_defect(U, A, vectors)
        assert want > 1e-4
        assert abs(got - want) <= 1e-12, N


def _weyl_form_defect(U, m, vectors):
    """The defect with both sides through `_apply_weyl`, U T(v) as (T(-v) U^H)^H."""
    N = len(U)
    worst = 0.0
    for n in vectors:
        v = row_times(m, n)
        lhs = _apply_weyl(N, Observable.harmonic(n), U)
        rhs = _apply_weyl(N, Observable.harmonic((-v[0], -v[1])), U.conj().T).conj().T
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_intertwining_defect_matches_its_weyl_form():
    # the row and column gathers agree with the translation operators of
    # `_apply_weyl` on propagators off by a little noise, at every small N,
    # up to the rounding of entries of size at most 1
    rng = np.random.default_rng(5)
    maps = [A, OTHER, CatMap(0, 1, -1, 6), CatMap(4, 1, -1, 0)]
    for m in maps:
        for N in range(2, 60):
            noise = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            U = propagator(m, N).matrix + 1e-6 * noise
            for vectors in (((1, 0), (0, 1)), ((2, -1), (3, 5))):
                want = _weyl_form_defect(U, m, vectors)
                got = _intertwining_defect(U, m, vectors)
                assert want > 1e-6 and abs(got - want) <= 1e-14, (m, N, vectors)


# ----------------------------------------------------------------- propagator


def test_propagator_egorov_across_paths():
    # odd and even N, with gcd(b, N) and gcd(c, N) both 1 and not
    for N in (3, 4, 5, 6, 8, 9, 10, 15, 16, 25, 35, 41):
        U = propagator(A, N)
        assert U.is_unitary()
        assert egorov_residual(U, A, 3) <= 1e-9, N


def test_propagator_other_map():
    for N in (4, 5, 6, 9, 14):
        U = propagator(OTHER, N)
        assert egorov_residual(U, OTHER, 2) <= 1e-9, N


def test_propagator_large_odd_dimension():
    U = propagator(A, 299)
    assert U.unitarity_defect() <= 1e-10
    assert egorov_residual(U, A, 1) <= 1e-9


def _cyclic_average(X, left, right, steps):
    acc = X.copy()
    Y = X
    for _ in range(steps - 1):
        Y = left @ Y @ right
        acc += Y
    return acc / steps


def propagator_intertwiner(m, N):
    """The propagator by group averaging alone, as the oracle for small N.

    Conjugating a matrix by the translation pair of each generator is a
    unitary map of order dividing 2N on matrix space, and the two maps
    commute, so averaging both orbits projects orthogonally onto the joint
    fixed space.  That space is exactly the solution set of the two linear
    generator relations, and is at most one-dimensional because the
    translation operators act irreducibly.  The result is scaled to be
    unitary and rotated so the leading entry of column 0 (ties, relative
    1e-9, to the smallest row) is positive real.
    """
    left1 = naive_translation(N, (-1, 0))
    right1 = naive_translation(N, row_times(m, (1, 0)))
    left2 = naive_translation(N, (0, -1))
    right2 = naive_translation(N, row_times(m, (0, 1)))

    def project(X):
        once = _cyclic_average(X, left1, right1, 2 * N)
        return _cyclic_average(once, left2, right2, 2 * N)

    # A seed with a nonzero component along the intertwiner survives the
    # projection; some entry of row 0 of the (unitary) solution has modulus
    # at least N**-0.5, so scanning one matrix row must pass the threshold.
    threshold = 1.0 / (np.sqrt(2.0) * N)
    seeds = [np.eye(N, dtype=complex)]
    for q in range(N):
        seed = np.zeros((N, N), dtype=complex)
        seed[0, q] = 1.0
        seeds.append(seed)
    for seed in seeds:
        image = project(seed)
        if np.linalg.norm(image) >= threshold:
            break
    else:
        raise AssertionError(f"intertwiner projection vanished on every seed at N={N}")
    image *= np.sqrt(N) / np.linalg.norm(image)
    mags = np.abs(image[:, 0])
    pivot = image[int(np.argmax(mags >= mags.max() * (1 - 1e-9))), 0]
    return image * (abs(pivot) / pivot)


def test_propagator_matches_intertwiner_oracle():
    for m in (A, OTHER):
        for N in range(2, 41):
            fast = propagator(m, N)
            oracle = propagator_intertwiner(m, N)
            assert np.abs(fast.matrix - oracle).max() <= 1e-9, (m, N)


def test_propagator_every_dimension():
    # every N up to 101 plus even and composite N past the old averaging cap
    for m in (A, OTHER):
        for N in [*range(2, 102), 128, 300]:
            U = propagator(m, N)
            assert U.unitarity_defect() <= 1e-10, (m, N)
            assert egorov_residual(U, m, 1) <= 1e-9, (m, N)


def _mul2(x, y):
    """Exact product of two integer 2x2 matrices given as nested tuples."""
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


S_MAT = ((0, -1), (1, 0))
MINUS_I = ((-1, 0), (0, -1))


def _word_product(word):
    """Multiply theta-group letters out over the integers, left to right."""
    total = ((1, 0), (0, 1))
    for letter in word:
        if letter == ("S",):
            g = S_MAT
        elif letter == ("-I",):
            g = MINUS_I
        else:
            assert letter[0] == "T2"
            g = ((1, 2 * letter[1]), (0, 1))
        total = _mul2(total, g)
    return total


POOL_MAPS = [CatMap(2, 1, 3, 2), CatMap(2, 3, 1, 2), CatMap(4, 1, -1, 0), CatMap(0, 1, -1, 4)]


@pytest.mark.parametrize("m", POOL_MAPS + [OTHER], ids=str)
def test_theta_word_reproduces_map(m):
    assert _word_product(_theta_word(m.a, m.b, m.c, m.d)) == ((m.a, m.b), (m.c, m.d))


# generators of the theta group and their inverses
_LETTERS = {
    "S": S_MAT,
    "S^-1": ((0, 1), (-1, 0)),
    "T^2": ((1, 2), (0, 1)),
    "T^-2": ((1, -2), (0, 1)),
    "-I": MINUS_I,
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(_LETTERS)), max_size=40))
def test_theta_word_of_random_generator_products(names):
    g = ((1, 0), (0, 1))
    for name in names:
        g = _mul2(g, _LETTERS[name])
    (a, b), (c, d) = g
    assert _word_product(_theta_word(a, b, c, d)) == g


def test_theta_word_rejects_matrices_outside_the_theta_group():
    with pytest.raises(ValueError):
        _theta_word(1, 1, 0, 1)  # T itself: ab odd
    with pytest.raises(ValueError):
        _theta_word(2, 1, 1, 1)  # det 1 but cd odd
    with pytest.raises(ValueError):
        _theta_word(2, 0, 0, 2)  # det 4


def test_propagator_conjugates_zero_vector_to_identity():
    U = propagator(A, 5)
    got = U.matrix @ translation(5, (0, 0)).matrix @ U.matrix.conj().T
    assert np.abs(got - np.eye(5)).max() < 1e-10


def test_egorov_residual_detects_corruption():
    U = propagator(A, 7)
    bad = U.matrix.copy()
    bad[2, 3] += 0.01
    assert egorov_residual(Operator(7, bad), A, 2) > 1e-3


def test_egorov_residual_nmax_zero():
    assert egorov_residual(propagator(A, 9), A, 0) == 0.0


def test_propagator_input_validation():
    with pytest.raises(ValueError):
        propagator(A, 1)


def test_propagator_phase_convention():
    for N in (5, 8, 35):
        col = propagator(A, N).matrix[:, 0]
        mags = np.abs(col)
        idx = int(np.argmax(mags >= mags.max() * (1 - 1e-9)))
        assert abs(col[idx].imag) < 1e-12 and col[idx].real > 0


# -------------------------------------------------------------------- spectra


def test_spectrum_identity_operator():
    sp = spectrum(Operator.identity(7), 1)
    assert sp.scalar_period == 1
    assert sp.multiplicities() == (7,)
    assert abs(sp.levels[0].eigenphase - 1) < 1e-12
    with pytest.raises(ValueError, match="order hint must be positive"):
        spectrum(Operator.identity(7), 0)


def test_spectrum_completeness_and_orthonormality():
    for N in (5, 8, 11, 16, 21):
        U = propagator(A, N)
        r = order_mod(A, N)
        sp = spectrum(U, r)
        assert r <= sp.scalar_period <= 2 * r or sp.scalar_period <= r
        assert sum(sp.multiplicities()) == N
        B = sp.eigenbasis()
        gram = B.conj().T @ B / N
        assert np.abs(gram - np.eye(N)).max() <= 1e-10
        lam = sp.eigenphases_per_vector()
        resid = U.matrix @ B - lam[None, :] * B
        per_vec = np.sqrt((np.abs(resid) ** 2).sum(axis=0) / N)
        assert per_vec.max() <= 1e-8
        # every eigenphase is an r*-th root of the global scalar
        for level in sp.levels:
            assert abs(level.eigenphase**sp.scalar_period - np.exp(1j * sp.global_phase)) < 1e-10


def test_spectrum_distinct_phase_count_bounded():
    sp = spectrum(propagator(A, 11), order_mod(A, 11))
    assert len(sp.levels) <= sp.scalar_period <= 2 * order_mod(A, 11) == 20


def test_spectrum_reconstructs_operator():
    for N in (5, 12):
        U = propagator(A, N)
        sp = spectrum(U, order_mod(A, N))
        total = np.zeros((N, N), dtype=complex)
        for level in sp.levels:
            total += level.eigenphase * (level.basis @ level.basis.conj().T) / N
        assert np.abs(total - U.matrix).max() <= 1e-8


def test_spectrum_projectors_idempotent():
    for N in (5, 8):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        for level in sp.levels:
            P = level.basis @ level.basis.conj().T / N
            assert np.abs(P @ P - P).max() <= 1e-8


def oracle_levels(U, r_hint, tol=1e-8):
    """Spectral data by dense powers, independent of the Schur route.

    r* is the least k <= 2*r_hint with U^k within tol of a scalar (entrywise);
    the multiplicity of each r*-th root comes from a discrete Fourier
    transform of the traces of U^0 .. U^{r*-1}, and its projector is the
    matching average of those powers.  Returns (r*, global phase,
    [(eigenphase, multiplicity, projector)] for the occupied roots).
    """
    N = U.N
    powers = [np.eye(N, dtype=complex)]
    for k in range(1, 2 * r_hint + 1):
        power = powers[-1] @ U.matrix
        scale = np.trace(power) / N
        if np.abs(power - scale * np.eye(N)).max() <= tol:
            break
        powers.append(power)
    else:
        raise AssertionError("the oracle found no scalar power")
    r_star, phase = k, float(np.angle(scale))
    levels = []
    for j in range(r_star):
        lam = np.exp(1j * (phase + 2 * np.pi * j) / r_star)
        proj = sum(lam ** (-k) * powers[k] for k in range(r_star)) / r_star
        mult = np.trace(proj).real
        assert abs(np.trace(proj) - round(mult)) <= 1e-6
        if round(mult):
            levels.append((lam, round(mult), proj))
    assert sum(level[1] for level in levels) == N
    return r_star, phase, levels


@pytest.mark.parametrize("m", [A, OTHER], ids=str)
def test_spectrum_matches_dense_power_oracle(m):
    for N in range(2, 65):
        U = propagator(m, N)
        r = order_mod(m, N)
        sp = spectrum(U, r)
        r_star, phase, want = oracle_levels(U, r)
        assert sp.scalar_period == r_star, N
        assert abs(np.exp(1j * sp.global_phase) - np.exp(1j * phase)) <= 1e-9, N
        assert len(sp.levels) == len(want), N
        for level in sp.levels:
            # match by eigenphase: the level order hinges on the branch of
            # the phase when the scalar is -1
            (lam, mult, proj), = [w for w in want if abs(w[0] - level.eigenphase) <= 1e-9]
            assert level.multiplicity == mult, (N, lam)
            P = level.basis @ level.basis.conj().T / N
            assert np.abs(P - proj).max() <= 1e-9, (N, lam)


def _level_basis_oracle(Zj):
    """The per-level loop `_level_bases` batches, kept as its oracle: greedy
    pivoted Gram-Schmidt of the columns P e_i of P = Zj Zj^H for one level,
    the largest residual norm first, ties within 1e-9 to the smallest index."""
    rest = Zj.conj().T.copy()
    coords = np.empty((len(rest), len(rest)), dtype=complex)
    for k in range(len(rest)):
        norms = np.linalg.norm(rest, axis=0)
        pivot = int(np.argmax(norms >= norms.max() * (1.0 - quantum._TIE_RTOL)))
        coords[:, k] = rest[:, pivot] / norms[pivot]
        rest -= np.outer(coords[:, k], coords[:, k].conj() @ rest)
    return Zj @ coords


def oracle_built_levels(U, sp):
    """spectrum()'s level bases, residual, Gram and normality defects, rebuilt
    from the same second eigensolve one level at a time with
    `_level_basis_oracle`, as spectrum() built them before it batched them."""
    N, r_star, phase = U.N, sp.scalar_period, sp.global_phase
    Z, UZ = quantum._rotated_eigh(U.matrix, (phase + np.pi / 2) / r_star)
    D = Z.conj().T @ UZ
    lam = np.diag(D).copy()
    np.fill_diagonal(D, 0.0)
    roots = np.exp(1j * (phase + 2 * np.pi * np.arange(r_star)) / r_star)
    nearest = np.rint((np.angle(lam) * r_star - phase) / (2 * np.pi)).astype(int) % r_star
    bases, residual, gram = [], 0.0, 0.0
    for j in np.unique(nearest):
        sel = nearest == j
        basis = _level_basis_oracle(Z[:, sel])
        resid = UZ[:, sel] @ (Z[:, sel].conj().T @ basis) - roots[j] * basis
        residual = max(residual, float(np.linalg.norm(resid, axis=0).max()))
        gram = max(gram, float(np.abs(basis.conj().T @ basis - np.eye(sel.sum())).max()))
        bases.append(basis * np.sqrt(N))
    return bases, residual, gram, float(np.abs(D).max())


def schur_levels(U, r_hint):
    """The Schur route spectrum() replaced, kept as its oracle: r*, the global
    phase and the levels of one complex Schur decomposition U = Z T Z^H,
    grouped by the nearest r*-th root of the scalar.  Returns (r*, phase,
    [(eigenphase, projector, canonical basis)])."""
    N = U.N
    T, Z = scipy.linalg.schur(U.matrix, output="complex")
    lam = np.diag(T)
    power = np.ones(N, dtype=complex)
    for r_star in range(1, 2 * r_hint + 1):
        power = power * lam
        scale = power.mean()
        if np.abs(power - scale).max() <= 1e-8:
            break
    else:
        raise AssertionError("the oracle found no scalar power")
    phase = float(np.angle(scale))
    if phase < -np.pi + 1e-8:
        phase += 2 * np.pi
    nearest = np.rint((np.angle(lam) * r_star - phase) / (2 * np.pi)).astype(int) % r_star
    levels = []
    for j in np.unique(nearest):
        Zj = Z[:, nearest == j]
        root = np.exp(1j * (phase + 2 * np.pi * j) / r_star)
        levels.append((root, Zj @ Zj.conj().T, _level_bases(Zj[None])[0] * np.sqrt(N)))
    return r_star, phase, levels


def generic_spectrum(m, N):
    """The propagator's spectrum by the route for any periodic unitary."""
    return spectrum(propagator(m, N), order_mod(m, N))


def assert_matches_schur(m, N, route=generic_spectrum):
    U = propagator(m, N)
    sp = route(m, N)
    r_star, phase, want = schur_levels(U, order_mod(m, N))
    assert sp.scalar_period == r_star, N
    assert abs(np.exp(1j * sp.global_phase) - np.exp(1j * phase)) <= 1e-9, N
    assert len(sp.levels) == len(want), N
    for level, (root, proj, basis) in zip(sp.levels, want):
        assert abs(level.eigenphase - root) <= 1e-9, N
        P = level.basis @ level.basis.conj().T / N
        assert np.abs(P - proj).max() <= 1e-9, (N, root)
        assert np.abs(level.basis - basis).max() <= 1e-10, (N, root)


@pytest.mark.parametrize("m", POOL_MAPS + [OTHER], ids=str)
def test_spectrum_matches_schur_oracle(m):
    for N in range(65, 161, 2):
        assert_matches_schur(m, N)


@pytest.mark.parametrize("m", POOL_MAPS + [OTHER], ids=str)
def test_propagator_spectrum_matches_schur_oracle(m):
    for N in range(65, 161, 2):
        assert_matches_schur(m, N, propagator_spectrum)


# N = 2..160 in slices of about equal cost, so no one case dominates, and
# the N = 214 where a fixed rotation fails
ORACLE_SLICES = [range(2, 70), range(70, 105), range(105, 130), range(130, 148), range(148, 161)]
ORACLE_CASES = [(m, r) for m in POOL_MAPS + [OTHER] for r in ORACLE_SLICES] + [(OTHER, [214])]


ORACLE_IDS = [f"{m}-N{r[0]}-{r[-1]}" for m, r in ORACLE_CASES]


def assert_batched_levels_match(m, sizes, route):
    for N in sizes:
        U = propagator(m, N)
        sp = route(m, N)
        bases, residual, gram, normality = oracle_built_levels(U, sp)
        assert len(sp.levels) == len(bases), N
        for level, basis in zip(sp.levels, bases):
            assert np.array_equal(level.basis, basis), (N, level.eigenphase)
        assert (sp.residual, sp.gram_defect, sp.normality_defect) == (residual, gram, normality), N


@pytest.mark.parametrize("m, sizes", ORACLE_CASES, ids=ORACLE_IDS)
def test_batched_levels_match_the_per_level_oracle_bit_for_bit(m, sizes):
    assert_batched_levels_match(m, sizes, generic_spectrum)


@pytest.mark.parametrize("m, sizes", ORACLE_CASES, ids=ORACLE_IDS)
def test_propagator_spectrum_levels_match_the_per_level_oracle_bit_for_bit(m, sizes):
    assert_batched_levels_match(m, sizes, propagator_spectrum)


@pytest.mark.parametrize("N", [33, 60])
def test_level_bases_of_a_stack_match_the_oracle_level_by_level(N):
    # one stack per multiplicity, each level turned by a seeded unitary so
    # the pivots have work to do; 33 and 60 have multiplicities 1, 2 and >= 3
    sp = spectrum(propagator(A, N), order_mod(A, N))
    mults = sorted(set(sp.multiplicities()))
    assert {1, 2} <= set(mults) and mults[-1] >= 3
    for m in mults:
        Zs = np.stack([
            level.basis / np.sqrt(N) @ scipy.stats.unitary_group.rvs(m, random_state=k)
            if m > 1 else level.basis / np.sqrt(N) * np.exp(0.7j)
            for k, level in enumerate(sp.levels) if level.multiplicity == m
        ])
        got = _level_bases(Zs)
        assert got.shape == Zs.shape
        for Zj, basis in zip(Zs, got):
            assert np.array_equal(basis, _level_basis_oracle(Zj)), (N, m)


def test_a_failing_level_is_named_in_eigenphase_order(monkeypatch):
    # at N = 33 the levels j = 0, 1, 3 have multiplicities 2, 1, 2: spoil the
    # second level of multiplicity 2, built after the level of multiplicity 1
    U = propagator(A, 33)
    sp = spectrum(U, order_mod(A, 33))
    assert sp.multiplicities()[:3] == (2, 1, 2)
    build = quantum._level_bases

    def spoiled(Zs):
        B = build(Zs)
        if Zs.shape[2] == 2:
            B[1] *= 1.1  # Gram defect 0.21, residual still within its gate
        return B

    monkeypatch.setattr(quantum, "_level_bases", spoiled)
    with pytest.raises(ConstructionFailed, match=r"Gram defect 2\.100e-01 at or before eigenphase index 3$"):
        spectrum(U, order_mod(A, 33))


def test_spectrum_separates_levels_a_fixed_rotation_cannot():
    # r* = 108: under the first pass's rotation alone two levels lie 2.4e-8
    # apart, and the canonical basis of a level moves by 2.6 (0.17 sqrt(N))
    # against Schur while the residual (2.8e-9) and the normality defect
    # (2.9e-9) stay inside their 1e-8 gates
    U = propagator(OTHER, 214)
    assert spectrum(U, order_mod(OTHER, 214)).scalar_period == 108
    assert_matches_schur(OTHER, 214)
    assert propagator_spectrum(OTHER, 214).scalar_period == 108
    assert_matches_schur(OTHER, 214, propagator_spectrum)


def test_spectrum_rejects_levels_that_collide_under_the_first_rotation():
    # theta and 2*alpha0 - theta give the same cos(theta - alpha0): the
    # Hermitian matrix of the first pass cannot tell those levels apart
    alpha0 = quantum._ALPHA0
    theta = alpha0 + np.pi / 4 + np.pi / 2 * np.array([0, 0, 1, 2, 3, 3])
    assert np.allclose(np.cos(theta[[0, 2]] - alpha0), np.cos(theta[[5, 3]] - alpha0))
    for seed in (3, 4):
        V = scipy.stats.unitary_group.rvs(6, random_state=seed)
        U = V @ np.diag(np.exp(1j * theta)) @ V.conj().T
        assert np.abs(np.linalg.matrix_power(U, 4) - np.exp(4j * theta[0]) * np.eye(6)).max() <= 1e-12
        with pytest.raises(ConstructionFailed):
            spectrum(Operator(6, U), 4)


def test_spectrum_every_dimension_to_300():
    for N in range(2, 301):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        assert sum(sp.multiplicities()) == N
        assert sp.residual <= 1e-12 and sp.normality_defect <= 1e-12, N
        fast = propagator_spectrum(A, N)
        assert fast.scalar_period == sp.scalar_period, N
        assert fast.multiplicities() == sp.multiplicities(), N
        assert fast.residual <= 1e-12 and fast.normality_defect <= 1e-12, N


@pytest.mark.parametrize("m", [CatMap(-3, -4, -2, -3), CatMap(-3, -2, -4, -3)], ids=str)
def test_scalar_period_reads_both_rows(m):
    # at N = 2, 4, 8, 10, ... one row of A^ord mod 2N has v1*v2 = 0 and the
    # other has v1*v2 = N: the first map passes on row 1, its transpose on row 2
    for N in range(2, 65):
        fast, sp = propagator_spectrum(m, N), generic_spectrum(m, N)
        assert fast.scalar_period == sp.scalar_period, N
        assert fast.multiplicities() == sp.multiplicities(), N


def test_a_wrong_scalar_period_raises_and_the_sweep_moves_on(monkeypatch):
    # N = 8: ord(A, 8) = 4, and both rows of A^4 mod 16 have v1*v2 = 8, so
    # U^4 flips the sign of T(e1) and T(e2) and r* = 8.  With r* taken as 4,
    # U^4 e0 is a multiple of e_4, not of e0: the vector gate sees it
    assert (order_mod(A, 8), quantum._scalar_period(A, 8)) == (4, 8)
    monkeypatch.setattr(quantum, "_scalar_period", lambda m, N: order_mod(m, N))
    with pytest.raises(NoScalarPower, match="N=8$"):
        propagator_spectrum(A, 8)
    records, failures = census.quantum_sweep(A, [7, 8, 9], Observable.cosine(1), (1, 0))
    assert [r.N for r in records] == [7, 9]
    assert [N for N, _ in failures] == [8] and failures[0][1].startswith("NoScalarPower: ")


def test_one_eigensolve_per_dimension(monkeypatch, capsys):
    calls = []
    solve = quantum._rotated_eigh

    def counting(U, alpha):
        calls.append(len(U))
        return solve(U, alpha)

    monkeypatch.setattr(quantum, "_rotated_eigh", counting)
    # one usable CPU: the sweep runs in this process, where the calls are counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    records, failures = census.quantum_sweep(A, range(5, 21), Observable.cosine(1), (1, 0))
    assert len(records) == 16 and not failures
    assert calls == list(range(5, 21))
    calls.clear()
    assert cli.main(["spectrum", "-N", "31"]) == 0
    capsys.readouterr()
    assert calls == [31]
    calls.clear()
    variance_stat(A, 13, Observable.cosine(1))
    assert calls == [13]


def test_eigenbasis_is_stacked_once():
    sp = spectrum(propagator(A, 13), order_mod(A, 13))
    basis = sp.eigenbasis()
    assert sp.eigenbasis() is basis and not basis.flags.writeable
    assert np.array_equal(basis, np.hstack([level.basis for level in sp.levels]))


def test_level_bases_are_read_only_views_of_the_eigenbasis():
    for sp in (propagator_spectrum(A, 13), spectrum(propagator(A, 33), order_mod(A, 33))):
        basis = sp.eigenbasis()
        for level in sp.levels:
            assert np.shares_memory(level.basis, basis)
            with pytest.raises(ValueError, match="read-only"):
                level.basis[0, 0] = 0.0


def test_level_basis_depends_on_the_projector_alone():
    # any orthonormal basis of a level's range gives the same canonical
    # basis, phases included: the rule reads only P = Zj Zj^H
    for N in (33, 60):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        for k, level in enumerate(sp.levels):
            Zj = level.basis / np.sqrt(N)
            m = level.multiplicity
            W = np.full((1, 1), np.exp(0.7j))
            if m > 1:
                W = scipy.stats.unitary_group.rvs(m, random_state=k)
            assert np.abs(_level_bases((Zj @ W)[None])[0] - Zj).max() <= 1e-12, (N, k)


def _perturbed(U, eps, seed):
    """expm(eps * H) @ U for a seeded anti-Hermitian H with unit-scale entries."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((U.N, U.N)) + 1j * rng.standard_normal((U.N, U.N))
    return Operator(U.N, scipy.linalg.expm(eps * (G - G.conj().T) / 2) @ U.matrix)


@pytest.mark.parametrize("N", [13, 33, 97])
def test_statistics_stable_under_tiny_perturbation(N):
    # degenerate eigenspaces at these N have exactly tied projector columns;
    # the reported statistics must not depend on how rounding breaks them
    f = Observable.cosine(1)
    U = propagator(A, N)
    r = order_mod(A, N)
    base = spectrum(U, r)
    assert max(base.multiplicities()) > 1
    for seed in (1, 2):
        moved = spectrum(_perturbed(U, 1e-13, seed), r)
        for stat in (variance_stat, max_deviation):
            before = stat(A, N, f, eigsys=base)
            after = stat(A, N, f, eigsys=moved)
            assert abs(after - before) <= 1e-9, (stat.__name__, seed)


def test_spectrum_rejects_non_normal_periodic_matrix():
    # S diag(roots) S^-1 has a scalar fourth power but is not normal: its
    # eigenvectors are not orthogonal, so no orthonormal eigenbasis exists
    rng = np.random.default_rng(7)
    N = 8
    S = np.eye(N) + 3.0 * np.triu(rng.standard_normal((N, N)), 1)
    assert np.linalg.cond(S) > 1e3
    roots = np.exp(2j * np.pi * np.arange(N) / 4)
    M = S @ np.diag(roots) @ np.linalg.inv(S)
    assert np.abs(np.linalg.matrix_power(M, 4) - np.eye(N)).max() <= 1e-12
    with pytest.raises(ConstructionFailed):
        spectrum(Operator(N, M), 4)


def test_spectrum_reports_check_margins():
    for N in (5, 33, 97):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        assert 0.0 < sp.residual <= 1e-8
        assert 0.0 <= sp.gram_defect <= 1e-10
        assert 0.0 <= sp.normality_defect <= 1e-10
    # the identity is already triangular and its basis is e_i times sqrt(N)
    sp = spectrum(Operator.identity(7), 1)
    assert sp.residual == sp.gram_defect == sp.normality_defect == 0.0


def test_spectrum_gates_reject_eigenvectors_that_do_not_diagonalize_u(monkeypatch):
    rotated_eigh = quantum._rotated_eigh

    def mixed(U, alpha):  # two eigenvectors of different levels, mixed
        Z, _ = rotated_eigh(U, alpha)
        Z[:, :2] = Z[:, :2] @ np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return Z, U @ Z

    monkeypatch.setattr(quantum, "_rotated_eigh", mixed)
    with pytest.raises(ConstructionFailed, match=r"off-diagonal entry 9\.802e-02$"):
        propagator_spectrum(A, 31)

    def turned(U, alpha):  # U Z turned off every r*-th root by 1e-3
        Z, UZ = rotated_eigh(U, alpha)
        return Z, UZ * np.exp(1e-3j)

    monkeypatch.setattr(quantum, "_rotated_eigh", turned)
    with pytest.raises(ConstructionFailed, match=r"lies 1\.000e-03 from every r\*-th root$"):
        propagator_spectrum(A, 31)


def test_propagator_gates_reject_a_wrong_word_and_a_wrong_scale(monkeypatch):
    theta_word, fix_global_phase = quantum._theta_word, quantum._fix_global_phase
    monkeypatch.setattr(quantum, "_theta_word", lambda *abcd: theta_word(*abcd)[1:])
    with pytest.raises(ConstructionFailed, match=r"intertwining defect 3\.587e-01 at N=31$"):
        propagator(A, 31)
    monkeypatch.setattr(quantum, "_theta_word", theta_word)
    monkeypatch.setattr(quantum, "_fix_global_phase", lambda M: 2 * fix_global_phase(M))
    with pytest.raises(NotUnitary, match="N=31 failed the unitarity tolerance$"):
        propagator(A, 31)
    with pytest.raises(ConstructionFailed, match="zero leading column"):
        fix_global_phase(np.zeros((31, 31), dtype=np.complex128))


def test_spectrum_rejects_aperiodic_unitary():
    angles = 2 * np.pi * np.array([0.1234567, 0.7071067, 0.3141592, 0.9182736])
    U = Operator(4, np.diag(np.exp(1j * angles)))
    with pytest.raises(NoScalarPower):
        spectrum(U, 3)


# --------------------------------------------------------------- expectations


def test_expectation_identity_and_constant():
    psi = StateVector(6, np.ones(6))
    assert abs(expectation(Operator.identity(6), psi) - 1) < 1e-12
    op = weyl_quantize(6, Observable.constant(3.25))
    assert abs(expectation(op, psi) - 3.25) < 1e-12


def test_expectation_requires_normalized_state():
    psi = StateVector(4, 2 * np.ones(4))
    with pytest.raises(NotNormalized):
        expectation(Operator.identity(4), psi)
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(Operator.identity(5), psi.normalized())


def test_expectation_hermitian_real_and_bounded():
    sp = spectrum(propagator(A, 13), order_mod(A, 13))
    op = weyl_quantize(13, Observable.cosine(1))
    T = translation(13, (1, 0))
    for level in sp.levels:
        for i in range(level.multiplicity):
            psi = StateVector(13, level.basis[:, i])
            val = expectation(op, psi)
            assert abs(val.imag) <= 1e-10
            # unit operator norm gives a Cauchy-Schwarz bound
            assert abs(expectation(T, psi)) <= 1 + 1e-10


def test_state_vector_basics():
    psi = StateVector(4, [2, 0, 0, 0])
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.is_normalized()
    phi = psi.normalized()
    assert np.allclose(phi.amplitudes, psi.amplitudes)
    assert abs(psi.inner(psi) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        StateVector(3, [1, 2])
    with pytest.raises(ValueError):
        StateVector(2, [0, 0]).normalized()
    with pytest.raises(ValueError, match="dimension must be positive"):
        StateVector(0, [])


# ------------------------------------------------------------------ statistics


def test_variance_fixture_n5():
    assert variance_stat(A, 5, Observable.cosine(1)) == pytest.approx(
        VARIANCE_N5_COS, abs=1e-8
    )


def test_max_deviation_fixture_n5():
    assert max_deviation(A, 5, Observable.cosine(1)) == pytest.approx(
        MAX_DEV_N5_COS, abs=1e-8
    )


def test_variance_constant_observable_vanishes():
    assert variance_stat(A, 7, Observable.constant(4.2)) <= 1e-12
    assert max_deviation(A, 7, Observable.constant(4.2)) <= 1e-10


def test_variance_in_unit_interval_n5():
    v = variance_stat(A, 5, Observable.cosine(1))
    assert 0.0 <= v <= 1.0


def test_variance_decreasing_trend():
    f = Observable.cosine(1)
    values = []
    for N in (11, 23, 47, 101):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        values.append(variance_stat(A, N, f, eigsys=sp))
    assert values == sorted(values, reverse=True)


def test_fourth_moment_fixture_and_bound():
    fm = fourth_moment(A, 5, (1, 0))
    assert fm.s4 == pytest.approx(S4_N5, abs=1e-9)
    assert fm.bound == pytest.approx(BOUND_N5, rel=1e-12)
    assert fm.solution_count == 15 and fm.order == 3
    assert fm.s4 <= fm.bound * (1 + 1e-6)


def test_fourth_moment_bound_primes():
    for N in (7, 11, 13):
        fm = fourth_moment(A, N, (1, 0))
        assert fm.s4 <= fm.bound * (1 + 1e-6) + 1e-10


def test_fourth_moment_max_dev_is_max_deviation_bit_for_bit():
    for N in range(3, 65):
        sp = propagator_spectrum(A, N)
        fm = fourth_moment(A, N, (1, 0), eigsys=sp)
        assert fm.max_dev == max_deviation(A, N, Observable.harmonic((1, 0)), eigsys=sp), N


def test_fourth_moment_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        fourth_moment(A, 5, (0, 0))
    with pytest.raises(ZeroVector):
        fourth_moment(A, 5, (5, 10))


def test_fourth_moment_single_term_below_total():
    sp = spectrum(propagator(A, 11), order_mod(A, 11))
    fm = fourth_moment(A, 11, (1, 0), eigsys=sp)
    B = sp.eigenbasis()
    vals = (np.conj(B) * (translation(11, (1, 0)).matrix @ B)).sum(axis=0) / 11
    assert (np.abs(vals) ** 4).max() <= fm.s4 + 1e-15


def _rotated_basis(sp, seed):
    cols = []
    for k, level in enumerate(sp.levels):
        m = level.multiplicity
        if m == 1:
            W = np.eye(1)
        else:
            W = scipy.stats.unitary_group.rvs(m, random_state=seed + k)
        cols.append(level.basis @ W)
    return np.hstack(cols)


def test_block_statistic_invariant_under_rotations():
    # the full within-eigenspace Frobenius mass is basis-independent even
    # though the plain diagonal variance is not
    N = 5
    sp = spectrum(propagator(A, N), order_mod(A, N))
    op = weyl_quantize(N, Observable.cosine(1)).matrix

    def block_mass(B):
        total = 0.0
        offset = 0
        for level in sp.levels:
            m = level.multiplicity
            V = B[:, offset : offset + m]
            block = V.conj().T @ (op @ V) / N
            total += float(np.sum(np.abs(block) ** 2))
            offset += m
        return total / N

    base = block_mass(sp.eigenbasis())
    for seed in (1, 2, 3):
        assert block_mass(_rotated_basis(sp, 100 * seed)) == pytest.approx(base, abs=1e-10)


def test_diagonal_variance_is_basis_dependent():
    # documents why reported statistics fix the canonical basis: rotating
    # inside degenerate eigenspaces moves the diagonal-only variance
    N = 5
    sp = spectrum(propagator(A, N), order_mod(A, N))
    op = weyl_quantize(N, Observable.cosine(1)).matrix
    base = variance_stat(A, N, Observable.cosine(1), eigsys=sp)
    spread = 0.0
    for seed in (11, 22, 33):
        B = _rotated_basis(sp, seed)
        vals = (np.conj(B) * (op @ B)).sum(axis=0) / N
        spread = max(spread, abs(float(np.mean(np.abs(vals) ** 2)) - base))
    assert spread > 1e-3


def test_fourth_moment_bound_holds_for_rotated_bases():
    # the ceiling is uniform over eigenbases, not just the canonical one
    for N in (5, 13):
        sp = spectrum(propagator(A, N), order_mod(A, N))
        fm = fourth_moment(A, N, (1, 0), eigsys=sp)
        T = translation(N, (1, 0)).matrix
        for seed in (5, 6):
            B = _rotated_basis(sp, seed)
            vals = (np.conj(B) * (T @ B)).sum(axis=0) / N
            s4 = float(np.sum(np.abs(vals) ** 4))
            assert s4 <= fm.bound * (1 + 1e-6) + 1e-10


# -------------------------------------------------------------- serialization


def test_operator_json_roundtrip():
    U = propagator(A, 6)
    data = U.to_jsonable()
    assert data["N"] == 6
    back = Operator.from_jsonable(data)
    assert np.abs(back.matrix - U.matrix).max() < 1e-15
    with pytest.raises(ValueError, match="expected a 6x6 matrix"):
        Operator(6, U.matrix[:5])
    with pytest.raises(ValueError, match="dimension must be positive"):
        Operator(0, np.zeros((0, 0)))


def test_spectrum_jsonable_layout():
    sp = spectrum(propagator(A, 5), order_mod(A, 5))
    data = sp.to_jsonable()
    assert data["N"] == 5 and data["scalar_period"] == sp.scalar_period
    level = data["levels"][0]
    cos, sin = level["eigenphase"]
    assert abs(complex(cos, sin)) == pytest.approx(1.0, abs=1e-12)
    assert len(level["basis"]) == level["multiplicity"]
    assert sum(lv["multiplicity"] for lv in data["levels"]) == 5
