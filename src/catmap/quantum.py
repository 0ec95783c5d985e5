"""Quantum model on an N-point discretized torus.

States are complex functions on Z/NZ with the normalized inner product
<phi, psi> = (1/N) * sum_Q phi(Q) * conj(psi(Q)).  Phase-space translations
act through the finite Heisenberg group; quantizing an integer cat map gives
a unitary propagator that conjugates translations according to the classical
action on lattice vectors (row vector times matrix).

The propagator is built the same way for every N >= 2 (Hannay-Berry, Knabe):
the map, a member of the theta group, is factored into the generators
S = [[0,-1],[1,0]], T^2 = [[1,2],[0,1]] and -I by an even-step Euclid, and
their quantizations (unitary DFT, quadratic-phase diagonal, parity Q -> -Q)
are multiplied in the same order.

The spectrum comes from one numpy Hermitian eigensolve.  A periodic U has
every eigenphase on the grid of r*-th roots of the scalar U^{r*}.  The
Hermitian (e^{-i alpha} U + e^{i alpha} U^H)/2 commutes with U and takes
r* distinct values on that grid when alpha lies a quarter step off it (no
two grid points are then mirror images about alpha or alpha + pi), so its
eigenvectors are U's.  For a propagator, r* comes from arithmetic (it is
ord(A, N) or 2*ord(A, N), see `_scalar_period`) and the scalar from r*
products of U with one vector; for any other periodic unitary, `spectrum`
finds both from a first eigensolve at a fixed rotation.  Inside a
degenerate level the basis, on which the diagonal statistics depend, is
the greedy pivoted Gram-Schmidt of the level projector's columns, with
norms equal to a relative 1e-9 tied and ties going to the smallest index,
so neither rounding nor the eigenvectors LAPACK returns can change it.  The
levels of one multiplicity share one stacked pass; each basis still
depends on its own projector alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Iterator, Mapping

import numpy as np

from .arith import CatMap, mat_pow_mod, order_mod
from .errors import (
    ConstructionFailed,
    NoScalarPower,
    NotNormalized,
    NotUnitary,
    ZeroVector,
)
from .quadorder import congruence_count

UNITARY_TOL = 1e-10
EGOROV_TOL = 1e-9
SPECTRAL_TOL = 1e-8
# an eigenvalue further than this from every r*-th root belongs to no level
ROOT_TOL = 1e-6
# entries within this relative distance of the largest one tie for a pivot
_TIE_RTOL = 1e-9
# the first pass's rotation, used before the grid of r*-th roots is known.
# Two levels it mixes move the Rayleigh quotients off the unit circle or
# their powers off a scalar, unless the mixing is too small to move r*.
_ALPHA0 = pi * (sqrt(5) - 1) / 2


def _as_complex_matrix(matrix, N: int) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128)
    if out.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Wave function on Z/NZ under the normalized inner product."""

    N: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be positive")
        arr = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if arr.shape != (self.N,):
            raise ValueError(f"expected {self.N} amplitudes, got {arr.shape}")
        object.__setattr__(self, "amplitudes", arr)

    def inner(self, other: "StateVector") -> complex:
        """<self, other>, conjugate-linear in the second argument."""
        return complex(np.vdot(other.amplitudes, self.amplitudes)) / self.N

    def norm(self) -> float:
        return sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) / self.N)

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.N, self.amplitudes / nrm)

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= 1e-12


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense linear operator on the N-point state space."""

    N: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix, self.N))

    @classmethod
    def identity(cls, N: int) -> "Operator":
        return cls(N, np.eye(N, dtype=np.complex128))

    def adjoint(self) -> "Operator":
        return Operator(self.N, self.matrix.conj().T)

    def unitarity_defect(self) -> float:
        delta = self.matrix.conj().T @ self.matrix - np.eye(self.N)
        return float(np.abs(delta).max())

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def is_unitary(self) -> bool:
        return self.unitarity_defect() <= UNITARY_TOL

    def to_jsonable(self) -> dict:
        """JSON layout: {"N": int, "matrix": rows of [re, im] pairs}."""
        stacked = np.stack([self.matrix.real, self.matrix.imag], axis=-1)
        return {"N": self.N, "matrix": stacked.tolist()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Operator":
        raw = np.asarray(data["matrix"], dtype=float)
        return cls(int(data["N"]), raw[..., 0] + 1j * raw[..., 1])


@dataclass(frozen=True, eq=False)
class Observable:
    """Classical observable given by finitely many Fourier coefficients.

    Keys are integer lattice vectors n = (n1, n2); the coefficient at (0, 0)
    is the phase-space average of the function.
    """

    coefficients: Mapping[tuple, complex]

    def __post_init__(self):
        clean = {}
        for key, value in self.coefficients.items():
            n1, n2 = key
            clean[(int(n1), int(n2))] = complex(value)
        object.__setattr__(self, "coefficients", clean)

    @classmethod
    def constant(cls, value: complex) -> "Observable":
        return cls({(0, 0): value})

    @classmethod
    def harmonic(cls, n) -> "Observable":
        """The single plane wave with unit coefficient at frequency n."""
        return cls({(int(n[0]), int(n[1])): 1.0})

    @classmethod
    def cosine(cls, axis: int = 1) -> "Observable":
        """2*cos(2*pi*x_axis) for axis 1 or 2."""
        if axis == 1:
            return cls({(1, 0): 1.0, (-1, 0): 1.0})
        if axis == 2:
            return cls({(0, 1): 1.0, (0, -1): 1.0})
        raise ValueError("axis must be 1 or 2")

    @property
    def mean(self) -> complex:
        return self.coefficients.get((0, 0), 0.0 + 0.0j)

    def is_real_valued(self) -> bool:
        keys = set(self.coefficients)
        for n1, n2 in keys | {(-n1, -n2) for n1, n2 in keys}:
            left = self.coefficients.get((n1, n2), 0.0)
            right = self.coefficients.get((-n1, -n2), 0.0)
            if abs(complex(left).conjugate() - complex(right)) > 1e-12:
                return False
        return True

    def items(self) -> Iterator:
        return iter(sorted(self.coefficients.items()))


def _apply_weyl(N: int, f: Observable, X: np.ndarray) -> np.ndarray:
    """Op_f @ X for an N-row matrix X, without forming Op_f.

    Each term (n, c) of f adds c * T(n) @ X, where
    (T(n) X)[Q] = exp(i*pi*n1*n2/N) * exp(2*pi*i*n2*Q/N) * X[(Q + n1) mod N]:
    a cyclic row shift times a phase vector.  All phase arguments are reduced
    as exact integers, so T(n) depends on n only through n mod 2N.
    """
    Q = np.arange(N)
    out = np.zeros(X.shape, dtype=np.complex128)
    for (n1, n2), coeff in f.items():
        out += (coeff * _weyl_phase(N, (n1, n2), Q))[:, None] * X[(Q + n1 % N) % N]
    return out


def _weyl_phase(N: int, n, Q: np.ndarray) -> np.ndarray:
    """exp(i*pi*n1*n2/N) * exp(2*pi*i*n2*Q/N) at the integers Q mod N, the
    phase of row Q of T(n); both arguments are reduced as exact integers."""
    n1, n2 = n
    half = (n1 * n2) % (2 * N)
    ramp = ((n2 % N) * Q) % N
    return np.exp(1j * pi * half / N) * np.exp(2j * pi * ramp / N)


def weyl_quantize(N: int, f: Observable) -> Operator:
    """Operator sum of translations weighted by the Fourier coefficients."""
    if N < 1:
        raise ValueError("dimension must be positive")
    return Operator(N, _apply_weyl(N, f, np.eye(N, dtype=np.complex128)))


def translation(N: int, n) -> Operator:
    """Phase-space translation operator T(n) for the lattice vector n."""
    return weyl_quantize(N, Observable.harmonic(n))


def translation_trace(N: int, n) -> complex:
    """Trace of T(n): N * exp(i*pi*n1*n2/N) = +-N when n vanishes mod N, else 0."""
    if N < 1:
        raise ValueError("dimension must be positive")
    n1, n2 = int(n[0]), int(n[1])
    if n1 % N or n2 % N:
        return 0j
    return complex(-N if (n1 * n2 // N) % 2 else N)


def _row_times(m: CatMap, n) -> tuple:
    """Row vector n times the matrix, in exact integers."""
    return (n[0] * m.a + n[1] * m.c, n[0] * m.b + n[1] * m.d)


def _theta_word(a: int, b: int, c: int, d: int) -> tuple:
    """Factor [[a, b], [c, d]] into S = [[0,-1],[1,0]], T^2k and -I.

    Returns letters ("S",), ("T2", k) for [[1, 2k], [0, 1]] and ("-I",)
    whose left-to-right product is the matrix.  An even-step Euclid on the
    first column: a and c have opposite parity in the theta group, so the
    remainder of a modulo 2c lies strictly inside (-|c|, |c|) and |c| falls
    at every step.  Exact integer arithmetic throughout.
    """
    if a * d - b * c != 1 or (a * b) % 2 or (c * d) % 2:
        raise ValueError(f"[[{a}, {b}], [{c}, {d}]] is not in the theta group")
    word = []
    while c != 0:
        # T^{-2k} on the left takes a to a - 2kc in (-|c|, |c|)
        r = a % (2 * abs(c))
        if r > abs(c):
            r -= 2 * abs(c)
        k = (a - r) // (2 * c)
        if k:
            word.append(("T2", k))
        # then S^{-1} on the left: (r, c) -> (c, -r)
        word.append(("S",))
        a, b, c, d = c, d, -r, 2 * k * d - b
    if a == -1:
        word.append(("-I",))
        b = -b
    if b:
        word.append(("T2", b // 2))
    return tuple(word)


def _intertwining_defect(U: np.ndarray, m: CatMap, vectors) -> float:
    """Largest entry of T(n) U - U T(nA) over the lattice vectors n (0.0 if none).

    For unitary U this matrix is U (U* T(n) U - T(nA)): it vanishes exactly
    when conjugation by U takes T(n) to T(nA), it has the same operator norm,
    and its largest entry is within a factor sqrt(N) of the other's.
    No translation matrix is formed: T(n) U gathers the rows of U, row Q
    being U[Q + n1] times the phase of row Q of T(n), and U T(v) gathers
    its columns, column k being U[:, j] times the phase of row j of T(v),
    for j = k - v1 (indices mod N).
    """
    N = len(U)
    Q = np.arange(N)
    worst = 0.0
    for n in vectors:
        v = _row_times(m, n)
        j = (Q - v[0] % N) % N
        lhs = _weyl_phase(N, n, Q)[:, None] * U[(Q + n[0] % N) % N]
        rhs = U[:, j] * _weyl_phase(N, v, j)[None, :]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _first_max(mags: np.ndarray) -> np.ndarray:
    """Index of the largest entry along the last axis; ties (_TIE_RTOL) go to the smallest."""
    return np.argmax(mags >= mags.max(axis=-1, keepdims=True) * (1.0 - _TIE_RTOL), axis=-1)


def _fix_global_phase(matrix: np.ndarray) -> np.ndarray:
    """Rotate so the leading entry of column 0 is positive real.

    Ties in magnitude (flat columns are common here) break to the smallest
    row index, which keeps the convention reproducible across code paths.
    """
    pivot = matrix[_first_max(np.abs(matrix[:, 0])), 0]
    if pivot == 0.0:
        raise ConstructionFailed("zero leading column while fixing the phase")
    return matrix * (abs(pivot) / pivot)


def propagator(m: CatMap, N: int) -> Operator:
    """Unitary quantization of the cat map on the N-point state space.

    Conjugation by the result maps the translation at n to the translation
    at n*A (row action) for every lattice vector n.  The global phase is
    normalized so the leading entry of column 0 is positive real.
    """
    if N < 2:
        raise ValueError("dimension must be at least 2")
    Q = np.arange(N)
    matrix = np.eye(N, dtype=np.complex128)
    # U_{AB} = U_A U_B under the row action, so the letters multiply in order
    for letter in _theta_word(m.a, m.b, m.c, m.d):
        if letter[0] == "S":
            matrix = np.fft.fft(matrix, axis=1, norm="ortho")
        elif letter[0] == "T2":
            expo = ((letter[1] % N) * (Q * Q % N)) % N
            matrix *= np.exp(2j * pi * expo / N)[None, :]
        else:
            matrix = matrix[:, -Q % N]
    defect = _intertwining_defect(matrix, m, ((1, 0), (0, 1)))
    if defect > EGOROV_TOL:
        raise ConstructionFailed(
            f"generator intertwining defect {defect:.3e} at N={N}"
        )
    U = Operator(N, _fix_global_phase(matrix))
    if not U.is_unitary():
        raise NotUnitary(f"propagator at N={N} failed the unitarity tolerance")
    return U


def egorov_residual(U: Operator, m: CatMap, n_max: int) -> float:
    """`_intertwining_defect` of U over 0 < |n|_inf <= n_max (0.0 at n_max = 0):
    the largest entry of T(n) U - U T(nA), with nA in exact integers."""
    box = range(-n_max, n_max + 1)
    vectors = [(n1, n2) for n1 in box for n2 in box if (n1, n2) != (0, 0)]
    return _intertwining_defect(U.matrix, m, vectors)


@dataclass(frozen=True, eq=False)
class SpectralLevel:
    """One eigenphase with its multiplicity and an orthonormal basis.

    Basis columns have Euclidean norm sqrt(N), i.e. unit norm under the
    normalized inner product.  The basis is a read-only view of the level's
    columns in its spectrum's `eigenbasis()`.
    """

    eigenphase: complex
    multiplicity: int
    basis: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Levels of a periodic unitary, with the worst eigenvector residual, the
    worst level Gram defect and the largest off-diagonal entry of Z^H U Z over
    the eigenvectors Z the levels were built from."""

    N: int
    scalar_period: int
    global_phase: float
    levels: tuple
    residual: float
    gram_defect: float
    normality_defect: float
    _basis: np.ndarray

    def eigenbasis(self) -> np.ndarray:
        """All basis columns side by side, N columns in level order (read-only;
        each level's basis is a view of its columns)."""
        return self._basis

    def eigenphases_per_vector(self) -> np.ndarray:
        reps = [np.full(level.multiplicity, level.eigenphase) for level in self.levels]
        return np.concatenate(reps)

    def multiplicities(self) -> tuple:
        return tuple(level.multiplicity for level in self.levels)

    def to_jsonable(self) -> dict:
        """JSON layout: eigenphases as [cos, sin], bases as lists of columns
        of [re, im] pairs."""
        levels = []
        for level in self.levels:
            cols = np.stack(
                [level.basis.T.real, level.basis.T.imag], axis=-1
            ).tolist()
            levels.append(
                {
                    "eigenphase": [float(level.eigenphase.real), float(level.eigenphase.imag)],
                    "multiplicity": level.multiplicity,
                    "basis": cols,
                }
            )
        return {
            "N": self.N,
            "scalar_period": self.scalar_period,
            "global_phase": self.global_phase,
            "levels": levels,
        }


def _level_bases(Zs: np.ndarray) -> np.ndarray:
    """Greedy pivoted Gram-Schmidt of the columns P e_i of P = Zj Zj^H, for
    every level Zj of a stack Zs of one multiplicity m, shape (levels, N, m).

    Each step takes the column with the largest residual norm (`_first_max`).
    It runs on the coordinates Zj^H e_i, which have the inner products of the
    P e_i, so each basis, phase included, depends on its P alone.
    """
    rest = Zs.conj().transpose(0, 2, 1).copy()
    at, m = np.arange(len(rest)), rest.shape[1]
    coords = np.empty((len(rest), m, m), dtype=np.complex128)
    for k in range(m):
        norms = np.linalg.norm(rest, axis=1)
        pivot = _first_max(norms)
        coords[:, :, k] = c = rest[at, :, pivot] / norms[at, pivot][:, None]
        rest -= c[:, :, None] * (c.conj()[:, None, :] @ rest)
    return Zs @ coords


def _rotated_eigh(U: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(Z, U Z) for the eigenvectors Z of (e^{-i alpha} U + e^{i alpha} U^H)/2.

    That Hermitian matrix commutes with a normal U, so Z diagonalizes U as
    long as no two eigenvalues of U share a value of cos(theta - alpha).
    """
    turn = np.exp(-1j * alpha)
    _, Z = np.linalg.eigh((turn * U + np.conj(turn) * U.conj().T) / 2)
    return Z, U @ Z


def _principal_phase(scale: complex) -> float:
    """The angle of a scalar in (-pi + SPECTRAL_TOL, pi + SPECTRAL_TOL]."""
    phase = float(np.angle(scale))
    if phase < -pi + SPECTRAL_TOL:
        # a scalar at -1 gets the angle +pi whichever side rounding left it
        phase += 2 * pi
    return phase


def spectrum(U: Operator, r_hint: int) -> Spectrum:
    """Eigen-decomposition of any periodic unitary from two Hermitian
    eigensolves, see `_rotated_eigh`; `propagator_spectrum` needs only one.

    The first, at the fixed rotation _ALPHA0, gives Rayleigh quotients lam,
    which must lie within ROOT_TOL of the unit circle.  r* is the least k <=
    2*r_hint with the k-th powers of lam within SPECTRAL_TOL of their mean,
    whose `_principal_phase` is the global phase.  The levels then come from
    `_spectrum_at`.
    """
    if r_hint < 1:
        raise ValueError("the order hint must be positive")
    N = U.N
    Z, UZ = _rotated_eigh(U.matrix, _ALPHA0)
    lam = (Z.conj() * UZ).sum(axis=0)
    drift = float(np.abs(np.abs(lam) - 1.0).max())
    if drift > ROOT_TOL:
        raise ConstructionFailed(f"a Rayleigh quotient lies {drift:.3e} off the unit circle")
    power = np.ones(N, dtype=np.complex128)
    for r_star in range(1, 2 * r_hint + 1):
        power = power * lam
        scale = power.mean()
        if float(np.abs(power - scale).max()) <= SPECTRAL_TOL:
            break
    else:
        raise NoScalarPower(f"no power up to {2 * r_hint} of the propagator is scalar")
    return _spectrum_at(U, r_star, _principal_phase(scale))


def _scalar_period(m: CatMap, N: int) -> int:
    """r*, the least k with the propagator's U^k scalar: ord(A, N) when both
    rows v of A^ord mod 2N have v1*v2 = 0 mod 2N, else 2*ord(A, N).

    U^-k T(n) U^k = T(n A^k), and U^k is scalar iff it commutes with T(e1)
    and T(e2), which generate every translation up to phases.  That needs
    A^k = I mod N, so ord divides k; and for a row v = e_i A^k = e_i mod N,
    T(v) = e^{i pi v1 v2 / N} T(e_i), so U^k is scalar iff v1*v2 = 0 mod 2N
    for both rows.  For k in ord*Z those two signs multiply when the
    exponents add, so U^{2 ord} is always scalar (Hannay-Berry 1980, Keating
    1991).  `propagator_spectrum` still checks the scalar on U itself.
    """
    r = order_mod(m, N)
    M = mat_pow_mod(m, r, 2 * N)
    return r if (M.a * M.b) % (2 * N) == 0 and (M.c * M.d) % (2 * N) == 0 else 2 * r


def propagator_spectrum(m: CatMap, N: int) -> Spectrum:
    """Spectrum of `propagator(m, N)` from one Hermitian eigensolve.

    r* is `_scalar_period` (exact arithmetic), and the global phase is the
    `_principal_phase` of c = (U^{r*} e0)_0, from r* products of U with a
    vector.  U^{r*} e0 must lie within SPECTRAL_TOL of c e0, else
    `NoScalarPower`.  The levels then come from `_spectrum_at`, whose gates
    check every eigenvalue against the r*-th roots of c.
    """
    U = propagator(m, N)
    r_star = _scalar_period(m, N)
    e0 = np.zeros(N, dtype=np.complex128)
    e0[0] = 1.0
    v = e0
    for _ in range(r_star):
        v = U.matrix @ v
    scale = v[0]
    defect = float(np.abs(v - scale * e0).max())
    if defect > SPECTRAL_TOL:
        raise NoScalarPower(f"U^{r_star} moves e0 {defect:.3e} off its own line at N={N}")
    return _spectrum_at(U, r_star, _principal_phase(scale))


def _spectrum_at(U: Operator, r_star: int, phase: float) -> Spectrum:
    """Levels of U, given its scalar period r* and the angle of U^{r*}.

    One eigensolve rotates by (phase + pi/2)/r*, where the r*-th roots take
    r* distinct values of cos(theta - alpha), at least about pi^2/r*^2 apart;
    its Z must make Z^H U Z diagonal within tol = SPECTRAL_TOL.  Each
    eigenvalue joins the r*-th root of that scalar nearest in angle (so
    nearest), which must lie within ROOT_TOL.  A level's basis is
    `_level_bases` of its columns of Z, one call per multiplicity, checked by
    residual (tol) and Gram; a failure names the first failing level in
    eigenphase order.
    """
    N = U.N
    Z, UZ = _rotated_eigh(U.matrix, (phase + pi / 2) / r_star)
    D = Z.conj().T @ UZ
    lam = np.diag(D).copy()
    np.fill_diagonal(D, 0.0)
    normality = float(np.abs(D).max())
    if normality > SPECTRAL_TOL:
        raise ConstructionFailed(f"eigenvectors leave an off-diagonal entry {normality:.3e}")
    roots = np.exp(1j * (phase + 2 * pi * np.arange(r_star)) / r_star)
    nearest = np.rint((np.angle(lam) * r_star - phase) / (2 * pi)).astype(int) % r_star
    miss = float(np.abs(lam - roots[nearest]).max())
    if miss > ROOT_TOL:
        raise ConstructionFailed(f"an eigenvalue lies {miss:.3e} from every r*-th root")
    # levels in ascending j; the columns of each in eigh's order
    js, mults = np.unique(nearest, return_counts=True)
    cols, starts = np.argsort(nearest, kind="stable"), np.cumsum(mults) - mults
    basis = np.empty((N, N), dtype=np.complex128)
    residuals, grams = np.empty(len(js)), np.empty(len(js))
    for mult in set(mults.tolist()):  # np.unique would import numpy.ma
        at = np.flatnonzero(mults == mult)
        place = starts[at][:, None] + np.arange(mult)
        sel = cols[place]
        Zs, UZs = (M[:, sel].transpose(1, 0, 2) for M in (Z, UZ))
        B = _level_bases(Zs)
        # U B from U Z: each basis is Zj times Zj^H B
        resid = UZs @ (Zs.conj().transpose(0, 2, 1) @ B) - roots[js[at]][:, None, None] * B
        residuals[at] = np.linalg.norm(resid, axis=1).max(axis=1)
        grams[at] = np.abs(B.conj().transpose(0, 2, 1) @ B - np.eye(mult)).max(axis=(1, 2))
        basis[:, place] = B.transpose(1, 0, 2) * sqrt(N)
    residual, gram = np.maximum.accumulate(residuals), np.maximum.accumulate(grams)
    bad = np.flatnonzero((residual > SPECTRAL_TOL) | (gram > UNITARY_TOL))
    if bad.size:
        i = bad[0]
        raise ConstructionFailed(f"eigenvector residual {residual[i]:.3e} or Gram defect "
                                 f"{gram[i]:.3e} at or before eigenphase index {js[i]}")
    basis.flags.writeable = False
    levels = tuple(SpectralLevel(complex(roots[j]), int(mult), basis[:, s:s + mult])
                   for j, s, mult in zip(js, starts, mults))
    return Spectrum(N, r_star, phase, levels, float(residual[-1]), float(gram[-1]),
                    normality, basis)


def expectation(op: Operator, psi: StateVector) -> complex:
    """<Op psi, psi> for a normalized state."""
    if op.N != psi.N:
        raise ValueError("dimension mismatch")
    if not psi.is_normalized():
        raise NotNormalized("expectation requires a normalized state")
    return complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)) / psi.N


def _eigen_expectations(m: CatMap, N: int, f: Observable, eigsys) -> np.ndarray:
    """<Op_f psi, psi> for every column psi of the canonical eigenbasis."""
    if eigsys is None:
        eigsys = propagator_spectrum(m, N)
    basis = eigsys.eigenbasis()
    return (np.conj(basis) * _apply_weyl(N, f, basis)).sum(axis=0) / N


def variance_stat(m: CatMap, N: int, f: Observable, *, eigsys: Spectrum | None = None) -> float:
    """Mean squared deviation of eigenbasis expectations from the average.

    The value depends on the basis inside degenerate eigenspaces; it refers
    to the canonical basis of the spectrum, built from each level's projector
    by greedy pivoted Gram-Schmidt with ties broken to the smallest index.
    """
    vals = _eigen_expectations(m, N, f, eigsys)
    return float(np.mean(np.abs(vals - f.mean) ** 2))


def max_deviation(m: CatMap, N: int, f: Observable, *, eigsys: Spectrum | None = None) -> float:
    """Largest deviation of an eigenbasis expectation from the average."""
    vals = _eigen_expectations(m, N, f, eigsys)
    return float(np.abs(vals - f.mean).max())


@dataclass(frozen=True)
class FourthMoment:
    N: int
    n: tuple
    order: int
    solution_count: int
    s4: float
    bound: float
    max_dev: float


def fourth_moment(m: CatMap, N: int, n, *, eigsys: Spectrum | None = None) -> FourthMoment:
    """Fourth moment of translation matrix elements over the eigenbasis.

    Returns both the moment and the rigorous ceiling
    N * nu / ord^4 coming from the congruence solution count nu, and the
    largest |<T(n) psi, psi>|, equal to `max_deviation` of the harmonic at n
    on the same eigenbasis.
    """
    n = (int(n[0]), int(n[1]))
    if n[0] % N == 0 and n[1] % N == 0:
        raise ZeroVector("the frequency vector vanishes mod N")
    count = congruence_count(m, N, n)
    f = Observable.harmonic(n)
    vals = _eigen_expectations(m, N, f, eigsys)
    s4 = float(np.sum(np.abs(vals) ** 4))
    r = count.r
    bound = N * count.count / r**4
    return FourthMoment(N, n, r, count.count, s4, bound, float(np.abs(vals - f.mean).max()))
