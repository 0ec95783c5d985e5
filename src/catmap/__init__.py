"""Quantized hyperbolic torus maps: exact arithmetic, quantization, censuses.

`import catmap`, and every CLI command but the quantum ones and `check`,
leave `catmap.quantum` unimported: its names here resolve on first access
(PEP 562), so an order or census call does not pay for compiling and
importing the propagator, spectrum and moment code it never runs.
"""

from .arith import (
    CatMap,
    DEFAULT_MAP,
    Factorization,
    Mat2Mod,
    factorize,
    is_probable_prime,
    mat_pow_mod,
    order_dividing,
    order_mod,
    order_mod_brute,
    primes_up_to,
)
from .quadorder import (
    ClassSplit,
    CongruenceCount,
    OrderProfile,
    PrimeClass,
    SmallOrderFactorization,
    SplitType,
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
from .census import (
    IntegerRecord,
    PrimeRecord,
    SweepRecord,
    c_eta,
    integer_census,
    load_results,
    prime_census,
    quantum_sweep,
    resume_point,
    small_order_report,
    store_results,
)
from . import errors

__version__ = "0.1.0"

# `catmap.quantum` and its names here, which resolve on first access
_QUANTUM_NAMES = frozenset({
    "Observable",
    "Operator",
    "Spectrum",
    "StateVector",
    "egorov_residual",
    "expectation",
    "fourth_moment",
    "max_deviation",
    "propagator",
    "propagator_spectrum",
    "spectrum",
    "translation",
    "translation_trace",
    "variance_stat",
    "weyl_quantize",
    "quantum",
})

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _QUANTUM_NAMES
)


def __getattr__(name: str):
    if name not in _QUANTUM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    quantum = importlib.import_module(".quantum", __name__)  # binds catmap.quantum
    if name != "quantum":
        globals()[name] = getattr(quantum, name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _QUANTUM_NAMES)
