"""Quantized hyperbolic torus maps: exact arithmetic, quantization, censuses."""

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
from .quantum import (
    Observable,
    Operator,
    Spectrum,
    StateVector,
    egorov_residual,
    expectation,
    fourth_moment,
    max_deviation,
    propagator,
    propagator_spectrum,
    spectrum,
    translation,
    translation_trace,
    variance_stat,
    weyl_quantize,
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
