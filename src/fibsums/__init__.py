"""Exact evaluation, cross-verification and benchmarking of binomial
Fibonacci/Lucas power-sum identities.

All arithmetic is exact: arbitrary-precision integers, stdlib fractions,
and the quadratic field Q(alpha) of the golden ratio.
"""

from .identities import (
    EvalOutcome,
    IdentityDescriptor,
    IdentityId,
    IdentityParams,
    InapplicableParamsError,
    IntegralityError,
    catalog,
    descriptor,
    eval_pair,
)
from .quadfield import ALPHA, BETA, ONE, SQRT5, ZERO, NonInvertibleError, QuadNum, alpha_pow
from .sequences import SequenceKind, binomial, direct_sum, fib, lucas
from .transform import (
    BinomialKernel,
    IrrationalResultError,
    Kernel,
    binomial_rhs,
    kernel_eval,
    reduce_power,
)
from .verify import (
    GridSpec,
    Report,
    VerificationRecord,
    default_grid_specs,
    run_grid,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "BinomialKernel",
    "EvalOutcome",
    "GridSpec",
    "IdentityDescriptor",
    "IdentityId",
    "IdentityParams",
    "InapplicableParamsError",
    "IntegralityError",
    "IrrationalResultError",
    "Kernel",
    "NonInvertibleError",
    "ONE",
    "QuadNum",
    "Report",
    "SQRT5",
    "SequenceKind",
    "VerificationRecord",
    "ZERO",
    "alpha_pow",
    "binomial",
    "binomial_rhs",
    "catalog",
    "default_grid_specs",
    "descriptor",
    "direct_sum",
    "eval_pair",
    "fib",
    "kernel_eval",
    "lucas",
    "reduce_power",
    "run_grid",
    "summarize",
]
