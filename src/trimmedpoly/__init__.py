"""Multipoint evaluation and interpolation of multivariate polynomials
with bounded individual and total degree, on trimmed grids over prime
fields.

Exact arithmetic throughout; the fast transforms run in time near-linear
in the number of admissible grid points. The CLI front end lives in
``trimmedpoly.cli``.
"""

from .algo import (
    EvalTable,
    Grid,
    naive_trimmed_eval,
    trimmed_eval,
    trimmed_interp,
    yates_eval,
)
from .combinat import (
    CapacityError,
    ebc,
    ebc_cum,
    enumerate_trimmed,
    rank,
    unrank,
)
from .field import OpCounter, PrimeModulus, is_prime, run_counted
from .linalg import (
    LUFactors,
    SingularMatrixError,
    SquareMatrix,
    ZeroPivotError,
    build_vandermonde,
    invert,
    lu_decompose,
)
from .poly import (
    SparsePoly,
    TrimmedPoly,
    ValidationError,
    from_sparse,
    naive_eval_point,
    random_poly,
    to_sparse,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "EvalTable",
    "Grid",
    "LUFactors",
    "OpCounter",
    "PrimeModulus",
    "SingularMatrixError",
    "SparsePoly",
    "SquareMatrix",
    "TrimmedPoly",
    "ValidationError",
    "ZeroPivotError",
    "build_vandermonde",
    "ebc",
    "ebc_cum",
    "enumerate_trimmed",
    "from_sparse",
    "invert",
    "is_prime",
    "lu_decompose",
    "naive_eval_point",
    "naive_trimmed_eval",
    "random_poly",
    "rank",
    "run_counted",
    "to_sparse",
    "trimmed_eval",
    "trimmed_interp",
    "unrank",
    "yates_eval",
]
