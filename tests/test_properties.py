"""Property tests: the fast transforms agree with the quadratic oracle and
invert each other, on shapes with n <= 5, d <= 4, -1 <= D <= nd+1 and
N <= 300, over primes at the edges of the field layer (p = 2, either side
of 2^31, and near 2^62), on grids whose rows sometimes hold 0 and p-1.
The closed-form factors of one such row, of 2..8 nodes, are the
elimination's: L is its L, and D * U' its U."""

from hypothesis import given, settings
from hypothesis import strategies as st

from trimmedpoly.algo import (
    Grid,
    naive_trimmed_eval,
    trimmed_eval,
    trimmed_interp,
)
from trimmedpoly.combinat import ebc_cum
from trimmedpoly.field import PrimeModulus
from trimmedpoly.linalg import (build_vandermonde, lu_decompose,
                                vandermonde_factors)
from trimmedpoly.poly import TrimmedPoly

PRIMES = (2, 3, 2**31 - 1, 2147483659, 2**61 - 1, 2**62 - 57)
MAX_N = 300

# fixed examples, sized so that this file runs in about 3 s
FIXED = {"derandomize": True, "deadline": None, "database": None}


@st.composite
def node_rows(draw, p: int, d: int):
    """d+1 distinct nodes; about half the rows hold both 0 and p-1."""
    if draw(st.booleans()):
        inner = [] if d == 1 else draw(st.lists(
            st.integers(1, p - 2), min_size=d - 1, max_size=d - 1,
            unique=True))
        return draw(st.permutations([0, p - 1] + inner))
    return draw(st.lists(st.integers(0, p - 1), min_size=d + 1,
                         max_size=d + 1, unique=True))


@st.composite
def instances(draw):
    """A polynomial and a matching grid."""
    n = draw(st.integers(0, 5))
    d = draw(st.integers(1, 4))
    D = draw(st.sampled_from([D for D in range(-1, n * d + 2)
                              if ebc_cum(n, D, d) <= MAX_N]))
    p = draw(st.sampled_from([q for q in PRIMES if q >= d + 1]))
    mod = PrimeModulus(p)
    rows = [draw(node_rows(p, d)) for _ in range(n)]
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    size = ebc_cum(n, D, d)
    coeffs = draw(st.lists(coeff, min_size=size, max_size=size))
    return TrimmedPoly(mod, n, d, D, coeffs), Grid(mod, rows, d=d)


@settings(max_examples=50, **FIXED)
@given(instances())
def test_eval_matches_oracle(instance):
    poly, grid = instance
    assert trimmed_eval(poly, grid) == naive_trimmed_eval(poly, grid)


@settings(max_examples=80, **FIXED)
@given(instances())
def test_interp_inverts_eval(instance):
    poly, grid = instance
    assert trimmed_interp(trimmed_eval(poly, grid), grid) == poly


@st.composite
def factor_rows(draw):
    """A prime and a row of 2..8 distinct nodes, at most p of them."""
    p = draw(st.sampled_from(PRIMES + (5, 65537)))
    m = draw(st.integers(2, min(p, 8)))
    return p, draw(node_rows(p, m - 1))


@settings(max_examples=100, **FIXED)
@given(factor_rows())
def test_closed_form_factors_equal_elimination(case):
    p, row = case
    fac = lu_decompose(build_vandermonde(row, PrimeModulus(p)))
    lower, unit, scale = vandermonde_factors(row, p, False)
    assert lower == fac.L.rows
    assert fac.U.rows == tuple(tuple(s * v % p for v in r)
                               for s, r in zip(scale, unit))
