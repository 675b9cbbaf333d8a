"""Invariant checks shared by ``trimmedpoly selftest`` and the acceptance
suite (criteria 3, 4, 5 and 7).

Each check runs a fixed, seeded set of exact cases, raises
AssertionError naming the failing parameters, and returns the number of
cases it checked. No check runs an elimination: ``lu_contract`` checks
the closed-form factors by the definition of the factorization.
"""

from __future__ import annotations

import random

from .algo import EvalTable, Grid, trimmed_eval, trimmed_interp, yates_eval
from .combinat import ebc, enumerate_trimmed, rank, unrank
from .field import PrimeModulus
from .linalg import vandermonde_factors
from .poly import random_poly


def extended_pascal() -> int:
    """ebc(n, k, d) = sum_{j=0}^{d} ebc(n-1, k-j, d), for every cell with
    n <= 8 and d <= 5."""
    checked = 0
    for n in range(1, 9):
        for d in range(1, 6):
            for k in range(0, n * d + 1):
                window = sum(ebc(n - 1, k - j, d) for j in range(d + 1))
                assert ebc(n, k, d) == window, (n, k, d)
                checked += 1
    return checked


def product(left, right, p: int):
    """The rows of left * right mod p, for two square matrices given as
    rows of residues."""
    cols = tuple(zip(*right))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p
                       for col in cols) for row in left)


def lu_contract() -> int:
    """The closed-form factors of random Vandermonde matrices V on distinct
    nodes are V's one Doolittle factorization, which a nonsingular V
    has: L is unit lower triangular, U' unit upper triangular, the scale
    row D holds no zero, and L * D * U' = V, V's rows of powers built
    here. The interpolation factors invert V: ``trimmed_interp`` of each
    column of V, the values of one monomial on the nodes, is that column
    of the identity. A duplicated node makes the interpolation factors,
    which invert every delta_i, raise ValueError."""
    moduli = [PrimeModulus(p) for p in (11, 101, 65537, 2**31 - 1, 2**61 - 1)]
    rng = random.Random(44)
    trials = 100
    for trial in range(trials):
        mod = moduli[trial % len(moduli)]
        p = mod.p
        d = rng.randint(1, 8)
        nodes = rng.sample(range(min(p, 10**7)), d + 1)
        van = tuple(tuple(pow(z, k, p) for k in range(d + 1)) for z in nodes)
        lower, unit, scale = vandermonde_factors(nodes, p, False)
        for i in range(d + 1):
            assert lower[i][i:] == (1,) + (0,) * (d - i) and scale[i] and \
                unit[i][:i + 1] == (0,) * i + (1,), (p, nodes)
        upper = tuple(tuple(s * v % p for v in row)
                      for s, row in zip(scale, unit))
        assert product(lower, upper, p) == van, (p, nodes)
        grid = Grid(mod, [nodes])
        for k, column in enumerate(zip(*van)):
            back = trimmed_interp(EvalTable(mod, 1, d, d, column), grid)
            assert back.coeffs == tuple(int(i == k) for i in range(d + 1)), \
                (p, nodes)
        dup = list(nodes)
        dup[rng.randrange(1, d + 1)] = dup[0]
        try:
            vandermonde_factors(dup, p, True)
        except ValueError:
            continue
        raise AssertionError(f"duplicate nodes must fail: {dup}")
    return trials


def full_cube_consistency() -> int:
    """At D = n*d the fast transform equals the full-grid baseline, and the
    canonical rank equals the mixed-radix index."""
    count = 0
    for n in range(1, 5):
        for d in range(1, 4):
            for p in (7, 65537):
                mod = PrimeModulus(p)
                poly = random_poly(n, d, n * d, mod, seed=n * 19 + d)
                grid = Grid.random(mod, n, d, seed=n + d + p)
                assert trimmed_eval(poly, grid) == yates_eval(poly, grid), \
                    (n, d, p)
                for r, exps in enumerate(enumerate_trimmed(n, d, n * d)):
                    assert r == sum(e * (d + 1) ** i
                                    for i, e in enumerate(exps)), (n, d, r)
                count += 1
    return count


def rank_unrank_bijection() -> int:
    """rank and unrank invert each other on every position with n <= 5
    and d <= 3, in enumeration order."""
    checked = 0
    for n in range(1, 6):
        for d in range(1, 4):
            for D in range(0, n * d + 1):
                for position, exps in enumerate(enumerate_trimmed(n, d, D)):
                    assert rank(exps, n, d, D) == position, (n, d, D, exps)
                    assert unrank(position, n, d, D) == exps, \
                        (n, d, D, position)
                    checked += 1
    return checked


SUITES = (
    ("extended-pascal", extended_pascal),
    ("lu-reconstruction", lu_contract),
    ("rank-unrank", rank_unrank_bijection),
    ("yates-consistency", full_cube_consistency),
)
