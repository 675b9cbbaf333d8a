"""Invariant checks shared by ``trimmedpoly selftest`` and the acceptance
suite (criteria 3, 4, 5 and 7).

Each check runs a fixed, seeded set of exact cases, raises
AssertionError naming the failing parameters, and returns the number of
cases it checked.
"""

from __future__ import annotations

import random

from .algo import Grid, trimmed_eval, yates_eval
from .combinat import ebc, enumerate_trimmed, rank, unrank
from .field import PrimeModulus
from .linalg import (LUFactors, ZeroPivotError, build_vandermonde,
                     lu_decompose, vandermonde_factors)
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


def unit_factors(fac: LUFactors):
    """L, U' and D of U = D * U', read off the elimination's factors: the
    rows of L, the rows of U each divided by its diagonal entry, and that
    diagonal."""
    p = fac.L.modulus.p
    scale = tuple(row[i] for i, row in enumerate(fac.U.rows))
    unit = tuple(tuple(v * pow(s, -1, p) % p for v in row)
                 for s, row in zip(scale, fac.U.rows))
    return fac.L.rows, unit, scale


def substitution_rows(fac: LUFactors):
    """The substitution rows of L and U' and the inverse of D, read off
    the elimination's factors: (-L[j][0], ..., -L[j][j-1], 1), (1,
    -U[i][k] / U[i][i] for k > i), zero elsewhere, and 1/U[i][i]."""
    lower, unit, scale = unit_factors(fac)
    p = fac.L.modulus.p
    lower = tuple(tuple(-v % p for v in row[:j]) + row[j:]
                  for j, row in enumerate(lower))
    unit = tuple(row[:i + 1] + tuple(-v % p for v in row[i + 1:])
                 for i, row in enumerate(unit))
    return lower, unit, tuple(pow(s, -1, p) for s in scale)


def lu_contract() -> int:
    """L * U reconstructs random Vandermonde matrices on distinct nodes,
    the closed-form factors L, U', D and their substitution rows, which
    the transforms use, equal the elimination's, and a duplicated node
    always raises ZeroPivotError."""
    moduli = [PrimeModulus(p) for p in (11, 101, 65537, 2**31 - 1, 2**61 - 1)]
    rng = random.Random(44)
    trials = 100
    for trial in range(trials):
        mod = moduli[trial % len(moduli)]
        d = rng.randint(1, 8)
        nodes = rng.sample(range(min(mod.p, 10**7)), d + 1)
        van = build_vandermonde(nodes, mod)
        fac = lu_decompose(van)
        assert product(fac.L.rows, fac.U.rows, mod.p) == van.rows, \
            (mod.p, nodes)
        assert vandermonde_factors(nodes, mod.p, False) == \
            unit_factors(fac), (mod.p, nodes)
        assert vandermonde_factors(nodes, mod.p, True) == \
            substitution_rows(fac), (mod.p, nodes)
        dup = list(nodes)
        dup[rng.randrange(1, d + 1)] = dup[0]
        try:
            lu_decompose(build_vandermonde(dup, mod))
        except ZeroPivotError:
            pass
        else:
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
