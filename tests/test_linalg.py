import random

import pytest

from trimmedpoly.field import PrimeModulus
from trimmedpoly.linalg import (
    SingularMatrixError,
    SquareMatrix,
    ZeroPivotError,
    build_vandermonde,
    invert,
    lu_decompose,
)

MOD5 = PrimeModulus(5)
MOD7 = PrimeModulus(7)


def eye(mod, m):
    return SquareMatrix(mod, [[int(i == j) for j in range(m)]
                              for i in range(m)])


def test_build_vandermonde_examples():
    van = build_vandermonde([0, 1, 2], MOD5)
    assert van.rows == ((1, 0, 0), (1, 1, 1), (1, 2, 4))
    single = build_vandermonde([3], MOD5)
    assert single.rows == ((1,),)
    rng = random.Random(0)
    nodes = rng.sample(range(65537), 6)
    van = build_vandermonde(nodes, PrimeModulus(65537))
    assert all(row[0] == 1 for row in van.rows)
    for row, z in zip(van.rows, nodes):
        assert row[2] == z * z % 65537


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        SquareMatrix(MOD5, [[1, 2], [3]])
    with pytest.raises(ValueError):
        SquareMatrix(MOD5, [])


def test_lu_worked_example_f5():
    van = build_vandermonde([0, 1, 2], MOD5)
    fac = lu_decompose(van)
    assert fac.L.rows == ((1, 0, 0), (1, 1, 0), (1, 2, 1))
    assert fac.U.rows == ((1, 0, 0), (0, 1, 1), (0, 0, 2))
    assert fac.L @ fac.U == van


def test_lu_worked_example_f7():
    van = build_vandermonde([1, 2, 3], MOD7)
    fac = lu_decompose(van)
    assert fac.L.rows == ((1, 0, 0), (1, 1, 0), (1, 2, 1))
    assert fac.U.rows == ((1, 1, 1), (0, 1, 3), (0, 0, 2))
    assert fac.L @ fac.U == van


def test_lu_identity():
    ident = eye(MOD7, 4)
    fac = lu_decompose(ident)
    assert fac.L == ident and fac.U == ident


def test_lu_duplicate_nodes_error():
    with pytest.raises(ZeroPivotError):
        lu_decompose(build_vandermonde([1, 1, 2], MOD5))


def test_lu_random_reconstruction():
    primes = [PrimeModulus(11), PrimeModulus(65537), PrimeModulus(2**31 - 1)]
    rng = random.Random(5)
    for trial in range(100):
        mod = primes[trial % len(primes)]
        d = rng.randint(1, 8)
        nodes = rng.sample(range(mod.p), d + 1)
        van = build_vandermonde(nodes, mod)
        fac = lu_decompose(van)
        assert fac.L @ fac.U == van
        for i in range(d + 1):
            assert fac.L.rows[i][i] == 1
            assert fac.U.rows[i][i] != 0
            assert all(fac.L.rows[i][j] == 0 for j in range(i + 1, d + 1))
            assert all(fac.U.rows[i][j] == 0 for j in range(i))


def test_lu_duplicate_always_errors():
    rng = random.Random(6)
    for _ in range(30):
        d = rng.randint(1, 6)
        nodes = rng.sample(range(65537), d + 1)
        dup = rng.randrange(len(nodes))
        src = rng.randrange(len(nodes))
        while src == dup:
            src = rng.randrange(len(nodes))
        nodes[dup] = nodes[src]
        with pytest.raises(ZeroPivotError):
            lu_decompose(build_vandermonde(nodes, PrimeModulus(65537)))


def test_invert():
    ident = eye(MOD5, 3)
    assert invert(ident) == ident
    van = build_vandermonde([0, 1, 2], MOD5)
    inv = invert(van)
    assert inv @ van == ident
    assert van @ inv == ident
    one = SquareMatrix(MOD7, [[3]])
    assert invert(one).rows == ((5,),)  # 3 * 5 = 15 = 1 mod 7
    with pytest.raises(SingularMatrixError):
        invert(SquareMatrix(MOD5, [[1, 2], [2, 4]]))


def test_invert_needs_pivoting():
    # leading entry zero but matrix invertible: plain elimination would fail
    m = SquareMatrix(MOD5, [[0, 1], [1, 0]])
    assert invert(m) @ m == eye(MOD5, 2)

