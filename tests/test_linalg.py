import random
from collections import Counter

import pytest

from trimmedpoly.checks import substitution_rows
from trimmedpoly.field import PrimeModulus, active_counter, run_counted
from trimmedpoly.linalg import (
    SingularMatrixError,
    SquareMatrix,
    ZeroPivotError,
    build_vandermonde,
    invert,
    lu_decompose,
    vandermonde_factors,
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



# Differential counts: a scalar reference, the Doolittle and Gauss-Jordan
# eliminations written entry by entry with per-call counted operations
# (scalar_mul, scalar_sub, scalar_inv), must return the same rows and
# leave the same (mul, add, inv) in the counter as the bulk-tallied
# routines, also when both raise. The scalar operations write to the
# counter directly, so the reference does not depend on field.tally.

EDGE_PRIMES = (2, 3, 2**31 - 1, 2147483659, 2**61 - 1, 2**62 - 57)


def scalar_mul(a, b, mod):
    """a * b in F_p, tallied as one multiplication to the active counter."""
    active_counter.get().mul_count += 1
    return a * b % mod.p


def scalar_sub(a, b, mod):
    """a - b in F_p, tallied as one addition to the active counter."""
    active_counter.get().add_count += 1
    return (a - b) % mod.p


def scalar_inv(a, mod):
    """The inverse of a nonzero residue, tallied as one inversion."""
    active_counter.get().inv_count += 1
    return pow(a, -1, mod.p)


def scalar_vandermonde(nodes, mod):
    rows = []
    for z in [mod.residue(z) for z in nodes]:
        row = [1]
        for _ in range(len(nodes) - 1):
            row.append(scalar_mul(row[-1], z, mod))
        rows.append(tuple(row))
    return tuple(rows)


def scalar_lu(rows, mod):
    m = len(rows)
    work = [list(row) for row in rows]
    lower = [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(m):
        pivot = work[k][k]
        if pivot == 0:
            raise ZeroPivotError(
                f"zero pivot at step {k}; for a Vandermonde matrix this "
                f"means duplicate nodes")
        if k + 1 == m:
            break
        pivot_inv = scalar_inv(pivot, mod)
        for i in range(k + 1, m):
            factor = scalar_mul(work[i][k], pivot_inv, mod)
            lower[i][k] = factor
            work[i][k] = 0
            for j in range(k + 1, m):
                product = scalar_mul(factor, work[k][j], mod)
                work[i][j] = scalar_sub(work[i][j], product, mod)
    upper = [[work[i][j] if j >= i else 0 for j in range(m)]
             for i in range(m)]
    return tuple(map(tuple, lower)), tuple(map(tuple, upper))


def scalar_invert(rows, mod):
    m = len(rows)
    work = [list(row) for row in rows]
    result = [[int(i == j) for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        result[col], result[pivot_row] = result[pivot_row], result[col]
        pivot_inv = scalar_inv(work[col][col], mod)
        work[col] = [scalar_mul(v, pivot_inv, mod) for v in work[col]]
        result[col] = [scalar_mul(v, pivot_inv, mod) for v in result[col]]
        for r in range(m):
            factor = work[r][col]
            if r == col or factor == 0:
                continue
            work[r] = [scalar_sub(a, scalar_mul(factor, b, mod), mod)
                       for a, b in zip(work[r], work[col])]
            result[r] = [scalar_sub(a, scalar_mul(factor, b, mod), mod)
                         for a, b in zip(result[r], result[col])]
    return tuple(map(tuple, result))


def outcome(task, *args):
    """(rows or (exception type, message), (mul, add, inv)) of a task run
    under run_counted; the counts are read also when the task raises."""
    def caught():
        try:
            return task(*args)
        except ArithmeticError as exc:
            return type(exc), str(exc)

    result, ctr = run_counted(caught)
    return result, (ctr.mul_count, ctr.add_count, ctr.inv_count)


def bulk_lu(matrix):
    fac = lu_decompose(matrix)
    return fac.L.rows, fac.U.rows


def bulk_invert(matrix):
    return invert(matrix).rows


def assert_same_as_scalar(matrix):
    """LU and inverse of ``matrix`` match the scalar reference; returns
    the two outcomes."""
    mod, rows = matrix.modulus, matrix.rows
    lu = outcome(bulk_lu, matrix)
    assert lu == outcome(scalar_lu, rows, mod)
    inv = outcome(bulk_invert, matrix)
    assert inv == outcome(scalar_invert, rows, mod)
    return lu, inv


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_random_matrices_match_scalar_reference(p):
    mod = PrimeModulus(p)
    rng = random.Random(p)
    for _ in range(40):
        m = rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        assert_same_as_scalar(SquareMatrix(mod, rows))


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_vandermonde_factors_match_scalar_reference(p):
    mod = PrimeModulus(p)
    rng = random.Random(p + 1)
    for m in range(1, min(p, 6) + 1):
        nodes = [p - 1] + rng.sample(range(min(p - 1, 10**6)), m - 1)
        rng.shuffle(nodes)
        van = outcome(lambda: build_vandermonde(nodes, mod).rows)
        assert van == outcome(scalar_vandermonde, nodes, mod)
        assert van[1] == (m * (m - 1), 0, 0)
        (lower, upper), counts = assert_same_as_scalar(
            build_vandermonde(nodes, mod))[0]
        assert counts == (sum(r + r * r for r in range(m)),
                          sum(r * r for r in range(m)), m - 1)
        for factor in (lower, upper):
            assert_same_as_scalar(SquareMatrix(mod, factor))


def test_pivot_swap_and_zero_factors_match_scalar_reference():
    mod = PrimeModulus(7)
    swap = SquareMatrix(mod, [[0, 2, 1], [3, 0, 0], [1, 1, 0]])
    lu, inv = assert_same_as_scalar(swap)
    assert lu == ((ZeroPivotError, "zero pivot at step 0; for a Vandermonde "
                   "matrix this means duplicate nodes"), (0, 0, 0))
    assert invert(swap) @ swap == eye(mod, 3)
    # Rows 1 and 2 of the first column, and row 2 of the second, have a
    # zero eliminating factor: 3 columns of 6 muls, plus 6 muls and 6
    # adds for each of the 2 rows eliminated.
    skips = SquareMatrix(mod, [[2, 0, 0], [0, 3, 0], [4, 5, 1]])
    _, inv = assert_same_as_scalar(skips)
    assert inv[1] == (3 * 6 + 2 * 6, 2 * 6, 3)


def test_singular_inputs_raise_alike_with_equal_counts():
    mod = PrimeModulus(7)
    # Singular at column 2, after two columns of elimination.
    singular = SquareMatrix(mod, [[1, 2, 3], [2, 5, 1], [3, 7, 4]])
    _, inv = assert_same_as_scalar(singular)
    assert inv[0] == (SingularMatrixError, "matrix is singular at column 2")
    assert inv[1] != (0, 0, 0)
    # Duplicate nodes: the zero pivot comes at the last step.
    dup = build_vandermonde([1, 2, 1], mod)
    lu, _ = assert_same_as_scalar(dup)
    assert lu[0][0] is ZeroPivotError and "step 2" in lu[0][1]
    assert lu[1] == (2 + 4 + 1 + 1, 4 + 1, 2)


# The closed-form rows of the product path against the elimination
# reference: equal rows, and a tally equal to the operations executed.

CLOSED_FORM_PRIMES = (2, 3, 5, 65537, 2**31 - 1, 2147483659, 2**61 - 1,
                      2**62 - 57)


def reference_factors(row, mod):
    """(L, U) and their substitution rows, by elimination."""
    fac = lu_decompose(build_vandermonde(row, mod))
    return (fac.L.rows, fac.U.rows), substitution_rows(fac)


@pytest.mark.parametrize("p", CLOSED_FORM_PRIMES)
def test_closed_form_factors_equal_elimination(p):
    # m = 2..8 nodes, or all of F_p at p = 2 and 3; half the rows hold
    # both 0 and p-1
    mod = PrimeModulus(p)
    rng = random.Random(p)
    pool = range(1, min(p - 1, 10**6))
    for m in range(2, min(p, 8) + 1):
        for trial in range(6):
            if trial % 2:
                row = [0, p - 1] + rng.sample(pool, m - 2)
            else:
                row = rng.sample(range(min(p, 10**6)), m)
            rng.shuffle(row)
            closed = (vandermonde_factors(row, p, False),
                      vandermonde_factors(row, p, True))
            assert closed == reference_factors(row, mod), (p, row)


def test_substitution_rows_solve_the_factors():
    # Substituting with the rows read off L and U solves L y = x upwards
    # and U y = x downwards: on the columns of L and U it gives the
    # identity.
    mod = PrimeModulus(65537)
    for m in range(1, 7):
        row = random.Random(m).sample(range(mod.p), m)
        fac = lu_decompose(build_vandermonde(row, mod))
        solve = substitution_rows(fac)
        for factor, rows, order in ((fac.L, solve[0], range(m)),
                                    (fac.U, solve[1], range(m - 1, -1, -1))):
            for k, col in enumerate(zip(*factor.rows)):
                y = list(col)
                for j in order:
                    y[j] = sum(c * v for c, v in zip(rows[j], y)) % mod.p
                assert y == [int(i == k) for i in range(m)], (m, k)


# (mul, add, inv) per row for m = 1..8: factors, substitution rows
FACTOR_ROW_OPS = {
    1: ((0, 0, 0), (0, 0, 0)),
    2: ((0, 1, 0), (0, 2, 1)),
    3: ((4, 4, 1), (6, 6, 1)),
    4: ((15, 9, 1), (15, 12, 1)),
    5: ((30, 16, 1), (27, 20, 1)),
    6: ((49, 25, 1), (42, 30, 1)),
    7: ((72, 36, 1), (60, 42, 1)),
    8: ((99, 49, 1), (81, 56, 1)),
}


def docstring_ops(m, inverse):
    """The per-row counts that the vandermonde_factors docstring states."""
    if m == 1:
        return 0, 0, 0
    if inverse:
        return 3 * (m - 2) * (m + 1) // 2, m * (m - 1), 1
    return 2 * (m - 1) * (m - 2) + 3 * max(m - 3, 0), (m - 1) ** 2, int(m > 2)


class Tracked:
    """A residue that counts the field operations applied to it: + and -
    (also unary) as additions, * as a multiplication and pow as an
    inversion. The reduction % p that ends an operation is free."""

    __slots__ = ("value", "ops")

    def __init__(self, value, ops):
        self.value = value
        self.ops = ops

    def _op(self, kind, value):
        self.ops[kind] += 1
        return Tracked(value, self.ops)

    def __add__(self, other):
        return self._op("add", self.value + raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._op("add", self.value - raw(other))

    def __rsub__(self, other):
        return self._op("add", raw(other) - self.value)

    def __neg__(self):
        return self._op("add", -self.value)

    def __mul__(self, other):
        return self._op("mul", self.value * raw(other))

    __rmul__ = __mul__

    def __pow__(self, exponent, modulus):
        return self._op("inv", pow(self.value, exponent, modulus))

    def __mod__(self, p):
        return Tracked(self.value % p, self.ops)

    def __eq__(self, other):
        return self.value == raw(other)

    def __hash__(self):
        return hash(self.value)


def raw(value):
    return value.value if isinstance(value, Tracked) else value


@pytest.mark.parametrize("m", range(1, 9))
def test_closed_form_factor_counts(m):
    # The tally is the docstring's formula, pinned, and equals the
    # operations that execute on tracked residues. At m = 3 the factors
    # cost (4, 4, 1) against the elimination's (14, 5, 2), and the
    # substitution rows (6, 6, 1) against the (86, 41, 8) of the
    # elimination and two inverses.
    p = 2**61 - 1
    nodes = random.Random(m).sample(range(p), m)
    for inverse, pinned in zip((False, True), FACTOR_ROW_OPS[m]):
        factors, ctr = run_counted(vandermonde_factors, nodes, p, inverse)
        assert (ctr.mul_count, ctr.add_count, ctr.inv_count) == pinned
        assert pinned == docstring_ops(m, inverse)
        ops = Counter()
        tracked = vandermonde_factors([Tracked(x, ops) for x in nodes], p,
                                      inverse)
        assert tracked == factors
        assert (ops["mul"], ops["add"], ops["inv"]) == pinned
