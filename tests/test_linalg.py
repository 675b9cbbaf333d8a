import random
from collections import Counter

import pytest

from trimmedpoly.checks import product, unit_factors
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


def eye(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


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


@pytest.mark.parametrize("left, right, p, expected", [
    # row 0: 1*2 + 2*1 = 4, 1*0 + 2*3 = 6 = 1; row 1: 3*2 + 4*1 = 10 = 0,
    # 3*0 + 4*3 = 12 = 2
    (((1, 2), (3, 4)), ((2, 0), (1, 3)), 5, ((4, 1), (0, 2))),
    # row 0: 12 + 10 = 22 = 1, 3 + 30 = 33 = 5; row 1: 24 + 4 = 28 = 0,
    # 6 + 12 = 18 = 4
    (((3, 5), (6, 2)), ((4, 1), (2, 6)), 7, ((1, 5), (0, 4))),
    # rows (19, 14, 5), (16, 8, 1), (16, 10, 6) before reduction
    (((1, 2, 3), (0, 4, 1), (2, 2, 2)), ((1, 0, 2), (3, 1, 0), (4, 4, 1)), 5,
     ((4, 4, 0), (1, 3, 1), (1, 0, 1))),
    # rows (2, 5, 8), (13, 22, 31), (30, 46, 62) before reduction
    (((2, 0, 1), (1, 3, 5), (6, 6, 4)), ((1, 2, 3), (4, 5, 6), (0, 1, 2)), 7,
     ((2, 5, 1), (6, 1, 3), (2, 4, 6))),
])
def test_checks_product_hand_computed(left, right, p, expected):
    # selftest's L * U check rests on this product
    assert product(left, right, p) == expected


def test_lu_worked_example_f5():
    van = build_vandermonde([0, 1, 2], MOD5)
    fac = lu_decompose(van)
    assert fac.L.rows == ((1, 0, 0), (1, 1, 0), (1, 2, 1))
    assert fac.U.rows == ((1, 0, 0), (0, 1, 1), (0, 0, 2))
    assert product(fac.L.rows, fac.U.rows, 5) == van.rows


def test_lu_worked_example_f7():
    van = build_vandermonde([1, 2, 3], MOD7)
    fac = lu_decompose(van)
    assert fac.L.rows == ((1, 0, 0), (1, 1, 0), (1, 2, 1))
    assert fac.U.rows == ((1, 1, 1), (0, 1, 3), (0, 0, 2))
    assert product(fac.L.rows, fac.U.rows, 7) == van.rows


def test_lu_identity():
    ident = eye(4)
    fac = lu_decompose(SquareMatrix(MOD7, ident))
    assert fac.L.rows == ident and fac.U.rows == ident


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
        assert product(fac.L.rows, fac.U.rows, mod.p) == van.rows
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
    ident = eye(3)
    assert invert(SquareMatrix(MOD5, ident)).rows == ident
    van = build_vandermonde([0, 1, 2], MOD5)
    inv = invert(van).rows
    assert product(inv, van.rows, 5) == ident
    assert product(van.rows, inv, 5) == ident
    one = SquareMatrix(MOD7, [[3]])
    assert invert(one).rows == ((5,),)  # 3 * 5 = 15 = 1 mod 7
    with pytest.raises(SingularMatrixError):
        invert(SquareMatrix(MOD5, [[1, 2], [2, 4]]))


def test_invert_needs_pivoting():
    # leading entry zero but matrix invertible: plain elimination would fail
    m = SquareMatrix(MOD5, [[0, 1], [1, 0]])
    assert product(invert(m).rows, m.rows, 5) == eye(2)



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
    assert product(invert(swap).rows, swap.rows, 7) == eye(3)
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
    """(L, U', D) and (L, U', 1/D), by elimination."""
    fac = lu_decompose(build_vandermonde(row, mod))
    return unit_factors(fac, False), unit_factors(fac, True)


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


def solve(rows, x, order, p):
    """Solve a unit triangular system with its solving rows, in place of
    the entries of x in ``order``, as a solving stage does: y_j is x_j
    plus the row's other terms, whose coefficients the rows hold negated,
    minus column 0 where it is off the diagonal, the structural 1 of a
    lower row j >= 1 (0 in an upper row)."""
    y = list(x)
    for j in order:
        terms = [c * v for i, (c, v) in enumerate(zip(rows[j], y)) if i != j]
        if j:
            terms[0] = -terms[0]
        y[j] = (y[j] + sum(terms)) % p
    return y


def test_substitution_rows_solve_the_factors():
    # The solving rows read off L and U' solve L y = x upwards and U' y = x
    # downwards, and the inverse scale row solves D: on the columns of L
    # and U = D * U' it gives the identity.
    mod = PrimeModulus(65537)
    for m in range(1, 7):
        row = random.Random(m).sample(range(mod.p), m)
        fac = lu_decompose(build_vandermonde(row, mod))
        lower, unit, scale = unit_factors(fac, True)
        for k, col in enumerate(zip(*fac.L.rows)):
            y = solve(lower, col, range(m), mod.p)
            assert y == [int(i == k) for i in range(m)], (m, k)
        for k, col in enumerate(zip(*fac.U.rows)):
            y = [v * s % mod.p for v, s in zip(col, scale)]
            y = solve(unit, y, range(m - 1, -1, -1), mod.p)
            assert y == [int(i == k) for i in range(m)], (m, k)


@pytest.mark.parametrize("p", (2, 3, 65537, 2**62 - 57))
def test_unit_factors_reconstruct_and_solve_on_edge_rows(p):
    # L * diag(scale) * U' = V, and the solving rows of L and U' solve it:
    # on each column of V, L, then 1/scale, then U' give the identity.
    # m = 2..6 nodes holding 0 and p-1, all of F_p at p = 2 and 3.
    mod = PrimeModulus(p)
    rng = random.Random(p)
    for m in range(2, min(p, 6) + 1):
        row = [0, p - 1] + rng.sample(range(1, min(p - 1, 10**6)), m - 2)
        rng.shuffle(row)
        van = build_vandermonde(row, mod).rows
        lower, unit, scale = vandermonde_factors(row, p, False)
        assert scale[0] == 1 and all(unit[i][i] == 1 for i in range(m))
        upper = [[s * v % p for v in r] for s, r in zip(scale, unit)]
        assert product(lower, upper, p) == van, (p, row)
        solve_l, solve_u, inv_scale = vandermonde_factors(row, p, True)
        assert all(s * t % p == 1 for s, t in zip(scale, inv_scale))
        for k, col in enumerate(zip(*van)):
            y = solve(solve_l, col, range(m), p)
            y = [v * s % p for v, s in zip(y, inv_scale)]
            y = solve(solve_u, y, range(m - 1, -1, -1), p)
            assert y == [int(i == k) for i in range(m)], (p, row, k)


def test_solving_rows_negate_the_coefficients_on_edge_rows():
    # The interpolation rows are the evaluation rows with every coefficient
    # negated, L[j][1..j-1] and U'[i][i+1..], and the structural entries
    # and zeros as they are; they equal the elimination's solving rows, and
    # solving with them, then 1/scale, inverts V: on each column of the
    # identity, L, then 1/scale, then U' give that column of V^-1. m = 2..6
    # nodes holding 0 and p-1, all of F_p at p = 2 and 3.
    for p in (2, 3, 65537, 2**62 - 57):
        mod = PrimeModulus(p)
        rng = random.Random(p + 1)
        for m in range(2, min(p, 6) + 1):
            row = [0, p - 1] + rng.sample(range(1, min(p - 1, 10**6)), m - 2)
            rng.shuffle(row)
            lower, unit, _ = vandermonde_factors(row, p, False)
            solve_l, solve_u, inv_scale = vandermonde_factors(row, p, True)
            for j in range(m):
                assert solve_l[j] == tuple(-v % p if 0 < i < j else v
                                           for i, v in enumerate(lower[j]))
                assert solve_u[j] == tuple(-v % p if k > j else v
                                           for k, v in enumerate(unit[j]))
            van = build_vandermonde(row, mod)
            fac = lu_decompose(van)
            assert (solve_l, solve_u, inv_scale) == unit_factors(fac, True)
            inv_van = invert(van).rows
            for k, col in enumerate(eye(m)):
                y = solve(solve_l, col, range(m), p)
                y = [v * s % p for v, s in zip(y, inv_scale)]
                y = solve(solve_u, y, range(m - 1, -1, -1), p)
                assert y == [r[k] for r in inv_van], (p, row, k)


# (mul, add, inv) per row for m = 1..8: evaluation, interpolation
FACTOR_ROW_OPS = {
    1: ((0, 0, 0), (0, 0, 0)),
    2: ((0, 1, 0), (0, 2, 1)),
    3: ((3, 4, 1), (6, 5, 1)),
    4: ((12, 9, 1), (15, 10, 1)),
    5: ((24, 16, 1), (27, 17, 1)),
    6: ((39, 25, 1), (42, 26, 1)),
    7: ((57, 36, 1), (60, 37, 1)),
    8: ((78, 49, 1), (81, 50, 1)),
}


def docstring_ops(m, inverse):
    """The per-row count that the vandermonde_factors docstring states,
    with k = m-2 or m-1 (``inverse``) the batch length."""
    if m == 1:
        return 0, 0, 0
    k = m - 1 if inverse else m - 2
    return (3 * (m - 1) * (m - 2) // 2 + 3 * max(k - 1, 0),
            (m - 1) ** 2 + int(inverse), int(k >= 1))


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
    # cost (3, 4, 1) against the elimination's (14, 5, 2), and with 1/D
    # (6, 5, 1) against the (86, 41, 8) of the elimination and two
    # inverses.
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
