"""Vandermonde LU factors over F_p: the closed forms the transforms use,
and the elimination they are checked against.

``vandermonde_factors`` builds the Doolittle factors L, U of one row's
Vandermonde matrix, with U = D * U' split into its diagonal D and a unit
upper triangular U', from closed forms: O(m^2) operations and one
batched inversion per row, and no elimination; its docstring gives the
per-row count. Interpolation solves with the same L and U', with the
coefficients that solving subtracts stored negated, and with 1/D. It is
the only name here that ``algo`` uses.

The rest is a reference, not the product path: ``build_vandermonde`` and
``lu_decompose`` find the factors by elimination, O(m^3) per matrix, on
``SquareMatrix`` rows, and ``invert`` inverts by Gauss-Jordan. The tests
and ``trimmedpoly selftest`` (``checks.lu_contract``, which carries its
own matrix product) compare the closed forms with them, and perfbench
times them. ``lu_decompose`` deliberately never pivots: the staged
evaluation and interpolation transforms rely on the triangular shape of
both factors to control degree budgets, and row swaps would destroy it.
For Vandermonde matrices on distinct nodes every leading principal minor
is itself a nonzero Vandermonde determinant, so a zero pivot cannot
occur; hitting one therefore signals duplicate nodes (or a
non-LU-decomposable input). ``invert`` works on the augmented rows
[A | I] and may pivot freely.

The residue math is inlined on raw ints; the ``field`` docstring states
how its operations are counted.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .field import PrimeModulus, tally


class ZeroPivotError(ArithmeticError):
    """Pivot-free elimination hit a zero pivot (singular or needs pivoting)."""


class SingularMatrixError(ArithmeticError):
    """Matrix has no inverse."""


class SquareMatrix:
    """Row-major (m x m) matrix of residues over a shared modulus."""

    __slots__ = ("modulus", "size", "rows")

    def __init__(self, modulus: PrimeModulus, rows) -> None:
        normalized = tuple(tuple(modulus.residue(v) for v in row)
                           for row in rows)
        m = len(normalized)
        if m == 0 or any(len(row) != m for row in normalized):
            raise ValueError("matrix must be square and non-empty")
        self.modulus = modulus
        self.size = m
        self.rows = normalized

    @classmethod
    def _trusted(cls, modulus: PrimeModulus, rows) -> "SquareMatrix":
        """Wrap rows that are valid by construction: a non-empty square
        tuple of tuples of canonical residues."""
        self = cls.__new__(cls)
        self.modulus = modulus
        self.size = len(rows)
        self.rows = rows
        return self


class LUFactors(NamedTuple):
    """Unit-lower-triangular L and upper-triangular U with L * U = source."""

    L: SquareMatrix
    U: SquareMatrix


def build_vandermonde(nodes, modulus: PrimeModulus) -> SquareMatrix:
    """Rows (1, z, z^2, ..., z^d) for each node z; square (d+1) x (d+1)."""
    p = modulus.p
    residues = [modulus.residue(z) for z in nodes]
    m = len(residues)
    if m == 0:
        raise ValueError("matrix must be square and non-empty")
    rows = []
    for z in residues:
        row = [1]
        for _ in range(m - 1):
            row.append(row[-1] * z % p)
        rows.append(tuple(row))
    tally(mul=m * (m - 1))
    return SquareMatrix._trusted(modulus, tuple(rows))


def lu_decompose(matrix: SquareMatrix) -> LUFactors:
    """Doolittle factorization by Gaussian elimination without pivoting.

    Requires every leading principal minor to be nonzero; otherwise a zero
    pivot is hit and ZeroPivotError is raised. For Vandermonde inputs that
    can only happen with duplicate nodes.
    """
    mod = matrix.modulus
    p = mod.p
    m = matrix.size
    work = [list(row) for row in matrix.rows]
    lower = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for k in range(m):
        pivot = work[k][k]
        if pivot == 0:
            raise ZeroPivotError(
                f"zero pivot at step {k}; for a Vandermonde matrix this "
                f"means duplicate nodes")
        if k + 1 == m:
            break
        pivot_inv = pow(pivot, -1, p)
        tail = work[k][k + 1:]
        for i in range(k + 1, m):
            row_i = work[i]
            factor = row_i[k] * pivot_inv % p
            lower[i][k] = factor
            row_i[k + 1:] = [(a - factor * b) % p
                             for a, b in zip(row_i[k + 1:], tail)]
        r = m - k - 1
        tally(mul=r + r * r, add=r * r, inv=1)
    upper = tuple((0,) * i + tuple(work[i][i:]) for i in range(m))
    return LUFactors(SquareMatrix._trusted(mod, tuple(map(tuple, lower))),
                     SquareMatrix._trusted(mod, upper))


def invert(matrix: SquareMatrix) -> SquareMatrix:
    """Gauss-Jordan inverse; pivoting allowed here (any nonzero pivot)."""
    p = matrix.modulus.p
    m = matrix.size
    work = [list(row) + [1 if i == j else 0 for j in range(m)]
            for i, row in enumerate(matrix.rows)]
    for col in range(m):
        for pivot_row in range(col, m):
            if work[pivot_row][col]:
                break
        else:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_inv = pow(work[col][col], -1, p)
        top = work[col] = [v * pivot_inv % p for v in work[col]]
        eliminated = 0
        for r, row in enumerate(work):
            factor = row[col]
            if factor and r != col:
                work[r] = [(a - factor * b) % p for a, b in zip(row, top)]
                eliminated += 1
        tally(mul=2 * m * (1 + eliminated), add=2 * m * eliminated, inv=1)
    return SquareMatrix._trusted(matrix.modulus,
                                 tuple(tuple(row[m:]) for row in work))


def _inverses(values, p: int) -> list[int]:
    """The inverses of nonzero residues by Montgomery's trick: for k >= 1
    values, one ``pow`` and 3(k-1) multiplications."""
    if not values:
        return []
    prefix = list(accumulate(values, lambda a, b: a * b % p))
    acc = pow(prefix[-1], -1, p)
    out = []
    for i in range(len(values) - 1, 0, -1):
        out.append(acc * prefix[i - 1] % p)
        acc = acc * values[i] % p
    out.append(acc)
    out.reverse()
    return out


def vandermonde_factors(row, p: int, inverse: bool):
    """(lower rows, unit upper rows, scale row) of the Doolittle factors of
    the Vandermonde matrix of ``row``, m distinct residues x_0..x_{m-1} mod
    p: m-tuples of m-tuples, and one m-tuple.

    Closed forms (H. Oruc and G. M. Phillips, Linear Algebra Appl. 315,
    2000), with P[j][i] = prod_{l<i} (x_j - x_l) and delta_i = P[i][i]:

        L[j][i] = P[j][i] / delta_i
        U[i][k] = delta_i * h_{k-i}(x_0..x_i)     (h complete homogeneous)

    so U = D * U', D = diag(delta_0, ..., delta_{m-1}) and U'[i][k] =
    h_{k-i}(x_0..x_i) unit upper triangular, the change of basis from the
    monomials to the Newton basis. The factors are L, U' and the scale row
    (delta_i) = (1, delta_1, ..., delta_{m-1}).

    With ``inverse`` they are the rows that solve with L and U', and the
    scale row (1/delta_i). L and U' are unit triangular, so y_j is x_j
    minus the row's other terms, and the rows carry those terms' signs:
    lower row j is (1, -L[j][1], ..., -L[j][j-1], 1), its structural
    column 0 still 1, and unit upper row i is (1, -h_1, -h_2, ...) from
    its diagonal on. A solving stage then adds every product and
    subtracts only the structural columns. The negation costs nothing in
    L: since (x_0 - x_j)(x_{j-1} - x_j) = (x_j - x_0)(x_j - x_{j-1}),
    taking a row j >= 2's first and last factors with their operands
    swapped negates P[j][1..j-1] and keeps delta_j = P[j][j]. In U' it
    costs one negation in all: h_1(x_0) = -x_0, and the recursion below
    carries the sign into every row.

    One batch (P. L. Montgomery, Math. Comp. 48, 1987) inverts
    delta_1..delta_{m-2}, and delta_{m-1} too with ``inverse``.
    Multiplications by a structural 1 (delta_0, h_0) are skipped. One
    ``tally`` per row, made once the row is built (a row that raises on
    duplicate nodes tallies nothing), counts what executes: with k the
    batch length, 3(m-1)(m-2)/2 + 3 max(k-1, 0) multiplications, (m-1)^2
    additions, plus the one negation with ``inverse``, and one inversion
    if k >= 1.
    """
    m = len(row)
    # newton[j][i] = P[j][i] for i <= j; with ``inverse``, rows j >= 2
    # take their first and last factors as (x_0 - x_j) and (x_{j-1} - x_j),
    # which negates P[j][1..j-1] and leaves delta_j as it is
    newton = [[1]]
    for j in range(1, m):
        x = row[j]
        if inverse and j > 1:
            prods = [1, (row[0] - x) % p]
            for y in row[1:j - 1]:
                prods.append(prods[-1] * (x - y) % p)
            prods.append(prods[-1] * (row[j - 1] - x) % p)
        else:
            prods = [1, (x - row[0]) % p]
            for y in row[1:j]:
                prods.append(prods[-1] * (x - y) % p)
        newton.append(prods)
    delta = [prods[-1] for prods in newton]
    batch = delta[1:m if inverse else m - 1]
    inv_delta = _inverses(batch, p)
    # lower row j is (1, P[j][1] / delta_1, ..., 1)
    lower = [(1,) + (0,) * (m - 1)]
    for j in range(1, m):
        body = [a * b % p for a, b in zip(newton[j][1:j], inv_delta)]
        lower.append((1, *body, 1) + (0,) * (m - 1 - j))
    # h[r] = h_r(x_0..x_i): h_r(x_0) = x_0^r, and h_r(x_0..x_i) =
    # h_r(x_0..x_{i-1}) + x_i * h_{r-1}(x_0..x_i), where h_0 = 1 enters
    # only as x_i; with ``inverse``, h[r] = -h_r for r >= 1, which the
    # same recursion carries from -x_0 on, with h[1] - x_i
    h = [1]
    if m > 1:
        h.append(-row[0] % p if inverse else row[0])
    for _ in range(m - 2):
        h.append(h[-1] * row[0] % p)
    upper = [tuple(h)]
    for i in range(1, m):
        x = row[i]
        new = [1]
        if i < m - 1:
            new.append((h[1] - x if inverse else h[1] + x) % p)
            for v in h[2:-1]:
                new.append((v + x * new[-1]) % p)
        h = new
        upper.append((0,) * i + tuple(h))
    if m > 1:
        k = len(batch)
        tally(mul=3 * (m - 1) * (m - 2) // 2 + 3 * max(k - 1, 0),
              add=(m - 1) ** 2 + int(inverse), inv=int(k >= 1))
    return (tuple(lower), tuple(upper),
            (1, *inv_delta) if inverse else tuple(delta))
