"""Vandermonde matrices, pivot-free LU and inversion over F_p.

``lu_decompose`` deliberately never pivots: the staged evaluation and
interpolation transforms rely on the triangular shape of both factors to
control degree budgets, and row swaps would destroy it. For Vandermonde
matrices on distinct nodes every leading principal minor is itself a
nonzero Vandermonde determinant, so a zero pivot cannot occur; hitting
one therefore signals duplicate nodes (or a non-LU-decomposable input).
``invert`` is ordinary Gauss-Jordan on the augmented rows [A | I] and may
pivot freely.

The residue math is inlined on raw ints; the ``field`` docstring states
how its operations are counted.
"""

from __future__ import annotations

from operator import mul

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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SquareMatrix):
            return self.modulus.p == other.modulus.p and self.rows == other.rows
        return NotImplemented

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.size != other.size or self.modulus.p != other.modulus.p:
            raise ValueError("matrix shape or modulus mismatch")
        p = self.modulus.p
        m = self.size
        cols = tuple(zip(*other.rows))
        out = tuple(tuple(sum(map(mul, row, col)) % p for col in cols)
                    for row in self.rows)
        tally(mul=m ** 3, add=m ** 3)
        return SquareMatrix._trusted(self.modulus, out)

    def __repr__(self) -> str:
        return f"SquareMatrix({self.size}x{self.size} mod {self.modulus.p})"


class LUFactors:
    """Unit-lower-triangular L and upper-triangular U with L @ U = source."""

    __slots__ = ("L", "U")

    def __init__(self, L: SquareMatrix, U: SquareMatrix) -> None:
        self.L = L
        self.U = U

    def __repr__(self) -> str:
        return f"LUFactors(size={self.L.size})"


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
