"""Vandermonde matrices, pivot-free LU and inversion over F_p.

``lu_decompose`` deliberately never pivots: the staged evaluation and
interpolation transforms rely on the triangular shape of both factors to
control degree budgets, and row swaps would destroy it. For Vandermonde
matrices on distinct nodes every leading principal minor is itself a
nonzero Vandermonde determinant, so a zero pivot cannot occur; hitting
one therefore signals duplicate nodes (or a non-LU-decomposable input).
``invert`` is ordinary Gauss-Jordan and may pivot freely.
"""

from __future__ import annotations

from .field import PrimeModulus


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
    def identity(cls, modulus: PrimeModulus, m: int) -> "SquareMatrix":
        return cls(modulus, [[1 if i == j else 0 for j in range(m)]
                             for i in range(m)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SquareMatrix):
            return self.modulus.p == other.modulus.p and self.rows == other.rows
        return NotImplemented

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.size != other.size or self.modulus.p != other.modulus.p:
            raise ValueError("matrix shape or modulus mismatch")
        mod = self.modulus
        m = self.size
        out = []
        for i in range(m):
            row = self.rows[i]
            out_row = []
            for j in range(m):
                acc = 0
                for k in range(m):
                    acc = mod.add(acc, mod.mul(row[k], other.rows[k][j]))
                out_row.append(acc)
            out.append(out_row)
        return SquareMatrix(mod, out)

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
    residues = [modulus.residue(z) for z in nodes]
    d = len(residues) - 1
    rows = []
    for z in residues:
        row = [1]
        for _ in range(d):
            row.append(modulus.mul(row[-1], z))
        rows.append(row)
    return SquareMatrix(modulus, rows)


def lu_decompose(matrix: SquareMatrix) -> LUFactors:
    """Doolittle factorization by Gaussian elimination without pivoting.

    Requires every leading principal minor to be nonzero; otherwise a zero
    pivot is hit and ZeroPivotError is raised. For Vandermonde inputs that
    can only happen with duplicate nodes.
    """
    mod = matrix.modulus
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
        pivot_inv = mod.inv(pivot)
        row_k = work[k]
        for i in range(k + 1, m):
            row_i = work[i]
            factor = mod.mul(row_i[k], pivot_inv)
            lower[i][k] = factor
            row_i[k] = 0
            for j in range(k + 1, m):
                row_i[j] = mod.sub(row_i[j], mod.mul(factor, row_k[j]))
    upper = [[work[i][j] if j >= i else 0 for j in range(m)]
             for i in range(m)]
    return LUFactors(SquareMatrix(mod, lower), SquareMatrix(mod, upper))


def invert(matrix: SquareMatrix) -> SquareMatrix:
    """Gauss-Jordan inverse; pivoting allowed here (any nonzero pivot)."""
    mod = matrix.modulus
    m = matrix.size
    work = [list(row) for row in matrix.rows]
    result = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            result[col], result[pivot_row] = result[pivot_row], result[col]
        pivot_inv = mod.inv(work[col][col])
        work[col] = [mod.mul(v, pivot_inv) for v in work[col]]
        result[col] = [mod.mul(v, pivot_inv) for v in result[col]]
        for r in range(m):
            if r == col:
                continue
            factor = work[r][col]
            if factor == 0:
                continue
            work[r] = [mod.sub(a, mod.mul(factor, b))
                       for a, b in zip(work[r], work[col])]
            result[r] = [mod.sub(a, mod.mul(factor, b))
                         for a, b in zip(result[r], result[col])]
    return SquareMatrix(mod, result)

