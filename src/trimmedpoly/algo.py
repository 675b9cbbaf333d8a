"""Fast evaluation and interpolation on trimmed grids, the quadratic
oracle, and the full-grid baseline.

Layout scheme
-------------
A coefficient vector or evaluation table for (nv variables, total budget
b) is, in the canonical order, the concatenation of d+1 blocks indexed by
the last coordinate j, where block j has layout (nv-1, b-j). Layouts for
two budgets over the same variables differ only by which indices are
admitted; the smaller one is an order-preserving subsequence of the
larger. ``_embedding`` caches those subsequence positions, so moving a
block between budgets is pure index plumbing with no field operations.

Stage scheme
------------
A stage applies one triangular matrix along the top (last) variable,
with one of two kernels:

- expand: combine blocks with the rows of an upper triangular matrix;
  row j touches blocks j..d, whose budgets never exceed the target
  budget b-j, so each source embeds into the target layout.
- gather: combine blocks with the rows of a lower triangular matrix;
  row j touches blocks 0..j, whose budgets never fall below the target,
  so each source restricts onto the target layout.

Evaluation factors each variable's Vandermonde matrix as V = L * U
(pivot free, always possible on distinct nodes since every leading
principal minor is itself a nonzero Vandermonde determinant) and runs
the 2n stages

    U_n, ..., U_1,  then  L_1, ..., L_n.

This is the divide-and-conquer "expand with U_n, transform each block in
the other variables, gather with L_n" laid flat: the inner transforms of
different blocks touch disjoint data, so each of their stages can run on
all blocks at once, as one stage on the whole layout. Each stage needs
its variable on top. {e in [0,d]^n : sum(e) <= b} is
symmetric under permuting coordinates, so the relabelled vectors
(e_n, e_1, ..., e_{n-1}) form the same (n, b) layout, and cached index
tables move the data to that labelling (``down``) and back (``up``).

Interpolation is the exact stage-by-stage inverse. Leading principal
blocks of triangular matrices multiply blockwise, so each truncated
combination is undone by the same-shaped combination with the inverted
factor; the mirrored sequence with inverted factors inverts the whole:

    inv(L)_n, ..., inv(L)_1,  then  inv(U)_1, ..., inv(U)_n.

Note inv(U) * inv(L) is an exact upper*lower factorization of the
inverse Vandermonde matrix, and both inverses always exist, for any
distinct-node row. (A lower*upper factorization of the inverse, by
contrast, fails to exist whenever a node other than the row's first is
zero, and feeding its factors into the stages computes the wrong
polynomial; see the ledger-tests in tests/test_algo.py.)

Multiplication/addition counts are tallied in bulk per combination pass
and equal the operations actually executed; for the fast transforms they
depend only on (n, d, D), never on coefficient values.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from itertools import accumulate

from .combinat import clamp_budget, ebc_cum, enumerate_trimmed
from .field import OpCounter, PrimeModulus
from .linalg import build_vandermonde, invert, lu_decompose
from .poly import TrimmedPoly, ValidationError, dense_layout, naive_eval_point

__all__ = [
    "Grid", "EvalTable", "trimmed_eval", "trimmed_interp",
    "naive_trimmed_eval", "yates_eval", "run_counted",
]


class Grid:
    """Per-variable node rows z[i][j], i in [n], j in 0..d.

    Nodes must be pairwise distinct within each row (hence p >= d+1).
    """

    __slots__ = ("modulus", "n", "d", "rows")

    def __init__(self, modulus: PrimeModulus, rows, d: int | None = None) -> None:
        normalized = tuple(tuple(modulus.residue(z) for z in row)
                           for row in rows)
        if d is None:
            if not normalized:
                raise ValidationError(
                    "grid with no rows needs an explicit individual degree")
            d = len(normalized[0]) - 1
        if d < 1:
            raise ValidationError(
                f"individual degree must be >= 1, got {d}")
        if modulus.p < d + 1:
            raise ValidationError(
                f"need p >= d+1 for distinct nodes, got p={modulus.p}, "
                f"d={d}")
        for i, row in enumerate(normalized):
            if len(row) != d + 1:
                raise ValidationError(
                    f"variable {i + 1} has {len(row)} nodes, expected {d + 1}")
            if len(set(row)) != d + 1:
                raise ValidationError(
                    f"variable {i + 1} has duplicate nodes: {row}")
        self.modulus = modulus
        self.n = len(normalized)
        self.d = d
        self.rows = normalized

    @classmethod
    def sequential(cls, modulus: PrimeModulus, n: int, d: int) -> "Grid":
        """Nodes z[i][j] = j; the reproducible human-checkable choice."""
        return cls(modulus, [list(range(d + 1))] * n, d=d)

    @classmethod
    def random(cls, modulus: PrimeModulus, n: int, d: int,
               seed: int) -> "Grid":
        """Seeded distinct nodes per row."""
        if modulus.p < d + 1:
            raise ValidationError(
                f"need p >= d+1 for distinct nodes, got p={modulus.p}, "
                f"d={d}")
        rng = random.Random(seed)
        rows = [rng.sample(range(modulus.p), d + 1) for _ in range(n)]
        return cls(modulus, rows, d=d)

    def point(self, exponents) -> tuple[int, ...]:
        """The grid point selected by an exponent vector."""
        return tuple(self.rows[i][e] for i, e in enumerate(exponents))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Grid):
            return (self.modulus.p == other.modulus.p and self.d == other.d
                    and self.rows == other.rows)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, d={self.d}, p={self.modulus.p})"


class EvalTable:
    """Evaluations on the trimmed grid, one per admissible exponent vector,
    flattened in the same canonical order as TrimmedPoly coefficients."""

    __slots__ = ("modulus", "n", "d", "D", "values")

    def __init__(self, modulus: PrimeModulus, n: int, d: int, D: int,
                 values) -> None:
        D, vals = dense_layout(modulus, n, d, D, values, "value table")
        self.modulus = modulus
        self.n = n
        self.d = d
        self.D = D
        self.values = vals

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EvalTable):
            return (self.modulus.p == other.modulus.p and self.n == other.n
                    and self.d == other.d and self.D == other.D
                    and self.values == other.values)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"EvalTable(n={self.n}, d={self.d}, D={self.D}, "
                f"p={self.modulus.p}, {len(self.values)} values)")


# Layout metadata, cached on the effective (clamped) budget.

@lru_cache(maxsize=None)
def _degree_sums(nv: int, b: int, d: int) -> tuple[int, ...]:
    """Coordinate sum of each index of the (nv, b) layout, in order."""
    sums = [0]
    for _ in range(nv):
        sums = [s + j for j in range(min(d, b) + 1) for s in sums
                if s <= b - j]
    return tuple(sums)


@lru_cache(maxsize=None)
def _embedding_cached(nv: int, big: int, small: int,
                      d: int) -> tuple[int, ...]:
    sums = _degree_sums(nv, big, d)
    return tuple(r for r, s in enumerate(sums) if s <= small)


def _embedding(nv: int, big: int, small: int, d: int) -> tuple[int, ...] | None:
    """Positions of the (nv, small) layout inside the (nv, big) layout.

    None when the two layouts coincide (equal effective budgets), which
    callers use as the aligned fast path.
    """
    big_e = clamp_budget(nv, d, big)
    small_e = clamp_budget(nv, d, small)
    if big_e == small_e:
        return None
    return _embedding_cached(nv, big_e, small_e, d)


def _relabelling(nv1: int, b: int, d: int, offs) -> tuple[array, array]:
    """(down, up) tables of the (nv1+1, b) layout with block offsets offs.

    ``[data[i] for i in down]`` relabels (e_1, ..., e_nv) as (e_nv, e_1,
    ..., e_{nv-1}), i.e. lists each prefix of the (nv1, b) layout with its
    admissible top values j under it; ``up`` is the inverse.
    """
    seen = list(offs[:-1])
    down = array("q")
    for s in _degree_sums(nv1, clamp_budget(nv1, d, b), d):
        for j in range(min(d, b - s) + 1):
            down.append(seen[j])
            seen[j] += 1
    up = array("q", bytes(8 * len(down)))
    for r, i in enumerate(down):
        up[i] = r
    return down, up


# Combination kernels. Residue math is inlined with deferred reduction
# (partial sums stay below (d+1) * p^2, exact in Python ints); counters
# are bumped with the exact number of executed muls/adds.

def _fused(coefs, cols, p: int) -> list[int]:
    """sum_i coefs[i] * cols[i], elementwise over equal-length columns."""
    acc = [coefs[0] * v for v in cols[0]]
    for c, col in zip(coefs[1:], cols[1:]):
        acc = [a + c * v for a, v in zip(acc, col)]
    return [a % p for a in acc]


def _expand_blocks(coefs, blocks, embs, p: int,
                   ctr: OpCounter | None) -> list[int]:
    """sum_i coefs[i] * blocks[i], each block embedded into the layout of
    blocks[0], whose budget dominates the others.

    ``embs`` is None when every block already shares the target layout,
    else a tuple of per-block position tuples (None entries aligned).
    """
    if ctr is not None:
        total = sum(len(blk) for blk in blocks)
        ctr.mul_count += total
        ctr.add_count += total - len(blocks[0])
    if embs is None:
        return _fused(coefs, blocks, p)
    acc = [coefs[0] * v for v in blocks[0]]
    for c, blk, emb in zip(coefs[1:], blocks[1:], embs[1:]):
        if emb is None:
            acc = [a + c * v for a, v in zip(acc, blk)]
        else:
            for r, v in zip(emb, blk):
                acc[r] += c * v
    return [a % p for a in acc]


def _gather_blocks(coefs, blocks, embs, p: int,
                   ctr: OpCounter | None) -> list[int]:
    """sum_i coefs[i] * blocks[i], each block restricted onto the layout
    of blocks[-1], whose budget is dominated by the others."""
    if embs is None:
        cols = blocks
    else:
        cols = [blk if emb is None else [blk[r] for r in emb]
                for blk, emb in zip(blocks, embs)]
    if ctr is not None:
        width = len(cols[-1])
        ctr.mul_count += len(cols) * width
        ctr.add_count += (len(cols) - 1) * width
    return _fused(coefs, cols, p)


@lru_cache(maxsize=None)
def _level_plan(nv: int, b: int, d: int):
    """Layout metadata of every stage on the (nv, b) layout.

    Returns (jmax, block offsets, expand embeddings per row, gather
    embeddings per row, down, up); embedding entries are None when all
    sources of that row are already aligned.
    """
    jmax = min(d, b)
    nv1 = nv - 1
    offs = tuple(accumulate((ebc_cum(nv1, b - j, d)
                             for j in range(jmax + 1)), initial=0))
    expand_embs = []
    gather_embs = []
    for j in range(jmax + 1):
        row = tuple(_embedding(nv1, b - j, b - i, d)
                    for i in range(j, jmax + 1))
        expand_embs.append(None if all(e is None for e in row) else row)
        row = tuple(_embedding(nv1, b - i, b - j, d) for i in range(j + 1))
        gather_embs.append(None if all(e is None for e in row) else row)
    return ((jmax, offs, tuple(expand_embs), tuple(gather_embs))
            + _relabelling(nv1, b, d, offs))


def _transform(data: list[int], nv: int, b: int, d: int, mod: PrimeModulus,
               factors, inverse: bool) -> list[int]:
    """The 2*nv stages of the module docstring on the (nv, b) layout.

    ``factors[m-1]`` holds (lower rows, upper rows) for variable m: (L, U)
    of its Vandermonde matrix when ``inverse`` is False, their inverses
    when it is True. ``b`` is the effective budget, >= 0.
    """
    if nv == 0:
        return data
    p = mod.p
    ctr = mod.counter
    jmax, offs, expand_embs, gather_embs, down, up = _level_plan(nv, b, d)
    # Evaluation expands with U_nv..U_1, then gathers with L_1..L_nv;
    # interpolation gathers with inv(L)_nv..inv(L)_1, then expands with
    # inv(U)_1..inv(U)_nv. Between stages the next variable is relabelled
    # to the top, down in the first half and up in the second.
    stages = ([(m, not inverse, down) for m in range(nv, 0, -1)]
              + [(m, inverse, up) for m in range(1, nv + 1)])
    for k, (m, upper, perm) in enumerate(stages):
        if k != 0 and k != nv:
            data = [data[i] for i in perm]
        rows = factors[m - 1][1 if upper else 0]
        blocks = [data[offs[i]:offs[i + 1]] for i in range(jmax + 1)]
        data = []
        for j in range(jmax + 1):
            if upper:
                data.extend(_expand_blocks(rows[j][j:jmax + 1], blocks[j:],
                                           expand_embs[j], p, ctr))
            else:
                data.extend(_gather_blocks(rows[j][:j + 1], blocks[:j + 1],
                                           gather_embs[j], p, ctr))
    return data


def _check_grid_match(obj, grid: Grid, what: str) -> None:
    if obj.n != grid.n or obj.d != grid.d:
        raise ValidationError(
            f"{what} has (n={obj.n}, d={obj.d}) but grid has "
            f"(n={grid.n}, d={grid.d})")
    if obj.modulus.p != grid.modulus.p:
        raise ValidationError(
            f"{what} is over F_{obj.modulus.p} but grid is over "
            f"F_{grid.modulus.p}")


def _eval_factors(grid: Grid):
    mod = grid.modulus
    out = []
    for row in grid.rows:
        fac = lu_decompose(build_vandermonde(row, mod))
        out.append((fac.L.rows, fac.U.rows))
    return out


def _interp_factors(grid: Grid):
    """Inverted triangular factors per level: (inv(L), inv(U)).

    Their product inv(U) @ inv(L) is the inverse Vandermonde matrix; both
    inverses exist for every distinct-node row.
    """
    mod = grid.modulus
    out = []
    for row in grid.rows:
        fac = lu_decompose(build_vandermonde(row, mod))
        out.append((invert(fac.L).rows, invert(fac.U).rows))
    return out


def trimmed_eval(poly: TrimmedPoly, grid: Grid) -> EvalTable:
    """Evaluate ``poly`` at every admissible grid point.

    Output slot r holds the value at the point selected by
    unrank(r, n, d, D). Near-linear in the table size: the counted field
    multiplications are O(ebc_cum(n, D, d) * n * poly(d)).
    """
    _check_grid_match(poly, grid, "polynomial")
    mod = poly.modulus
    if poly.D < 0:
        return EvalTable(mod, poly.n, poly.d, poly.D, [])
    factors = _eval_factors(grid)
    values = _transform(list(poly.coeffs), poly.n, poly.D, poly.d, mod,
                        factors, inverse=False)
    return EvalTable(mod, poly.n, poly.d, poly.D, values)


def trimmed_interp(table: EvalTable, grid: Grid) -> TrimmedPoly:
    """Recover the unique polynomial with the table's degree bounds whose
    values on the trimmed grid match the table."""
    _check_grid_match(table, grid, "evaluation table")
    mod = table.modulus
    if table.D < 0:
        return TrimmedPoly(mod, table.n, table.d, table.D, [])
    factors = _interp_factors(grid)
    coeffs = _transform(list(table.values), table.n, table.D, table.d, mod,
                        factors, inverse=True)
    return TrimmedPoly(mod, table.n, table.d, table.D, coeffs)


def naive_trimmed_eval(poly: TrimmedPoly, grid: Grid) -> EvalTable:
    """Quadratic oracle: term-by-term evaluation at every trimmed point.

    Shares nothing with the fast transform beyond the field layer and the
    canonical enumeration. O(N^2 * n) field multiplications.
    """
    _check_grid_match(poly, grid, "polynomial")
    mod = poly.modulus
    if poly.D < 0:
        return EvalTable(mod, poly.n, poly.d, poly.D, [])
    values = [naive_eval_point(poly, grid.point(exps))
              for exps in enumerate_trimmed(poly.n, poly.d, poly.D)]
    return EvalTable(mod, poly.n, poly.d, poly.D, values)


def yates_eval(poly: TrimmedPoly, grid: Grid) -> EvalTable:
    """Full-grid divide and conquer baseline; requires D = n*d.

    Splits on the last variable, recurses at full size d+1 times, then
    Horner-evaluates the resulting univariate polynomial at every node.
    Always (d+1)^n work regardless of any tighter total degree. For
    D = n*d the output order (last variable most significant, mixed radix)
    coincides with the canonical trimmed order, so the result is returned
    as an ordinary EvalTable.
    """
    _check_grid_match(poly, grid, "polynomial")
    if poly.D != poly.n * poly.d:
        raise ValidationError(
            f"full-grid baseline needs D = n*d = {poly.n * poly.d}, "
            f"got D = {poly.D}")
    mod = poly.modulus
    values = _yates(list(poly.coeffs), poly.n, poly.d, mod, grid.rows)
    return EvalTable(mod, poly.n, poly.d, poly.D, values)


def _yates(coeffs: list[int], nv: int, d: int, mod: PrimeModulus,
           rows) -> list[int]:
    if nv == 0:
        return coeffs
    p = mod.p
    ctr = mod.counter
    width = (d + 1) ** (nv - 1)
    subs = [_yates(coeffs[t * width:(t + 1) * width], nv - 1, d, mod, rows)
            for t in range(d + 1)]
    out: list[int] = []
    for z in rows[nv - 1]:
        acc = subs[d]
        for i in range(d - 1, -1, -1):
            sub = subs[i]
            acc = [(a * z + v) % p for a, v in zip(acc, sub)]
        if ctr is not None:
            ctr.mul_count += d * width
            ctr.add_count += d * width
        out.extend(acc)
    return out


def run_counted(task, *args, **kwargs):
    """Run ``task(*args)`` with one fresh OpCounter attached to every
    distinct modulus object found among the arguments, so that equal but
    separate moduli (say, a poly and a grid each loaded from its own
    file) are all counted; returns (result, counter)."""
    moduli = []
    for arg in args:
        mod = arg if isinstance(arg, PrimeModulus) else getattr(
            arg, "modulus", None)
        if isinstance(mod, PrimeModulus) and all(mod is not m for m in moduli):
            moduli.append(mod)
    if not moduli:
        raise ValueError("no modulus found among the task arguments")
    counter = OpCounter()
    saved = [mod.counter for mod in moduli]
    for mod in moduli:
        mod.counter = counter
    try:
        result = task(*args, **kwargs)
    finally:
        for mod, prev in zip(moduli, saved):
            mod.counter = prev
    return result, counter
