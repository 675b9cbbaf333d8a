"""Fast evaluation and interpolation on trimmed grids, the quadratic
oracle, and the full-grid baseline.

Layout scheme
-------------
At the boundary, a coefficient vector or evaluation table for (nv
variables, total budget b) is in the canonical order: the concatenation
of d+1 blocks indexed by the last coordinate j, where block j lists the
(nv-1, b-j) layout canonically. Inside the transform each block is kept
in degree order instead: its entries sorted by coordinate sum, ties
broken canonically. In degree order the (nv-1, b-i) layout is the
entries with sum <= b-i, so for i > j it is a prefix of the (nv-1, b-j)
layout: moving a block to a smaller budget keeps its first entries, and
moving it to a larger one pads it with zeros. Tables cached per shape
permute the canonical order into degree-ordered blocks before the first
stage (``enter``) and back after the last (``leave``).

Stage scheme
------------
A stage multiplies every fiber along the top (last) variable by a
leading principal block of one triangular factor T: output block j is
sum_i T[j][i] * block_i over the row's nonzero range, on the first
len(block_j) positions. One kernel does both shapes. For an upper
factor, row j reads blocks j..d, whose budgets never exceed b-j, so each
source is a prefix of the target, zero-padded; for a lower factor, row
j reads blocks 0..j, whose budgets never fall below b-j, so the target
is a prefix of each source, which is cut.

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
tables move the degree-ordered blocks to that labelling (``down``) and
back (``up``).

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

Multiplication/addition counts are tallied in bulk per kernel call
and equal the operations actually executed; for the fast transforms they
depend only on (n, d, D), never on coefficient values.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from itertools import accumulate, compress

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
def _level_plan(nv: int, b: int, d: int):
    """Layout tables of every stage on the (nv, b) layout.

    Returns (jmax, block offsets, enter, leave, down, up). ``[data[i] for
    i in enter]`` puts canonical data into the degree-ordered blocks of the
    module docstring and ``leave`` is its inverse; in that internal order,
    ``down`` relabels (e_1, ..., e_nv) as (e_nv, e_1, ..., e_{nv-1}) and
    ``up`` is its inverse.
    """
    jmax = min(d, b)
    nv1 = nv - 1
    sums = _degree_sums(nv1, clamp_budget(nv1, d, b), d)
    offs = tuple(accumulate((ebc_cum(nv1, b - j, d)
                             for j in range(jmax + 1)), initial=0))
    # Block j lists the prefixes (e_1, ..., e_nv1) with sum <= b-j:
    # canonically in the order of ``sums``, internally as the first width_j
    # entries of ``graded``, that order sorted stably by sum. ``enter``
    # holds each one's canonical index, offs[j] plus the count of earlier
    # prefixes that fit; ``leave`` holds offs[j] plus each fitting prefix
    # i's rank in ``graded``, grank[i].
    graded = sorted(range(len(sums)), key=sums.__getitem__)
    grank = sorted(range(len(sums)), key=graded.__getitem__)
    widths = [offs[j + 1] - offs[j] for j in range(jmax + 1)]
    fits = [[s <= b - j for s in sums] for j in range(jmax + 1)]
    enter, leave = array("q"), []
    for j, fit in enumerate(fits):
        index = list(accumulate(fit, initial=offs[j]))
        enter.extend([index[g] for g in graded[:widths[j]]])
        leave += [offs[j] + r for r in compress(grank, fit)]
    # The relabelled canonical order lists each prefix i with its
    # admissible top values j under it, from position start[i] on, so
    # ``up`` finds the entry (prefix g, top j) at relabelled internal
    # position leave[start[g] + j]; ``down`` is its inverse.
    start = list(accumulate(map(sum, zip(*fits)), initial=0))
    up = array("q", [leave[start[g] + j] for j, w in enumerate(widths)
                     for g in graded[:w]])
    down = array("q", bytes(8 * len(up)))
    for r, i in enumerate(up):
        down[i] = r
    return jmax, offs, enter, array("q", leave), down, up


# The combination kernel. Residue math is inlined with deferred reduction
# (partial sums stay below (d+1) * p^2, exact in Python ints); the stage
# loop bumps the counters with the exact number of executed muls/adds.

def _combine(coefs, cols, w: int, p: int) -> list[int]:
    """sum_i coefs[i] * cols[i] on the first w positions, where a column
    shorter than w counts as zero-padded; cols[0] spans all w."""
    c = coefs[0]
    acc = [c * v for v in cols[0][:w]]
    for c, col in zip(coefs[1:], cols[1:]):
        if len(col) >= w:
            acc = [a + c * v for a, v in zip(acc, col)]
        else:
            acc[:len(col)] = [a + c * v for a, v in zip(acc, col)]
    return [a % p for a in acc]


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
    jmax, offs, enter, leave, down, up = _level_plan(nv, b, d)
    # Evaluation runs U_nv..U_1, then L_1..L_nv; interpolation runs
    # inv(L)_nv..inv(L)_1, then inv(U)_1..inv(U)_nv. Between stages the
    # next variable is relabelled to the top, down in the first half and
    # up in the second.
    stages = ([(m, not inverse, down) for m in range(nv, 0, -1)]
              + [(m, inverse, up) for m in range(1, nv + 1)])
    data = [data[i] for i in enter]
    for k, (m, upper, perm) in enumerate(stages):
        if k != 0 and k != nv:
            data = [data[i] for i in perm]
        rows = factors[m - 1][1 if upper else 0]
        blocks = [data[offs[i]:offs[i + 1]] for i in range(jmax + 1)]
        data = []
        for j in range(jmax + 1):
            # Row j of an upper factor reads the narrower blocks j..jmax,
            # of a lower factor the wider blocks 0..j.
            lo, hi = (j, jmax + 1) if upper else (0, j + 1)
            cols = blocks[lo:hi]
            w = len(blocks[j])
            if ctr is not None:
                muls = sum(min(len(col), w) for col in cols)
                ctr.mul_count += muls
                ctr.add_count += muls - w
            data.extend(_combine(rows[j][lo:hi], cols, w, p))
    return [data[i] for i in leave]


def _check_grid_match(obj, grid: Grid, what: str) -> None:
    if obj.n != grid.n or obj.d != grid.d:
        raise ValidationError(
            f"{what} has (n={obj.n}, d={obj.d}) but grid has "
            f"(n={grid.n}, d={grid.d})")
    if obj.modulus.p != grid.modulus.p:
        raise ValidationError(
            f"{what} is over F_{obj.modulus.p} but grid is over "
            f"F_{grid.modulus.p}")


def _factors(grid: Grid, inverse: bool):
    """Per-variable (lower rows, upper rows): the LU factors of the row's
    Vandermonde matrix, or with ``inverse`` their inverses, whose product
    inv(U) @ inv(L) is the inverse Vandermonde matrix; both inverses exist
    for every distinct-node row."""
    out = []
    for row in grid.rows:
        fac = lu_decompose(build_vandermonde(row, grid.modulus))
        lower, upper = fac.L, fac.U
        if inverse:
            lower, upper = invert(lower), invert(upper)
        out.append((lower.rows, upper.rows))
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
    factors = _factors(grid, inverse=False)
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
    factors = _factors(grid, inverse=True)
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
