"""Fast evaluation and interpolation on trimmed grids, the quadratic
oracle, and the full-grid baseline.

An EvalTable is the dense container of ``poly`` (shape checks, residues,
equality, repr and ``_trusted``) under the name ``values``; a Grid checks
its shape with the same rule, ``combinat._check_params``.

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
leading principal block of one unit triangular factor T, or solves with
it (see Factors): output block j is block_j + sum_{i != j} T[j][i] *
block_i over the row's nonzero range, on the first len(block_j)
positions, or block_j minus that sum. One kernel, ``_kernel(signs,
minus)``, computes each output position of a segment in one pass over
the columns that cover it. Column 0 is the diagonal block; a column's
sign 0 multiplies it by a coefficient and adds the product, and 1 takes
it as it is, added, or subtracted with ``minus`` after column 0. Every
lower row j >= 1 has L[j][0] = L[j][j] = 1 on any nodes, so it reads
block j, then blocks 0..j-1, and multiplies only by its j-1 interior
coefficients. The upper factor is unit: row j has U'[j][j] = 1, so it
multiplies only by the coefficients right of its diagonal. Lower row 0
and upper row jmax are the identity and pass their block on. For a lower
factor, row j reads blocks 0..j, whose budgets never fall below b-j, so
the target is a prefix of each source and the whole target is one
segment. For an upper factor, row j reads blocks j..d, whose budgets
never exceed b-j, so each source is a prefix of the target: the target
splits where the sources end, and each segment reads only the sources
that reach it. Nothing is zero-padded, so each stage executes exactly
the products and sums that it tallies.

Factors
-------
Evaluation factors each variable's Vandermonde matrix as V = L * U, the
Doolittle factorization, which exists without pivoting on distinct
nodes: every leading principal minor is itself a nonzero Vandermonde
determinant. U = D * U' splits off its diagonal D = diag(delta_i),
delta_i = prod_{l<i} (x_i - x_l), and leaves U' unit upper triangular:
the change of basis from the monomials to the Newton basis
prod_{l<i} (x - x_l). No elimination finds the factors:
``linalg.vandermonde_factors`` writes L, U' and the scale row (delta_i)
in closed form, and for interpolation the same L and U', their
coefficients negated, and the scale row (1/delta_i); its docstring gives
the formulas and the count. A row
costs O((d+1)^2) field operations and one batched inversion.

The stages run L and U'. D_m, the diagonal along variable m, scales an
entry by a factor that depends on e_m alone, so it commutes with every
stage along another variable, and the n diagonals are paid once, in one
weight pass (``_weigh``) between the two halves: the entry e times w(e) =
prod_m s^(m)_{e_m}, with s = delta to evaluate and s = 1/delta to
interpolate. It costs 2N - 1 products, against the N products per upper
stage that multiplying by D there would cost.

Interpolation solves with the same factors. On a fiber of f entries a
stage multiplies by the leading f x f block of L or U', which is unit
triangular, so solving with that block undoes it: forward substitution
for L, back substitution for U', where each entry is its own block minus
the row's other terms on the entries already solved. The interpolation
factors hold those terms' coefficients negated, so a solving row adds
every product, as an evaluation row does, and subtracts only block 0 of
a lower row; a sum that is negative before ``% p`` costs CPython one
more big-int addition, and a product term no longer makes one. A row
solves at the cost at which it multiplies, with the same kernel.

Stage order
-----------
Evaluation runs U' along every variable, then the weight pass, then L
along every variable. Within a half the stages commute, because the
layout {e in [0,d]^n : sum(e) <= b} is downward closed: a lower stage
along m reads only entries with a smaller e_m, all in the layout, and an
upper stage those with a larger e_m that stay in it. The upper half must
come first: on the full cube evaluation is (prod L)(prod D)(prod U') of
the zero-padded coefficients, and as a lower stage reads only entries
below its own, it never needs the values that the upper stages would
leave outside the layout; the reverse order would.

Each stage needs its variable on top. The layout is symmetric under
permuting coordinates, so one cached gather, ``up``, relabels the
degree-ordered blocks as (e_2, ..., e_n, e_1), which brings the next
variable to the top, and each half takes the variables in that order:

    U'_n, U'_1, ..., U'_{n-1},  D,  L_n, L_1, ..., L_{n-1}.

After n gathers the blocks are back in the ``enter`` order, where the
weight pass runs. Interpolation solves with L_n, L_1, ..., L_{n-1}, then
with D, then with U'_n, U'_1, ..., U'_{n-1}. Each stage overwrites its
blocks in place, one row at a time, ascending in the first half and
descending in the second: an evaluation row then reads only blocks not
yet overwritten, its inputs, and a solving row the blocks already
solved.

A transform call tallies its stages and its weight pass once. With w_j =
len(block_j), a unit upper stage executes sum_j j * w_j multiplications,
a lower one sum_{j>=2} (j-1) * w_j, the weight pass 2N - 1, and each
stage sum_j j * w_j additions, a subtraction counted as one, in either
direction. Its factors are tallied once per row, by
``linalg.vandermonde_factors``: interpolation's factors cost one
negation more, and its batch also inverts delta_d, which costs 3 more
products per row for d >= 2, and for d = 1 the one inversion that
evaluation does not need. So an interpolation executes exactly n more
additions than an evaluation on the same shape.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import itemgetter

from .combinat import (ValidationError, _check_params, _layout_walk,
                       layout_vectors, quote)
from .field import PrimeModulus, tally
from .linalg import vandermonde_factors
from .poly import TrimmedPoly, _DenseTable, _term_sum, to_sparse

__all__ = [
    "Grid", "EvalTable", "trimmed_eval", "trimmed_interp",
    "naive_trimmed_eval", "yates_eval",
]


def _check_node_count(modulus: PrimeModulus, d: int) -> None:
    """The node rule: a row of d+1 distinct nodes needs p >= d+1."""
    if modulus.p < d + 1:
        raise ValidationError(
            f"need p >= d+1 for distinct nodes, got p={modulus.p}, "
            f"d={quote(d)}")


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
        _check_params(len(normalized), d)
        _check_node_count(modulus, d)
        for i, row in enumerate(normalized):
            if len(row) != d + 1:
                raise ValidationError(
                    f"variable {i + 1} has {len(row)} nodes, expected {d + 1}")
            if len(set(row)) != d + 1:
                raise ValidationError(
                    f"variable {i + 1} has duplicate nodes: {quote(row)}")
        self.modulus = modulus
        self.n = len(normalized)
        self.d = d
        self.rows = normalized

    @classmethod
    def sequential(cls, modulus: PrimeModulus, n: int, d: int) -> "Grid":
        """Nodes z[i][j] = j; the reproducible human-checkable choice."""
        _check_params(n, d)
        return cls(modulus, [range(d + 1)] * n, d=d)  # no node list at n = 0

    @classmethod
    def random(cls, modulus: PrimeModulus, n: int, d: int,
               seed: int) -> "Grid":
        """Seeded distinct nodes per row."""
        _check_params(n, d)
        _check_node_count(modulus, d)
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


class EvalTable(_DenseTable):
    """Evaluations on the trimmed grid, one per admissible exponent vector,
    flattened in the same canonical order as TrimmedPoly coefficients."""

    __slots__ = ()
    values = _DenseTable._entries
    _unit = "values"
    _noun = "value table"


# Layout metadata, cached on the effective (clamped) budget. Index arrays
# are int32: combinat.SIZE_LIMIT keeps every layout below 2^21 entries.

@lru_cache(maxsize=None)
def _level_plan(nv: int, b: int, d: int):
    """Layout tables of every stage on the (nv, b) layout.

    Returns (jmax, block offsets, enter, leave, up, fits). ``[data[i] for
    i in enter]`` puts canonical data into the degree-ordered blocks of
    the module docstring; in that internal order, ``up(data)`` relabels
    (e_1, ..., e_nv) as (e_2, ..., e_nv, e_1), a gather by one cached
    ``itemgetter``, and ``list(up(range(N)))`` is its index array. The
    stages apply ``up`` 2*nv - 1 times, one short of the identity, so
    ``leave`` applies it once more and then undoes ``enter``. ``fits[j]``
    is a bytes row over the canonical (nv-1, b) listing, 1 where a
    prefix's sum is at most b-j.
    """
    jmax = min(d, b)
    sums = _layout_walk(nv - 1, d, b, 1)
    # Block j lists the width_j prefixes (e_1, ..., e_{nv-1}) with sum <=
    # b-j: canonically in the order of ``sums``, internally as the first
    # width_j entries of ``graded``, that order sorted stably by sum.
    # ``enter`` holds each one's canonical index, offs[j] plus the count of
    # earlier prefixes that fit; ``back``, its inverse, holds offs[j] plus
    # each fitting prefix i's rank in ``graded``, grank[i].
    fits = [bytes(s <= b - j for s in sums) for j in range(jmax + 1)]
    widths = [sum(fit) for fit in fits]
    offs = tuple(accumulate(widths, initial=0))
    graded = sorted(range(len(sums)), key=sums.__getitem__)
    grank = sorted(range(len(sums)), key=graded.__getitem__)
    enter, back = array("i"), array("i")
    for j, fit in enumerate(fits):
        index = list(accumulate(fit, initial=offs[j]))
        enter.extend([index[g] for g in graded[:widths[j]]])
        back.extend([offs[j] + r for r in compress(grank, fit)])
    # The relabelled canonical order lists each prefix i with its
    # admissible top values j <= min(d, b - sums[i]) under it, from
    # position start[i] on, so ``up`` finds the entry (prefix g, top j) at
    # relabelled internal position back[start[g] + j].
    start = list(accumulate((min(d, b - s) + 1 for s in sums), initial=0))
    up = array("i", [back[start[g] + j] for j, w in enumerate(widths)
                     for g in graded[:w]])
    leave = array("i", [up[i] for i in back])
    # The getter's N index objects are made once the temporaries are gone,
    # into the memory they held. One index would make itemgetter return
    # the bare item; the only relabelling of one entry is the identity, a
    # copy.
    del sums, graded, grank, back, start, index
    return (jmax, offs, enter, leave,
            itemgetter(*up) if len(up) > 1 else itemgetter(slice(None)),
            fits)


# The stage kernel: one comprehension per segment, one pass over its
# columns. Residue math is inlined with deferred reduction: each output
# position is one sum of k terms, each a product (below p^2) or a column
# (below p), exact in Python ints, reduced once. The source is built from
# the sign pattern and the direction alone, after checking that they are
# one.

@lru_cache(maxsize=None)
def _kernel(signs: tuple, minus: bool):
    """kernel(coefs, cols, p): [(term_0 +- term_1 +- ...) % p] for every
    position t that all columns cover, in one comprehension. term_i is c *
    cols[i][t], c the next coefficient of ``coefs``, if signs[i] is 0, and
    cols[i][t] if it is 1. Column 0 and every coefficient column are
    added; a structural column after column 0 is added, or subtracted with
    ``minus``."""
    if (type(signs) is not tuple or not signs or type(minus) is not bool
            or any(type(s) is not int or s not in (0, 1) for s in signs)):
        raise ValueError(f"kernel sign pattern must be a non-empty tuple "
                         f"over (0, 1) and minus a bool, got {signs!r}, "
                         f"{minus!r}")
    general = [i for i, s in enumerate(signs) if s == 0]
    unpack = "".join(f"c{i}, " for i in general) + "= coefs" if general else ""
    xs = "".join(f"x{i}, " for i in range(len(signs)))
    expr = "".join(f" + c{i} * x{i}" if s == 0 else
                   f" - x{i}" if minus and i else f" + x{i}"
                   for i, s in enumerate(signs))[3:]
    namespace = {}
    exec(f"def kernel(coefs, cols, p):\n"
         f"    {unpack}\n"
         f"    return [({expr}) % p for {xs}in zip(*cols)]\n",
         namespace)
    return namespace["kernel"]


def _transform(data, grid: Grid, b: int, inverse: bool):
    """The 2*n stages of the module docstring on the grid's (n, b) layout,
    ``b`` the effective budget, with the weight pass between the halves:
    evaluation with the grid's factors, interpolation (``inverse``) by
    solving with them. With n = 0 or b < 0 there is nothing to
    transform, and ``data`` comes back as it is.
    """
    nv, d, p = grid.n, grid.d, grid.modulus.p
    if nv == 0 or b < 0:
        return data
    factors = [vandermonde_factors(row, p, inverse) for row in grid.rows]
    jmax, offs, enter, leave, up, fits = _level_plan(nv, b, d)
    widths = [offs[j + 1] - offs[j] for j in range(jmax + 1)]
    # A unit upper stage multiplies by every coefficient off the diagonal;
    # a lower one skips row 0, the identity, and the structural columns of
    # rows j >= 1. The weight pass takes 2N - 1 products.
    upper = sum(j * w for j, w in enumerate(widths))
    lower = sum((j - 1) * widths[j] for j in range(2, jmax + 1))
    tally(mul=nv * (upper + lower) + 2 * offs[-1] - 1, add=2 * nv * upper)
    # Row j reads block j, then blocks first..stop-1, with its kernel, and
    # multiplies by its coefficients c0..c1-1 (see Stage scheme): a lower
    # row j >= 1 by 1..j-1 only, a unit upper row j < jmax by j+1..jmax.
    # unit[k] multiplies the k blocks after block j; unit[0], the
    # identity, passes its column's slice on as it is.
    unit = [lambda coefs, cols, p: cols[0]] + [
        _kernel((1,) + (0,) * k, inverse) for k in range(1, jmax + 1)]
    # Lower row 0 and upper row jmax are the identity and pass their block
    # on. Before the final ``| 0`` copy below, passing block 0 on raised
    # lib-bigprime's max RSS by 8%; with it, one perfbench run read 29.1 /
    # 30.0 MB (eval / interp) against 28.9 / 30.2 MB with the product by 1
    # (CPython 3.11, 2 vCPUs).
    plans = ([(unit[0], 0, 0, 0, 0)]
             + [(_kernel((1, 1) + (0,) * (j - 1), inverse), 0, j, 1, j)
                for j in range(1, jmax + 1)],
             [(unit[jmax - j], j + 1, jmax + 1, j + 1, jmax + 1)
              for j in range(jmax)])
    # Stage k runs on variable k % nv, or nv where that is 0: the upper
    # rows first when evaluating, the lower ones when interpolating.
    # Before every stage but the first, ``up`` brings its variable on top;
    # before stage nv that restores the ``enter`` order, where the weight
    # pass runs.
    data = [data[i] for i in enter]
    for k in range(2 * nv):
        if k:
            data = up(data)
        side = int((k < nv) != inverse)  # 1 for the upper factor
        rows, plan = factors[k % nv - 1][side], plans[side]
        blocks = [data[offs[i]:offs[i + 1]] for i in range(jmax + 1)]
        if k == nv:
            # Weighing block by block frees each block's residues as it
            # goes, so the pass holds N + w_0 of them, not 2N.
            del data
            _weigh(blocks, factors, enter, fits, p)
            data = blocks[:]
        # Row j overwrites block j: upwards in the first half, downwards in
        # the second, so an evaluation row reads only inputs and a solving
        # row the blocks already solved. ``data`` keeps the inputs alive
        # until the last row: freeing each block's residues as soon as it
        # is overwritten made lib-bigprime's transforms 7-9% slower
        # (CPython 3.11, 2 vCPUs).
        for j in range(len(plan)) if k < nv else range(len(plan) - 1, -1, -1):
            # A lower row's target, block j, is a prefix of every block it
            # reads, so it is one segment. An upper row's blocks are each a
            # prefix of the one before, so zip stops the first segment at
            # the end of block jmax; the target runs on, and its segment
            # past the end of block i + 1, up to the end of block i, reads
            # blocks j..i.
            kernel, first, stop, c0, c1 = plan[j]
            out = kernel(rows[j][c0:c1], [blocks[j], *blocks[first:stop]], p)
            lo = widths[stop - 1]
            for i in range(stop - 2, j - 1, -1):
                if widths[i] > lo:
                    cols = [block[lo:widths[i]] for block in blocks[j:i + 1]]
                    out += unit[i - j](rows[j][j + 1:i + 1], cols, p)
                    lo = widths[i]
            blocks[j] = out
        data = []
        for block in blocks:
            data += block
        # Drop the stage's blocks before the next gather, which would
        # otherwise hold three tables at once.
        del blocks
    # ``| 0`` copies each residue into a fresh int, no field operation.
    # The unit upper rows pass residues on uncopied, and without the copy
    # lib-bigprime's max RSS read 6% (eval) and 9% (interp) higher, an
    # allocator placement effect (CPython 3.11, 2 vCPUs).
    return [data[i] | 0 for i in leave]


def _weigh(blocks, factors, enter, fits, p: int) -> None:
    """D = diag(w) on the blocks in the ``enter`` order, in place: the
    entry e times w(e) = prod_m s^(m)_{e_m}, s^(m) the scale row of
    variable m (see Factors).

    The weights of the canonical (nv-1, b) listing are built level by
    level, in w_0 - 1 products: W_0 = [1], and level m appends, for each
    top value j >= 1, s^(m)_j times the entries of W_{m-1} whose sums
    are at most b-j. Block j holds the first len(block_j) prefixes of the
    degree order, so it is weighed by those of G, the weights in that
    order, and by s^(nv)_j: one product in block 0, two in the others.
    Only the w_0 weights live, and only during the pass.
    """
    weights = [1]
    for *_, scale in factors[:-1]:
        weights += [scale[j] * w % p for j in range(1, len(blocks))
                    for w in compress(weights, fits[j])]
    weights = [weights[i] for i in enter[:len(blocks[0])]]
    blocks[0] = [x * g % p for x, g in zip(blocks[0], weights)]
    scale = factors[-1][2]
    for j in range(1, len(blocks)):
        s = scale[j]
        blocks[j] = [x * g * s % p for x, g in zip(blocks[j], weights)]


def _check_grid_match(obj, grid: Grid, what: str) -> None:
    if obj.n != grid.n or obj.d != grid.d:
        raise ValidationError(
            f"{what} has (n={obj.n}, d={obj.d}) but grid has "
            f"(n={grid.n}, d={grid.d})")
    if obj.modulus.p != grid.modulus.p:
        raise ValidationError(
            f"{what} is over F_{obj.modulus.p} but grid is over "
            f"F_{grid.modulus.p}")


def trimmed_eval(poly: TrimmedPoly, grid: Grid) -> EvalTable:
    """Evaluate ``poly`` at every admissible grid point.

    Output slot r holds the value at the point selected by
    unrank(r, n, d, D). Near-linear in the table size: the counted field
    multiplications are O(ebc_cum(n, D, d) * n * poly(d)).
    """
    _check_grid_match(poly, grid, "polynomial")
    values = _transform(poly.coeffs, grid, poly.D, inverse=False)
    return EvalTable._trusted(poly.modulus, poly.n, poly.d, poly.D, values)


def trimmed_interp(table: EvalTable, grid: Grid) -> TrimmedPoly:
    """Recover the unique polynomial with the table's degree bounds whose
    values on the trimmed grid match the table."""
    _check_grid_match(table, grid, "evaluation table")
    coeffs = _transform(table.values, grid, table.D, inverse=True)
    return TrimmedPoly._trusted(table.modulus, table.n, table.d, table.D,
                                coeffs)


def naive_trimmed_eval(poly: TrimmedPoly, grid: Grid) -> EvalTable:
    """Quadratic oracle: term-by-term evaluation at every trimmed point.

    Shares nothing with the fast transform beyond ``field.tally`` and the
    canonical enumeration. O(N^2 * n) field multiplications.
    """
    _check_grid_match(poly, grid, "polynomial")
    terms = to_sparse(poly).terms
    p = poly.modulus.p
    values = [_term_sum(terms, grid.point(exps), p) for exps in
              layout_vectors(poly.n, poly.d, poly.D, repeat(1))]
    return EvalTable._trusted(poly.modulus, poly.n, poly.d, poly.D, values)


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
    values = _yates(list(poly.coeffs), poly.n, poly.d, mod.p, grid.rows)
    return EvalTable._trusted(mod, poly.n, poly.d, poly.D, values)


def _yates(coeffs: list[int], nv: int, d: int, p: int, rows) -> list[int]:
    if nv == 0:
        return coeffs
    width = (d + 1) ** (nv - 1)
    subs = [_yates(coeffs[t * width:(t + 1) * width], nv - 1, d, p, rows)
            for t in range(d + 1)]
    out: list[int] = []
    for z in rows[nv - 1]:
        acc = subs[d]
        for i in range(d - 1, -1, -1):
            sub = subs[i]
            acc = [(a * z + v) % p for a, v in zip(acc, sub)]
        tally(mul=d * width, add=d * width)
        out.extend(acc)
    return out
