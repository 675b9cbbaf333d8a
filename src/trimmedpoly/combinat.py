"""Window binomial coefficients and canonical enumeration of bounded
exponent vectors.

``ebc(n, k, d)`` counts vectors in {0,...,d}^n whose coordinates sum to
exactly k; ``ebc_cum(n, D, d)`` counts those summing to at most D. They
obey the (d+1)-window generalization of Pascal's rule,

    ebc(n, k, d) = sum_{j=0}^{d} ebc(n-1, k-j, d),

which is how the tables here are filled: iteratively, one variable at a
time, and only up to the total-degree budget that is asked for.

The canonical order on these vectors is last-coordinate-major: sort by
the last coordinate ascending, then recursively order the remaining
prefix under the reduced sum budget. That is exactly lexicographic order
on the reversed vector, so ``sorted(vectors, key=lambda e: e[::-1])``
lists admissible vectors in canonical order. Every coefficient vector and
evaluation table in this package is addressed by ``rank`` in this order,
so that fixing the last coordinate always selects a contiguous slice.

The layout of (n, d, b), b a budget, is built here only. The cached
``count_rows``, keyed on the clamped budget, is its one table: row m
holds the running sums S_m[k] = sum_{y<k} ebc_cum(m, y, d) for m <= n
and k <= b+1, so ebc_cum(m, k, d) = S_m[k+1] - S_m[k]. The count rows
answer sizes (``ebc_cum`` and the capacity checks) and the ranks and
unranks of single vectors: ``rank``, ``unrank`` and the per-term ranks
of ``poly.from_sparse``. ``ebc(n, k, d)`` builds the rows of budget k
uncached, so no table is kept per k. Under the remaining budget b, the
vectors that precede value e in coordinate m+1 number sum_{j<e}
ebc_cum(m, b-j, d) = S_m[b+1] - S_m[b+1-e], so a rank is n table
differences and an unrank is n bisections.

One walk, ``_layout_walk(n, d, b, unit)``, lists sum_i e_i * unit^(i-1)
for each admissible vector e in canonical order: with unit 256 it gives
the layout codes below, the one listing of the vectors themselves, and
with unit 1 the coordinate sums that the stage plan of ``algo`` reads.

A vector e has the byte code ``int.from_bytes(bytes(e), "little")``:
coordinate i is byte i, so the last coordinate is the most significant,
and the numeric order of the codes is the canonical order.
``layout_codes`` lists a layout's codes in that order. A code is exact,
one byte per coordinate, while d <= 255, and ``layout_size``'s cube cap
n * (d+1)^3 <= 2^21 keeps d <= 127 for n >= 1. The codes take n bytes
per vector, n * N in all, which ``WORK_LIMIT`` bounds. Every conversion
of a whole layout between vectors and slots goes through them, in one of
two maps, and no other module converts a vector to a code or back:

- ``layout_vectors``, slots to vectors: the selected slots' code bytes,
  for ``enumerate_trimmed``, ``poly.to_sparse``, the oracle and the
  writer of ``jsonio``;
- ``layout_fill``, vectors to slots, its inverse: each value keyed by
  its vector's code, and the dense vector filled in one pass over the
  codes, for the bulk decode of ``jsonio``. It costs n * N however few
  the vectors, so ``poly.from_sparse``, whose term lists may be short,
  ranks each term instead, at n lookups a term.

None of them is cached.

A shape (n, d, D) needs n >= 0 and d >= 1; ``_check_params`` is the one
place that rule is raised, as ValidationError, for every module of the
package. A public construction checks it once, through ``layout_size``.
An error message shows a user value through ``quote``, the one rule for
every module: whole while short, else its head and its length.

Counts are guarded at 2^63: parameter choices whose vector count exceeds
that are not materializable anyway and raise CapacityError. The count
rows stop as soon as one passes the guard, so ``ebc(n, k, d)`` raises
whenever ebc_cum(n, k, d) would, even if the exact count fits. Nor may a
shape cost more than ``SIZE_LIMIT``: its (n+1) * (b+1) count rows, or (in
``layout_size``) its N-entry layout or n * (d+1)^3. The last bounds the
per-variable factors, written in closed form in O(n * (d+1)^2), more
tightly than their size: a square bound would admit d+1 = 1448 at n = 1,
seconds of work for one point. ``layout_size`` also caps n * N, the
entries that one direction's n stages visit and the layout codes' bytes,
at ``WORK_LIMIT``. Each is checked before anything is built.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat

COUNT_LIMIT = (1 << 63) - 1
SIZE_LIMIT = 1 << 21
# The most n * N of a shape: entry visits per stage pair, and code bytes
WORK_LIMIT = 1 << 26


class CapacityError(OverflowError):
    """A count exceeds 2^63 - 1, or a shape SIZE_LIMIT or WORK_LIMIT."""


class ValidationError(ValueError):
    """Malformed domain input (bad exponent, shape mismatch, bad table)."""


def quote(value) -> str:
    """``repr(value)`` for an error line, or, if the str itself or else
    that repr is longer than 40 characters, its first 20 characters and
    its length: a str's head quoted, any other value's head as it is."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    head = repr(text[:20]) if isinstance(value, str) else text[:20]
    return f"{head}... ({len(text)} characters)"


def quote_number(text: str) -> tuple[str, str]:
    """(quote, limit) for a message on a text that is not an integer: its
    ``quote``, and past 40 characters the limit of Python's int(), which
    the text may only exceed."""
    return quote(text), ("" if len(text) <= 40 else
                         " of at most 4300 digits, Python's limit")


def _check_size(size: int, what: str, unit: str = "entries") -> None:
    if size > SIZE_LIMIT:
        raise CapacityError(f"{what} would need {size} {unit}, more than "
                            f"the limit {SIZE_LIMIT}")


def _check_params(n: int, d: int) -> None:
    """The shape rule: n >= 0 variables, individual degree d >= 1."""
    if n < 0:
        raise ValidationError(f"variable count must be >= 0, got {quote(n)}")
    if d < 1:
        raise ValidationError(
            f"individual degree must be >= 1, got {quote(d)}")


@lru_cache(maxsize=None)
def count_rows(n: int, d: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Rows m = 0..n of the running sums S_m[k] = sum_{y<k} ebc_cum(m, y, d)
    for k = 0..b+1, so ebc_cum(m, k, d) = S_m[k+1] - S_m[k].

    The counts of row m follow from S_{m-1} by the window rule on
    cumulative counts, cum_m[k] = sum_{j<=d} cum_{m-1}[k-j] =
    S_{m-1}[k+1] - S_{m-1}[max(0, k-d)]. A row's counts never exceed its
    last one and rows grow with m, so the build raises CapacityError as
    soon as a last count passes COUNT_LIMIT. With b = -1, the budget of an
    empty layout, every row is (0,).
    """
    _check_size((n + 1) * (b + 1), f"count table of (n={n}, d={d}, D={b})")
    run = tuple(range(b + 2))  # every count of row 0 is 1
    rows = [run]
    for m in range(1, n + 1):
        row = [run[k + 1] - run[max(0, k - d)] for k in range(b + 1)]
        if row and row[-1] > COUNT_LIMIT:
            raise CapacityError(
                f"more than 2^63 - 1 vectors for (n={n}, d={d}, D={b})")
        run = tuple(accumulate(row, initial=0))
        rows.append(run)
    return tuple(rows)


def clamp_budget(n: int, d: int, D: int) -> int:
    """The canonical total-degree budget of (n, d, D): -1 for any negative
    D, else min(D, n*d), since no vector in {0,...,d}^n sums above n*d."""
    return -1 if D < 0 else min(D, n * d)


def ebc(n: int, k: int, d: int) -> int:
    """Number of vectors in {0,...,d}^n with coordinate sum exactly k."""
    _check_params(n, d)
    if k < 0 or k > n * d:
        return 0
    run = count_rows.__wrapped__(n, d, k)[n]  # no table cached per k
    return run[k + 1] - run[k] - (run[k] - run[k - 1] if k else 0)


def _cum(n: int, d: int, b: int) -> int:
    """ebc_cum(n, b, d) of a checked shape and a clamped budget b: the
    difference S_n[b+1] - S_n[b] of ``count_rows(n, d, b)``."""
    if b < 0:
        return 0
    run = count_rows(n, d, b)[n]
    return run[b + 1] - run[b]


def ebc_cum(n: int, D: int, d: int) -> int:
    """Number of vectors in {0,...,d}^n with coordinate sum at most D."""
    _check_params(n, d)
    return _cum(n, d, clamp_budget(n, d, D))


def layout_size(n: int, d: int, D: int) -> int:
    """ebc_cum(n, D, d) for a shape about to be built, once the shape
    rule holds, its factors and its layout are known to fit SIZE_LIMIT,
    and n * N is known to fit WORK_LIMIT."""
    _check_params(n, d)
    cube = n * (d + 1) ** 3
    if cube > SIZE_LIMIT:
        raise CapacityError(f"factors of (n={quote(n)}, d={quote(d)}): "
                            f"n*(d+1)^3 is {quote(cube)}, more than the "
                            f"limit {SIZE_LIMIT}")
    b = clamp_budget(n, d, D)
    what = f"layout of (n={n}, d={d}, D={quote(D)})"
    # N >= n + 1 at b >= 1: refuse a wide shape before its count rows
    if b >= 1 and n * (n + 1) > WORK_LIMIT:
        raise CapacityError(f"{what}: n*N is at least {n * (n + 1)}, more "
                            f"than the limit {WORK_LIMIT}")
    size = _cum(n, d, b)
    _check_size(size, what)
    if n * size > WORK_LIMIT:
        raise CapacityError(f"{what}: n*N is {n * size}, more than the "
                            f"limit {WORK_LIMIT}")
    return size


def check_index(exponents, n: int, d: int, D: int) -> tuple[int, ...]:
    """Validate an exponent vector against (n, d, D); returns it as a tuple."""
    exps = tuple(exponents)
    if len(exps) != n:
        raise ValueError(f"expected {quote(n)} exponents, got {len(exps)}")
    for i, e in enumerate(exps):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent {i + 1} is not an int: {quote(e)}")
        if not 0 <= e <= d:
            raise ValueError(f"exponent {i + 1} = {quote(e)} outside "
                             f"[0, {quote(d)}] in {quote(exps)}")
    if sum(exps) > D:
        raise ValueError(
            f"exponent sum {quote(sum(exps))} exceeds total degree bound "
            f"{quote(D)} in {quote(exps)}")
    return exps


def _layout_walk(n: int, d: int, b: int, unit: int) -> list[int]:
    """sum_i e_i * unit^(i-1) for each admissible vector e of the checked
    shape (n, d, b), in canonical order; b = -1 gives none.

    The (m, r) layout, budget r, is the concatenation over j <= min(d, r)
    of the (m-1, r-j) layout's walk plus j * unit^(m-1); the j = 0 block
    is the (m-1, r) walk itself. Level m holds the walk of every budget
    that level n reaches, built from level m-1. The shift unit^(m-1), an
    m-byte int at unit 256, is computed only for a block j >= 1, so at
    b = 0 the walk is linear in n.
    """
    walk = {r: [0] for r in range(b + 1)}
    for m in range(1, n + 1):
        below = walk
        walk = {r: list(chain(below[r], *(
            map((j * unit ** (m - 1)).__add__, below[r - j])
            for j in range(1, min(d, r) + 1))))
            for r in range(max(0, b - (n - m) * d), b + 1)}
    return walk.get(b, [])


def layout_codes(n: int, d: int, b: int) -> list[int]:
    """The byte code ``int.from_bytes(bytes(e), "little")`` of each
    admissible vector e of the checked shape (n, d, b), in canonical
    order, which is the numeric order of the codes; b is the clamped
    budget, and b = -1 gives no codes. Not cached: one list of N ints,
    built for one call.
    """
    return _layout_walk(n, d, b, 256)


def layout_vectors(n: int, d: int, b: int, selectors):
    """The exponent vector of each slot of the checked shape (n, d, b)
    that ``selectors`` keeps, in canonical order: the bytes of its layout
    code."""
    return map(int.to_bytes, compress(layout_codes(n, d, b), selectors),
               repeat(n), repeat("little"))


def layout_fill(n: int, d: int, b: int, vectors, values) -> list | None:
    """The inverse of ``layout_vectors`` on the checked shape (n, d, b):
    the dense vector with values[i] at the slot of vectors[i] and 0
    elsewhere, or None if a vector repeats or is not in the layout. Each
    vector holds n ints, and bytes() takes only ints in [0, 256), so equal
    byte codes are equal vectors."""
    table = dict(zip(map(int.from_bytes, map(bytes, vectors),
                         repeat("little")), values))
    if len(table) < len(vectors):
        return None
    dense = list(map(table.pop, layout_codes(n, d, b), repeat(0)))
    return None if table else dense  # a code left: exponent > d or sum > b


def enumerate_trimmed(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    """All admissible exponent vectors for (n, d, D) in canonical order."""
    layout_size(n, d, D)
    if D < 0:
        raise ValueError(f"total degree bound must be >= 0, got {D}")
    return tuple(map(tuple, layout_vectors(n, d, clamp_budget(n, d, D),
                                           repeat(1))))


def _rank(exps, rows, b: int) -> int:
    """The rank of a vector that passed ``check_index``: rows are
    S_{n-1}, ..., S_0 of ``count_rows(n, d, b)``, b the clamped budget."""
    r = 0
    b += 1
    for sums, e in zip(rows, reversed(exps)):
        r += sums[b] - sums[b - e]
        b -= e
    return r


def rank(exponents, n: int, d: int, D: int) -> int:
    """Position of an exponent vector in the canonical order.

    n lookups in the cached ``count_rows`` of (n, d, D).
    """
    _check_params(n, d)
    exps = check_index(exponents, n, d, D)
    b = clamp_budget(n, d, D)
    return _rank(exps, count_rows(n, d, b)[:n][::-1], b)


def unrank(position: int, n: int, d: int, D: int) -> tuple[int, ...]:
    """Inverse of ``rank``: the exponent vector at a canonical position."""
    _check_params(n, d)
    total = ebc_cum(n, D, d)
    if not 0 <= position < total:
        raise ValueError(
            f"position {position} outside [0, {total}) for "
            f"(n={n}, d={d}, D={D})")
    top = clamp_budget(n, d, D)
    r = position
    b = top + 1
    out = []
    for sums in reversed(count_rows(n, d, top)[:n]):
        # sums is strictly increasing; this coordinate's value is b - x
        x = bisect_left(sums, sums[b] - r, 0, b + 1)
        r -= sums[b] - sums[x]
        out.append(b - x)
        b = x
    return tuple(reversed(out))
