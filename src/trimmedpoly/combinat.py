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
``count_rows`` holds ebc_cum(m, k, d) for m <= n and k <= b; the counts,
the rank table and the stage plan of ``algo`` read it. One walk from the
last coordinate to the first, ``_levels``, gives the sums of the vectors
(``degree_sums``, for the plan) and, with the counts, the vectors
themselves (``enumerate_trimmed``).

``rank`` and ``unrank`` read one prefix table per (n, d, D): row m holds
the running sums S_m[k] = sum_{y<k} ebc_cum(m, y, d). Under the
remaining budget b, the vectors that precede value e in coordinate m+1
number sum_{j<e} ebc_cum(m, b-j, d) = S_m[b+1] - S_m[b+1-e], so a rank
is n table differences and an unrank is n bisections.

A shape (n, d, D) needs n >= 0 and d >= 1; ``_check_params`` is the one
place that rule is raised, as ValidationError, for every module of the
package. A public construction checks it once, through ``layout_size``.

Counts are guarded at 2^63: parameter choices whose vector count exceeds
that are not materializable anyway and raise CapacityError. The count
rows stop as soon as one passes the guard, so ``ebc(n, k, d)`` raises
whenever ebc_cum(n, k, d) would, even if the exact count fits. Nor may a
shape cost more than ``SIZE_LIMIT``: its (n+1) * (b+1) count rows, or (in
``layout_size``) its N-entry layout or n * (d+1)^3. The last bounds the
per-variable factors, written in closed form in O(n * (d+1)^2), more
tightly than their size: a square bound would admit d+1 = 1448 at n = 1,
seconds of work for one point. Each is checked before anything is built.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, repeat

COUNT_LIMIT = (1 << 63) - 1
SIZE_LIMIT = 1 << 21


class CapacityError(OverflowError):
    """A count exceeds the 2^63 - 1 guard, or a shape SIZE_LIMIT."""


class ValidationError(ValueError):
    """Malformed domain input (bad exponent, shape mismatch, bad table)."""


def _check_size(size: int, what: str, unit: str = "entries") -> None:
    if size > SIZE_LIMIT:
        raise CapacityError(f"{what} would need {size} {unit}, more than "
                            f"the limit {SIZE_LIMIT}")


def _check_params(n: int, d: int) -> None:
    """The shape rule: n >= 0 variables, individual degree d >= 1."""
    if n < 0:
        raise ValidationError(f"variable count must be >= 0, got {n}")
    if d < 1:
        raise ValidationError(f"individual degree must be >= 1, got {d}")


@lru_cache(maxsize=None)
def count_rows(n: int, d: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Rows m = 0..n of ebc_cum(m, k, d) for k = 0..b.

    Row m follows from row m-1 by the window rule on cumulative counts,
    cum_m[k] = sum_{j<=d} cum_{m-1}[k-j]. A row's entries never exceed its
    last one and rows grow with m, so the build raises CapacityError as
    soon as a last entry passes COUNT_LIMIT. With b = -1, the budget of an
    empty layout, every row is empty.
    """
    _check_size((n + 1) * (b + 1), f"count table of (n={n}, d={d}, D={b})")
    row = (1,) * (b + 1)
    rows = [row]
    for m in range(1, n + 1):
        run = list(accumulate(row, initial=0))
        row = tuple(run[k + 1] - run[max(0, k - d)] for k in range(b + 1))
        if row and row[-1] > COUNT_LIMIT:
            raise CapacityError(
                f"more than 2^63 - 1 vectors for (n={n}, d={d}, D={b})")
        rows.append(row)
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
    row = count_rows(n, d, k)[n]
    return row[k] - (row[k - 1] if k else 0)


def _cum(n: int, d: int, b: int) -> int:
    """ebc_cum(n, b, d) of a checked shape and a clamped budget b."""
    return count_rows(n, d, b)[n][b] if b >= 0 else 0


def ebc_cum(n: int, D: int, d: int) -> int:
    """Number of vectors in {0,...,d}^n with coordinate sum at most D."""
    _check_params(n, d)
    return _cum(n, d, clamp_budget(n, d, D))


def layout_size(n: int, d: int, D: int) -> int:
    """ebc_cum(n, D, d) for a shape about to be built, once the shape
    rule holds and its factors and its layout are known to fit
    SIZE_LIMIT."""
    _check_params(n, d)
    cube = n * (d + 1) ** 3
    if cube > SIZE_LIMIT:
        raise CapacityError(f"factors of (n={n}, d={d}): n*(d+1)^3 is "
                            f"{cube}, more than the limit {SIZE_LIMIT}")
    size = _cum(n, d, clamp_budget(n, d, D))
    _check_size(size, f"layout of (n={n}, d={d}, D={D})")
    return size


_INT = frozenset((int,))


def check_index(exponents, n: int, d: int, D: int) -> tuple[int, ...]:
    """Validate an exponent vector against (n, d, D); returns it as a tuple."""
    exps = tuple(exponents)
    # A few whole-tuple builtin calls accept the common case; anything they
    # do not accept (a bad vector, or an int subclass) gets the full check.
    if (len(exps) == n and _INT.issuperset(map(type, exps))
            and min(exps, default=0) >= 0 and max(exps, default=0) <= d
            and sum(exps) <= D):
        return exps
    if len(exps) != n:
        raise ValueError(f"expected {n} exponents, got {len(exps)}")
    for i, e in enumerate(exps):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent {i + 1} is not an int: {e!r}")
        if not 0 <= e <= d:
            raise ValueError(
                f"exponent {i + 1} = {e} outside [0, {d}] in {exps}")
    if sum(exps) > D:
        raise ValueError(
            f"exponent sum {sum(exps)} exceeds total degree bound {D} "
            f"in {exps}")
    return exps


def _levels(n: int, d: int, b: int) -> list[list[int]]:
    """Levels 0..n of the (n, d, b) layout, b >= 0, from the last
    coordinate, the most significant: level i lists the budget left under
    each admissible suffix (e_{n-i+1}, ..., e_n), in canonical order. So
    level n holds b minus the sum of each admissible vector."""
    # The budgets left after each value 0..min(d, r) of a coordinate.
    left = [range(r, r - min(d, r) - 1, -1) for r in range(b + 1)]
    levels = [[b]]
    for _ in range(n):
        levels.append(list(chain.from_iterable(
            map(left.__getitem__, levels[-1]))))
    return levels


def degree_sums(n: int, d: int, b: int) -> list[int]:
    """Coordinate sum of each admissible vector of (n, d, b), b >= 0, in
    canonical order."""
    return [b - r for r in _levels(n, d, b)[n]]


@lru_cache(maxsize=None)
def _vectors(n: int, d: int, b: int) -> tuple[tuple[int, ...], ...]:
    """The admissible vectors of (n, d, b) in canonical order; b >= 0 is
    the clamped budget.

    Under a suffix with budget r left, coordinate k takes each value
    j <= min(d, r) for a run of ebc_cum(k-1, r-j, d) positions, so column
    k is one such run per entry of level n-k. Every step is linear in its
    output, and the final zip consumes the columns lazily.
    """
    rows = count_rows(n, d, b)
    cols = []
    for k, rems in zip(range(n, 0, -1), _levels(n, d, b)):
        below = rows[k - 1]
        runs = {r: list(chain.from_iterable(
            repeat(j, below[r - j]) for j in range(min(d, r) + 1)))
            for r in set(rems)}
        cols.append(chain.from_iterable(map(runs.__getitem__, rems)))
    return tuple(zip(*reversed(cols))) if n else ((),)


def enumerate_trimmed(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    """All admissible exponent vectors for (n, d, D) in canonical order."""
    layout_size(n, d, D)
    if D < 0:
        raise ValueError(f"total degree bound must be >= 0, got {D}")
    return _vectors(n, d, clamp_budget(n, d, D))


@lru_cache(maxsize=None)
def _prefix_sums(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    """Rows S_0..S_{n-1} of the rank table; D is already within [-1, n*d]."""
    return tuple(tuple(accumulate(row, initial=0))
                 for row in count_rows(n, d, D)[:n])


@lru_cache(maxsize=None)
def ranker(n: int, d: int, D: int):
    """The rank function of (n, d, D) for vectors that already passed
    ``check_index(exps, n, d, D)``; it does not validate them again."""
    _check_params(n, d)
    top = clamp_budget(n, d, D)
    rows = tuple(reversed(_prefix_sums(n, d, top)))

    def rank_of(exps) -> int:
        r = 0
        b = top + 1
        for sums, e in zip(rows, reversed(exps)):
            r += sums[b] - sums[b - e]
            b -= e
        return r

    return rank_of


def rank(exponents, n: int, d: int, D: int) -> int:
    """Position of an exponent vector in the canonical order.

    O(n) lookups in the cached prefix table of (n, d, D).
    """
    exps = check_index(exponents, n, d, D)
    return ranker(n, d, D)(exps)


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
    for sums in reversed(_prefix_sums(n, d, top)):
        # sums is strictly increasing; this coordinate's value is b - x
        x = bisect_left(sums, sums[b] - r, 0, b + 1)
        r -= sums[b] - sums[x]
        out.append(b - x)
        b = x
    return tuple(reversed(out))
