"""Window binomial coefficients and canonical enumeration of bounded
exponent vectors.

``ebc(n, k, d)`` counts vectors in {0,...,d}^n whose coordinates sum to
exactly k; ``ebc_cum(n, D, d)`` counts those summing to at most D. They
obey the (d+1)-window generalization of Pascal's rule,

    ebc(n, k, d) = sum_{j=0}^{d} ebc(n-1, k-j, d),

which is how the tables here are filled.

The canonical order on these vectors is last-coordinate-major: sort by
the last coordinate ascending, then recursively order the remaining
prefix under the reduced sum budget. That is exactly lexicographic order
on the reversed vector, so ``sorted(vectors, key=lambda e: e[::-1])``
lists admissible vectors in canonical order. Every coefficient vector and
evaluation table in this package is addressed by ``rank`` in this order,
so that fixing the last coordinate always selects a contiguous slice.

``rank`` and ``unrank`` read one cached prefix table per (n, d, D): row m
holds the running sums S_m[k] = sum_{y<k} ebc_cum(m, y, d). Under the
remaining budget b, the vectors that precede value e in coordinate m+1
number sum_{j<e} ebc_cum(m, b-j, d) = S_m[b+1] - S_m[b+1-e], so a rank
is n table differences and an unrank is n bisections.

Counts are guarded at 2^63: parameter choices whose vector count exceeds
that are not materializable anyway and raise CapacityError.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate

COUNT_LIMIT = (1 << 63) - 1


class CapacityError(OverflowError):
    """A requested count exceeds the 2^63 - 1 guard."""


def _check_params(n: int, d: int) -> None:
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"individual degree bound must be >= 1, got {d}")


@lru_cache(maxsize=None)
def _rows(n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(exact counts, cumulative counts) for sums k = 0..n*d, unguarded."""
    if n == 0:
        return (1,), (1,)
    prev, _ = _rows(n - 1, d)
    top = n * d
    row = []
    for k in range(top + 1):
        lo = max(0, k - d)
        hi = min(k, (n - 1) * d)
        row.append(sum(prev[lo:hi + 1]))
    cum = []
    running = 0
    for v in row:
        running += v
        cum.append(running)
    return tuple(row), tuple(cum)


def clamp_budget(n: int, d: int, D: int) -> int:
    """The canonical total-degree budget of (n, d, D): -1 for any negative
    D, else min(D, n*d), since no vector in {0,...,d}^n sums above n*d."""
    return -1 if D < 0 else min(D, n * d)


def ebc(n: int, k: int, d: int) -> int:
    """Number of vectors in {0,...,d}^n with coordinate sum exactly k."""
    _check_params(n, d)
    if k < 0 or k > n * d:
        return 0
    value = _rows(n, d)[0][k]
    if value > COUNT_LIMIT:
        raise CapacityError(f"ebc({n}, {k}, {d}) exceeds 2^63 - 1")
    return value


def ebc_cum(n: int, D: int, d: int) -> int:
    """Number of vectors in {0,...,d}^n with coordinate sum at most D."""
    _check_params(n, d)
    if D < 0:
        return 0
    value = _rows(n, d)[1][min(D, n * d)]
    if value > COUNT_LIMIT:
        raise CapacityError(f"ebc_cum({n}, {D}, {d}) exceeds 2^63 - 1")
    return value


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


@lru_cache(maxsize=None)
def _enumerate(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    if D < 0:
        return ()
    if n == 0:
        return ((),)
    out = []
    for j in range(min(d, D) + 1):
        out.extend(prefix + (j,) for prefix in _enumerate(n - 1, d, D - j))
    return tuple(out)


def enumerate_trimmed(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    """All admissible exponent vectors for (n, d, D) in canonical order."""
    _check_params(n, d)
    if D < 0:
        raise ValueError(f"total degree bound must be >= 0, got {D}")
    if ebc_cum(n, D, d) > COUNT_LIMIT:  # raises CapacityError first
        raise CapacityError("enumeration too large")
    return _enumerate(n, d, min(D, n * d))


@lru_cache(maxsize=None)
def _prefix_sums(n: int, d: int, D: int) -> tuple[tuple[int, ...], ...]:
    """Rows S_0..S_{n-1} of the rank table; D is already within [-1, n*d]."""
    ebc_cum(n, D, d)  # capacity guard; bounds every entry difference
    rows = []
    for m in range(n):
        cum = _rows(m, d)[1]
        top = m * d
        rows.append(tuple(accumulate(
            (cum[min(y, top)] for y in range(D + 1)), initial=0)))
    return tuple(rows)


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
    top = min(D, n * d)
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
