import itertools
import time
import tracemalloc

import pytest

from trimmedpoly.checks import extended_pascal
from trimmedpoly.combinat import (
    SIZE_LIMIT,
    WORK_LIMIT,
    CapacityError,
    ValidationError,
    _layout_walk,
    count_rows,
    ebc,
    ebc_cum,
    clamp_budget,
    enumerate_trimmed,
    layout_codes,
    layout_fill,
    layout_size,
    layout_vectors,
    quote,
    rank,
    unrank,
)
from trimmedpoly.field import PrimeModulus
from trimmedpoly.poly import TrimmedPoly


def brute_count(n, k, d):
    """Independent oracle: enumerate {0..d}^n and count sum == k."""
    return sum(1 for v in itertools.product(range(d + 1), repeat=n)
               if sum(v) == k)


def test_ebc_examples():
    assert ebc(3, 2, 1) == 3  # reduces to C(3, 2)
    assert ebc(2, 2, 2) == 3  # {(0,2),(1,1),(2,0)}
    assert ebc(0, 0, 3) == 1
    assert ebc(4, 4 * 2 + 1, 2) == 0
    assert ebc(2, -1, 2) == 0


def test_ebc_against_brute_force():
    for n in range(0, 5):
        for d in range(1, 4):
            for k in range(-1, n * d + 2):
                assert ebc(n, k, d) == brute_count(n, k, d), (n, k, d)


def test_ebc_cum_examples():
    assert ebc_cum(2, 1, 1) == 3
    for n in range(1, 6):
        for d in range(1, 4):
            assert ebc_cum(n, n * d, d) == (d + 1) ** n
            assert ebc_cum(n, n * d + 9, d) == (d + 1) ** n
    assert ebc_cum(3, -1, 2) == 0


def test_extended_pascal_identity():
    for n in range(1, 9):
        for d in range(1, 6):
            for k in range(0, n * d + 1):
                window = sum(ebc(n - 1, k - j, d) for j in range(d + 1))
                assert ebc(n, k, d) == window, (n, k, d)


def test_recursion_size_identity():
    for n in range(1, 9):
        for d in range(1, 6):
            for D in range(0, n * d + 1):
                split = sum(ebc_cum(n - 1, D - i, d) for i in range(d + 1))
                assert ebc_cum(n, D, d) == split, (n, D, d)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ebc(-1, 0, 2)
    with pytest.raises(ValueError):
        ebc(3, 1, 0)
    with pytest.raises(ValueError):
        enumerate_trimmed(2, 1, -1)
    # rank raises the shape rule before it reads the exponents
    with pytest.raises(ValidationError, match="variable count must be >= 0"):
        rank((0,), -1, 1, 1)
    with pytest.raises(ValidationError, match="individual degree must be >= 1"):
        rank((0,), 1, 0, 1)


def test_ebc_keeps_no_table_per_k():
    # ebc(n, k, d) builds the count rows of budget k uncached: a cached
    # table per distinct k left 585 tables after extended_pascal
    entries = count_rows.cache_info().currsize
    assert extended_pascal() > 0
    assert count_rows.cache_info().currsize == entries
    assert ebc(200, 5, 1) == 2535650040


def test_capacity_guard():
    with pytest.raises(CapacityError):
        ebc_cum(80, 80, 3)
    # just under the guard is fine
    assert ebc_cum(20, 20, 3) > 0


def test_count_rows_stop_at_budget_and_guard():
    # Counts are built only up to the clamped budget, and the build stops
    # at the first row whose count passes the guard: each peak < 10 MB.
    count_rows.cache_clear()
    tracemalloc.start()
    try:
        assert ebc_cum(400, 0, 20) == 1
        budget_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapacityError):
            ebc_cum(2000, 1000, 1)
        guard_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budget_peak < 10 << 20 and guard_peak < 10 << 20


def test_size_limit_bounds_every_table():
    # One limit on the count table, (n+1)*(b+1) entries, on the factors,
    # n*(d+1)^3, and on the layout, N; each check runs before its table is
    # built.
    assert SIZE_LIMIT == 1 << 21
    with pytest.raises(CapacityError, match="count table"):
        ebc_cum(1500, 1500, 1)  # 1501 * 1501 entries; the guard is later
    with pytest.raises(CapacityError, match="factors"):
        layout_size(10**6, 1, 0)  # N = 1
    # the factors' bound n*(d+1)^3 is exactly 2^21 at d = 127
    assert layout_size(1, 127, 0) == 1
    with pytest.raises(CapacityError, match="factors"):
        layout_size(1, 128, 0)
    with pytest.raises(CapacityError, match="layout"):
        layout_size(30, 1, 30)  # N = 2^30
    with pytest.raises(CapacityError, match="layout"):
        enumerate_trimmed(30, 1, 30)
    # n*N, the stages' entry visits per direction and the layout codes'
    # bytes, is capped at WORK_LIMIT = 2^26; a budget b >= 1 gives
    # N >= n + 1, which is checked first
    assert WORK_LIMIT == 1 << 26
    assert layout_size(8191, 1, 1) == 8192  # n*N = 2^26 - 1
    with pytest.raises(CapacityError, match=r"n\*N is at least 67117056, "
                       r"more than the limit 67108864"):
        layout_size(8192, 1, 1)
    with pytest.raises(CapacityError, match=r"n\*N"):
        layout_size(200, 1, 3)  # N = 1,333,501, within SIZE_LIMIT
    with pytest.raises(CapacityError, match=r"n\*N"):
        TrimmedPoly(PrimeModulus(5), 20000, 1, 1, [0] * 20001)
    # the largest shapes the tests transform stay within it
    assert layout_size(10, 3, 30) == 4 ** 10
    assert layout_size(2000, 1, 1) == 2001
    assert ebc_cum(20, 20, 3) > SIZE_LIMIT  # counting alone is not capped


@pytest.mark.parametrize("n, d, D", [(262144, 1, 1), (100000, 1, 2),
                                     (100000, 1, 20), (8192, 2, 5)])
def test_wide_shapes_are_refused_before_their_count_rows(n, d, D):
    # At b >= 1, N >= n + 1, so n*(n+1) over WORK_LIMIT refuses the shape
    # before count_rows builds, and caches, its rows.
    entries = count_rows.cache_info().currsize
    with pytest.raises(CapacityError) as excinfo:
        layout_size(n, d, D)
    assert count_rows.cache_info().currsize == entries
    assert str(excinfo.value) == (
        f"layout of (n={n}, d={d}, D={D}): n*N is at least {n * (n + 1)}, "
        f"more than the limit {WORK_LIMIT}")


def test_enumerate_examples():
    assert enumerate_trimmed(2, 1, 1) == ((0, 0), (1, 0), (0, 1))
    assert enumerate_trimmed(1, 2, 2) == ((0,), (1,), (2,))
    assert enumerate_trimmed(0, 3, 5) == ((),)


def test_enumerate_properties():
    for n in range(0, 5):
        for d in range(1, 4):
            for D in range(0, n * d + 1):
                idxs = enumerate_trimmed(n, d, D)
                assert len(idxs) == ebc_cum(n, D, d)
                assert len(set(idxs)) == len(idxs)
                # canonical order is lexicographic on the reversed vector
                assert sorted(idxs, key=lambda e: e[::-1]) == list(idxs)
                for exps in idxs:
                    assert all(0 <= e <= d for e in exps)
                    assert sum(exps) <= D


def test_layout_codes_are_the_byte_codes_in_order():
    for n in range(0, 6):
        for d in range(1, 5):
            for D in range(-1, n * d + 2):
                b = clamp_budget(n, d, D)
                codes = layout_codes(n, d, b)
                # canonical order: lexicographic on the reversed vector
                vectors = sorted((e for e in itertools.product(
                    range(d + 1), repeat=n) if sum(e) <= b),
                    key=lambda e: e[::-1])
                assert codes == [int.from_bytes(bytes(e), "little")
                                 for e in vectors], (n, d, D)
                # numeric order of the codes is the canonical order
                assert codes == sorted(set(codes))
                # with unit 1 the same walk gives the coordinate sums
                assert _layout_walk(n, d, b, 1) == [sum(e) for e in vectors]
    # at the cube cap, n * (d+1)^3 = 2^21, the top byte is d = 127
    assert layout_codes(1, 127, 127) == list(range(128))
    assert layout_codes(3, 2, 0) == [0]
    assert layout_codes(3, 2, 1) == [0, 1, 256, 65536]


def test_layout_fill_inverts_layout_vectors():
    for n, d, b in [(0, 1, 0), (2, 1, 1), (3, 2, 4), (4, 3, 12)]:
        size = layout_size(n, d, b)
        vectors = [list(e) for e in layout_vectors(n, d, b, [1] * size)]
        assert layout_fill(n, d, b, vectors, range(1, size + 1)) == \
            list(range(1, size + 1))
        assert layout_fill(n, d, b, vectors[::-1], range(size, 0, -1)) == \
            list(range(1, size + 1))
    dense = layout_fill(3, 2, 4, [(0, 1, 2)], [7])
    assert dense[rank((0, 1, 2), 3, 2, 4)] == 7 and sum(dense) == 7
    assert layout_fill(2, 1, -1, [], []) == []


@pytest.mark.parametrize("vectors", [
    [(0, 1), (1, 0), (0, 1)],  # a repeated vector
    [(0, 2)],  # an exponent above d
    [(2, 0), (0, 0)],  # an exponent above d, in the first byte
    [(1, 1)],  # a sum above b
], ids=["repeat", "above-d", "above-d-first", "above-b"])
def test_layout_fill_refuses_vectors_outside_the_layout(vectors):
    assert layout_fill(2, 1, 1, vectors, range(1, len(vectors) + 1)) is None


def test_quote_keeps_short_values_whole():
    # a str is measured as its text, anything else as its repr
    edge = (12,) + (1,) * 12
    for value in ["", "x" * 40, edge, -10**38, "'" * 40, [0] * 13]:
        assert quote(value) == repr(value)
    assert len(repr(edge)) == 40 and len(str(-10**38)) == 40
    assert quote("x" * 41) == "'xxxxxxxxxxxxxxxxxxxx'... (41 characters)"
    assert quote((1,) * 14) == "(1, 1, 1, 1, 1, 1, 1... (42 characters)"
    assert quote(10**40) == "10000000000000000000... (41 characters)"


def test_layout_size_quotes_a_long_budget():
    # The library takes D unclamped, so the message must not show it whole
    with pytest.raises(CapacityError) as err:
        layout_size(9000, 1, 10**4000)
    assert str(err.value) == (
        "layout of (n=9000, d=1, D=10000000000000000000... (4001 "
        "characters)): n*N is at least 81009000, more than the limit 67108864")


def test_one_point_layouts_walk_in_linear_time():
    # At D = 0 no block j >= 1 exists, so the walk computes no shift
    # unit^(m-1): an m-byte int per level would make 50,000 levels take
    # tens of seconds
    start = time.perf_counter()
    assert layout_codes(50000, 1, 0) == [0]
    assert time.perf_counter() - start < 3


def test_block_contiguity():
    # indices with last coordinate j occupy one contiguous range per j
    for n in range(1, 5):
        for d in range(1, 4):
            for D in range(0, n * d + 1):
                idxs = enumerate_trimmed(n, d, D)
                offset = 0
                for j in range(min(d, D) + 1):
                    size = ebc_cum(n - 1, min(D - j, (n - 1) * d), d)
                    block = idxs[offset:offset + size]
                    assert all(exps[-1] == j for exps in block), (n, d, D, j)
                    offset += size
                assert offset == len(idxs)


def test_rank_examples():
    assert rank((0, 1), 2, 1, 1) == 2
    assert rank((0, 0, 0), 3, 2, 4) == 0
    assert unrank(2, 2, 1, 1) == (0, 1)
    assert unrank(0, 3, 2, 4) == (0, 0, 0)
    assert unrank(ebc_cum(1, 3, 3) - 1, 1, 3, 3) == (3,)


def test_rank_unrank_exhaustive_bijection():
    for n in range(0, 6):
        for d in range(1, 4):
            for D in range(0, n * d + 2):  # D above n*d clamps
                idxs = enumerate_trimmed(n, d, D)
                for position, exps in enumerate(idxs):
                    assert rank(exps, n, d, D) == position, (n, d, D, exps)
                    assert unrank(position, n, d, D) == exps


def test_rank_and_unrank_keep_no_table_of_their_own():
    # count_rows is the one per-shape table: rank and unrank read the
    # running sums that ebc_cum built, keyed on the clamped budget.
    # No other test uses (30000, 1, 1), whose table is about 2.6 MB.
    n = 30000
    last = (0,) * (n - 1) + (1,)
    count_rows.cache_clear()
    tracemalloc.start()
    try:
        ebc_cum(n, 1, 1)
        table = tracemalloc.get_traced_memory()[0]
        assert rank(last, n, 1, 1) == n
        assert unrank(n, n, 1, 1) == last
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1.1 * table
    entries = count_rows.cache_info().currsize
    assert rank((0, 1), 2, 1, 9) == rank((0, 1), 2, 1, 2) == 2
    assert unrank(2, 2, 1, 9) == (0, 1)
    assert count_rows.cache_info().currsize == entries + 1


def test_rank_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        rank((0, 2), 2, 1, 2)  # exponent above d
    with pytest.raises(ValueError):
        rank((1, 1), 2, 1, 1)  # sum above D
    with pytest.raises(ValueError):
        rank((1,), 2, 1, 1)  # wrong length
    with pytest.raises(ValueError):
        unrank(3, 2, 1, 1)
    with pytest.raises(ValueError):
        unrank(-1, 2, 1, 1)
