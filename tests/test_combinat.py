import itertools
import tracemalloc

import pytest

from trimmedpoly.combinat import (
    SIZE_LIMIT,
    CapacityError,
    count_rows,
    ebc,
    ebc_cum,
    enumerate_trimmed,
    layout_size,
    rank,
    unrank,
)


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
    # the largest shapes the tests transform stay within it
    assert layout_size(10, 3, 30) == 4 ** 10
    assert layout_size(2000, 1, 1) == 2001
    assert ebc_cum(20, 20, 3) > SIZE_LIMIT  # counting alone is not capped


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
