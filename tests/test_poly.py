import gc
import itertools
import random
import tracemalloc

import pytest

from trimmedpoly.combinat import (ebc_cum, enumerate_trimmed, layout_size,
                                  rank)
from trimmedpoly.field import PrimeModulus
from trimmedpoly.poly import (
    SparsePoly,
    TrimmedPoly,
    ValidationError,
    from_sparse,
    naive_eval_point,
    random_poly,
    to_sparse,
)

MOD5 = PrimeModulus(5)


def worked_poly():
    """2 + 3*X1 + 4*X2 over F_5 with n=2, d=1, D=1."""
    sparse = SparsePoly(MOD5, 2, 1, 1,
                        [((0, 0), 2), ((1, 0), 3), ((0, 1), 4)])
    return from_sparse(sparse)


def test_from_sparse_worked_example():
    assert worked_poly().coeffs == (2, 3, 4)


def test_from_sparse_empty_and_errors():
    assert from_sparse(SparsePoly(MOD5, 2, 1, 1, [])).coeffs == (0, 0, 0)
    with pytest.raises(ValidationError):
        SparsePoly(MOD5, 2, 1, 1, [((1, 1), 2)])  # sum above D
    with pytest.raises(ValidationError):
        SparsePoly(MOD5, 2, 1, 1, [((2, 0), 1)])  # exponent above d
    with pytest.raises(ValidationError):
        SparsePoly(MOD5, 2, 1, 1, [((0, 1), 1), ((0, 1), 2)])  # duplicate


def test_sparse_drops_zero_terms():
    sparse = SparsePoly(MOD5, 2, 1, 1, [((0, 0), 5), ((1, 0), 3)])
    assert sparse.terms == (((1, 0), 3),)


def test_to_sparse_round_trip():
    poly = worked_poly()
    assert from_sparse(to_sparse(poly)) == poly
    assert sorted(to_sparse(poly).terms) == [((0, 0), 2), ((0, 1), 4),
                                             ((1, 0), 3)]
    zero = TrimmedPoly(MOD5, 3, 2, 4, [0] * ebc_cum(3, 4, 2))
    assert to_sparse(zero).terms == ()
    rng = random.Random(3)
    for _ in range(20):
        n, d = rng.randint(0, 4), rng.randint(1, 3)
        D = rng.randint(0, n * d)
        poly = random_poly(n, d, D, MOD5, rng.randrange(1000))
        assert from_sparse(to_sparse(poly)) == poly


def test_from_sparse_puts_each_term_at_its_rank():
    rng = random.Random(27)
    for n in range(0, 6):
        for d in range(1, 5):
            for D in range(-1, n * d + 1):
                terms = [(e, rng.randrange(1, 5))
                         for e in enumerate_trimmed(n, d, max(D, 0))
                         if D >= 0 and rng.random() < 0.5]
                rng.shuffle(terms)
                expected = [0] * ebc_cum(n, D, d)
                for e, c in terms:
                    expected[rank(e, n, d, D)] = c
                poly = from_sparse(SparsePoly(MOD5, n, d, D, terms))
                assert list(poly.coeffs) == expected, (n, d, D)


def _traced(call):
    """The traced peak of call(), and what stays allocated once its
    result is dropped, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return peak, kept


def test_wide_shapes_keep_no_enumeration():
    # At (1999, 1, 1) the N = 2000 exponent tuples take 32 MB, and no
    # other test enumerates this shape, so nothing is cached before.
    # Converting or evaluating the zero polynomial walks the layout codes,
    # about 2 MB, and keeps none of it; an enumeration is dropped with
    # its result. A short term list is ranked term by term, so densifying
    # it builds its N zeros, 16 KB here, and no codes.
    n = 1999
    poly = TrimmedPoly(MOD5, n, 1, 1, [0] * layout_size(n, 1, 1))
    peak, kept = _traced(lambda: to_sparse(poly))
    assert peak < 4 << 20 and kept < 1 << 16
    for terms in [], [((0,) * (n - 1) + (1,), 2)]:
        short = SparsePoly(MOD5, n, 1, 1, terms)
        peak, kept = _traced(lambda: from_sparse(short))
        assert peak < 1 << 17 and kept < 1 << 16
    peak, kept = _traced(lambda: naive_eval_point(poly, (1,) * n))
    assert peak < 4 << 20 and kept < 1 << 16
    peak, kept = _traced(lambda: enumerate_trimmed(n, 1, 1))
    assert kept < 1 << 16


def test_degree_normalization():
    poly = TrimmedPoly(MOD5, 2, 1, 9, [1, 2, 3, 4])  # D clamps to nd = 2
    assert poly.D == 2
    empty = TrimmedPoly(MOD5, 2, 1, -3, [])
    assert empty.D == -1 and empty.coeffs == ()
    with pytest.raises(ValidationError):
        TrimmedPoly(MOD5, 2, 1, 1, [1, 2])  # wrong length


def test_naive_eval_point_examples():
    poly = worked_poly()
    assert naive_eval_point(poly, (1, 0)) == 0  # 2 + 3 = 5
    assert naive_eval_point(poly, (0, 0)) == 2
    assert naive_eval_point(poly, (0, 1)) == 1  # 2 + 4 = 6
    const = TrimmedPoly(MOD5, 3, 2, 0, [4])
    assert naive_eval_point(const, (3, 1, 2)) == 4
    x1 = from_sparse(SparsePoly(MOD5, 2, 1, 1, [((1, 0), 1)]))
    assert naive_eval_point(x1, (3, 2)) == 3
    with pytest.raises(ValidationError):
        naive_eval_point(poly, (1,))


def test_naive_eval_matches_direct_expansion():
    # tiny instances, fully expanded by hand arithmetic
    mod = PrimeModulus(7)
    for n in (1, 2):
        for d in (1, 2):
            D = n * d
            rng = random.Random(n * 10 + d)
            coeffs = [rng.randrange(7) for _ in range(ebc_cum(n, D, d))]
            poly = TrimmedPoly(mod, n, d, D, coeffs)
            idxs = enumerate_trimmed(n, d, D)
            for point in itertools.product(range(7), repeat=n):
                direct = 0
                for exps, c in zip(idxs, coeffs):
                    term = c
                    for x, e in zip(point, exps):
                        for _ in range(e):
                            term = term * x % 7
                    direct = (direct + term) % 7
                assert naive_eval_point(poly, point) == direct


def test_random_poly_deterministic():
    a = random_poly(3, 2, 4, MOD5, seed=42)
    b = random_poly(3, 2, 4, MOD5, seed=42)
    assert a == b
    c = random_poly(3, 2, 4, MOD5, seed=43)
    assert a != c
    const = random_poly(0, 2, 0, MOD5, seed=1)
    assert len(const.coeffs) == 1
