import hashlib
import itertools
import pickle
import random
import sys
from collections import Counter

import pytest

from trimmedpoly.algo import (
    EvalTable,
    Grid,
    _kernel,
    _level_plan,
    _transform,
    naive_trimmed_eval,
    trimmed_eval,
    trimmed_interp,
    yates_eval,
)
from trimmedpoly.checks import product
from trimmedpoly.combinat import ebc_cum, enumerate_trimmed, rank, unrank
from trimmedpoly.field import PrimeModulus, active_counter, run_counted, tally
from trimmedpoly.linalg import (
    SquareMatrix,
    ZeroPivotError,
    build_vandermonde,
    invert,
    lu_decompose,
    vandermonde_factors,
)
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


def worked_instance():
    poly = from_sparse(SparsePoly(MOD5, 2, 1, 1,
                                  [((0, 0), 2), ((1, 0), 3), ((0, 1), 4)]))
    grid = Grid(MOD5, [[0, 1], [0, 1]])
    return poly, grid


# Grid / EvalTable containers

def test_grid_validation():
    with pytest.raises(ValidationError) as err:
        Grid(MOD5, [[0, 1], [2, 2]])
    assert "variable 2" in str(err.value)
    with pytest.raises(ValidationError):
        Grid(PrimeModulus(3), [[0, 1, 2, 0]])  # p < d + 1
    with pytest.raises(ValidationError):
        Grid(MOD5, [])  # needs explicit d when empty
    empty = Grid(MOD5, [], d=2)
    assert empty.n == 0 and empty.d == 2
    with pytest.raises(ValidationError):
        Grid(MOD5, [[0, 1], [0, 1, 2]])


def test_grid_generators():
    seq = Grid.sequential(MOD5, 3, 2)
    assert seq.rows == ((0, 1, 2),) * 3
    rnd = Grid.random(MOD5, 3, 2, seed=1)
    assert rnd == Grid.random(MOD5, 3, 2, seed=1)
    assert all(len(set(row)) == 3 for row in rnd.rows)
    assert seq.point((1, 0, 2)) == (1, 0, 2)
    # a negative count is refused, not read as an empty grid
    for make in (lambda: Grid.sequential(MOD5, -2, 2),
                 lambda: Grid.random(MOD5, -5, 2, 0)):
        with pytest.raises(ValidationError,
                           match="^variable count must be >= 0, got -"):
            make()


def test_sequential_grid_without_variables_lists_no_node():
    # n = 0 builds no row, whatever d is: no list of d + 1 nodes
    grid = Grid.sequential(PrimeModulus(2**61 - 1), 0, 2**60)
    assert grid.rows == () and grid.n == 0 and grid.d == 2**60


def test_value_objects_repr_hash_and_foreign_equality():
    # Each pins its text; equal objects hash equal; a foreign type gives
    # NotImplemented, so == falls back to identity and is False.
    grid = Grid.sequential(MOD5, 2, 1)
    assert repr(grid) == "Grid(n=2, d=1, p=5)"
    assert grid.__eq__(object()) is NotImplemented and grid != 5
    _, counter = run_counted(tally, mul=3, add=2, inv=1)
    assert repr(counter) == "OpCounter(mul=3, add=2, inv=1)"
    assert repr(MOD5) == "PrimeModulus(5)"
    assert hash(PrimeModulus(5)) == hash(MOD5)
    assert MOD5.__eq__(5) is NotImplemented and MOD5 != 5
    for cls in (TrimmedPoly, EvalTable):
        one, two = cls(MOD5, 1, 1, 1, [1, 2]), cls(MOD5, 1, 1, 1, [6, -3])
        assert one == two and hash(one) == hash(two)
        assert one.__eq__((1, 2)) is NotImplemented
    sparse = SparsePoly(MOD5, 2, 1, 1, [((0, 0), 2), ((1, 0), 5),
                                        ((0, 1), 4)])
    assert repr(sparse) == "SparsePoly(n=2, d=1, D=1, p=5, 2 terms)"
    assert sparse.__eq__(sparse.terms) is NotImplemented
    assert sparse != sparse.terms


def test_eval_table_validation():
    with pytest.raises(ValidationError):
        EvalTable(MOD5, 2, 1, 1, [1, 2])  # wrong length
    table = EvalTable(MOD5, 2, 1, 9, [1, 2, 3, 4])  # D clamps to 2
    assert table.D == 2


@pytest.mark.parametrize("cls", [TrimmedPoly, EvalTable])
def test_dense_tables_canonicalise_entries(cls):
    # the bulk check keeps ints in [0, p) as they are; p itself, negatives
    # and ints above p are reduced, and a non-int raises
    assert cls(MOD5, 2, 1, 1, (0, 4, 3))._entries == (0, 4, 3)
    assert cls(MOD5, 2, 1, 1, [0, 4, 5])._entries == (0, 4, 0)
    assert cls(MOD5, 2, 1, 1, iter([-1, 3, 0]))._entries == (4, 3, 0)
    assert cls(MOD5, 2, 1, 1, [12, 0, 1])._entries == (2, 0, 1)
    for bad in ([0, True, 1], [0, 1.0, 1], [0, "1", 1]):
        with pytest.raises(TypeError):
            cls(MOD5, 2, 1, 1, bad)


def test_shape_mismatch_rejected():
    poly, _ = worked_instance()
    with pytest.raises(ValidationError):
        trimmed_eval(poly, Grid(MOD5, [[0, 1]]))  # n mismatch
    with pytest.raises(ValidationError):
        trimmed_eval(poly, Grid(PrimeModulus(7), [[0, 1], [0, 1]]))
    with pytest.raises(ValidationError):
        trimmed_interp(EvalTable(MOD5, 2, 1, 1, [1, 2, 3]),
                       Grid(MOD5, [[0, 1, 2], [0, 1, 2]]))  # d mismatch


# trimmed_eval

def test_eval_worked_example():
    poly, grid = worked_instance()
    assert trimmed_eval(poly, grid).values == (2, 0, 1)


def test_eval_constant():
    mod = PrimeModulus(17)
    poly = TrimmedPoly(mod, 3, 2, 0, [9])
    grid = Grid.random(mod, 3, 2, seed=4)
    assert trimmed_eval(poly, grid).values == (9,)
    full = TrimmedPoly(mod, 2, 2, 4, [9] + [0] * (ebc_cum(2, 4, 2) - 1))
    assert set(trimmed_eval(full, Grid.random(mod, 2, 2, 0)).values) == {9}


def test_eval_zero_variables():
    poly = TrimmedPoly(MOD5, 0, 1, 0, [3])
    grid = Grid(MOD5, [], d=1)
    assert trimmed_eval(poly, grid).values == (3,)


def test_eval_agrees_with_oracle_sweep():
    rng = random.Random(100)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 6)
        d = rng.randint(1, 4)
        D = rng.choice([0, -(-n * d // 2), n * d])
        p = rng.choice([5, 65537])
        if p < d + 1 or ebc_cum(n, D, d) > 300:
            continue
        mod = PrimeModulus(p)
        poly = random_poly(n, d, D, mod, seed=trial)
        grid = Grid.random(mod, n, d, seed=trial + 1)
        assert trimmed_eval(poly, grid) == naive_trimmed_eval(poly, grid), \
            (n, d, D, p, trial)
        checked += 1
    assert checked >= 100


# trimmed_interp

def test_interp_worked_example():
    poly, grid = worked_instance()
    table = EvalTable(MOD5, 2, 1, 1, [2, 0, 1])
    assert trimmed_interp(table, grid) == poly


def test_interp_constant_table():
    mod = PrimeModulus(13)
    grid = Grid.random(mod, 3, 2, seed=8)
    size = ebc_cum(3, 4, 2)
    table = EvalTable(mod, 3, 2, 4, [7] * size)
    poly = trimmed_interp(table, grid)
    assert poly.coeffs[0] == 7
    assert all(c == 0 for c in poly.coeffs[1:])


def test_round_trips_random():
    rng = random.Random(200)
    for trial in range(120):
        n = rng.randint(0, 5)
        d = rng.randint(1, 4)
        D = rng.randint(0, n * d)
        p = rng.choice([5, 7, 65537])
        if p < d + 1:
            continue
        mod = PrimeModulus(p)
        grid = Grid.random(mod, n, d, seed=trial)
        poly = random_poly(n, d, D, mod, seed=trial + 1)
        assert trimmed_interp(trimmed_eval(poly, grid), grid) == poly
        size = ebc_cum(n, D, d)
        sub = random.Random(trial + 2)
        table = EvalTable(mod, n, d, D, [sub.randrange(p)
                                         for _ in range(size)])
        assert trimmed_eval(trimmed_interp(table, grid), grid) == table


def test_interp_handles_any_node_order():
    # rows with the zero node in the middle; see the literal-algorithm
    # regression tests below for why this is worth pinning
    grid = Grid(MOD5, [[1, 0, 2]] * 3)
    poly = random_poly(3, 2, 4, MOD5, seed=7)
    assert trimmed_interp(trimmed_eval(poly, grid), grid) == poly


def test_univariate_degenerate_budget():
    # single point, constant recovery, arbitrary nodes
    mod = PrimeModulus(11)
    grid = Grid(mod, [[4, 7]])
    table = EvalTable(mod, 1, 1, 0, [3])
    poly = trimmed_interp(table, grid)
    assert poly.coeffs == (3,)


def _edge_rows(p: int, n: int, d: int, seed: int) -> list[list[int]]:
    """n rows of d+1 distinct nodes, every one holding 0 and p - 1, in
    shuffled order, so the zero node is not always first."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = [0, p - 1] + rng.sample(range(1, p - 1), d - 1)
        rng.shuffle(row)
        rows.append(row)
    return rows


def test_transform_edge_shapes():
    # Shapes the benchmark never reaches: d = 5..7, N = 1 layouts (D = 0,
    # where the relabelling has one index), budgets below d, the primes 2,
    # 3 and 2^62 - 57, and grids holding the nodes 0 and p - 1. Each case
    # equals the oracle and round-trips both ways.
    cases = set()
    for p, ds in ((2, (1,)), (3, (1, 2)), (2**62 - 57, (1, 2, 5, 6, 7))):
        mod = PrimeModulus(p)
        for d in ds:
            for n in range(1, 5):
                for D in sorted({0, 1, d - 1, d, n * d - 1, n * d}):
                    if D < 0 or D > n * d or ebc_cum(n, D, d) > 400:
                        continue
                    seed = p % 1000 + 10 * d + 100 * n + D
                    grid = Grid(mod, _edge_rows(p, n, d, seed), d=d)
                    poly = random_poly(n, d, D, mod, seed=seed)
                    table = trimmed_eval(poly, grid)
                    assert table == naive_trimmed_eval(poly, grid), \
                        (p, n, d, D)
                    assert trimmed_interp(table, grid) == poly, (p, n, d, D)
                    values = random.Random(seed).choices(range(p),
                                                         k=len(table.values))
                    other = EvalTable(mod, n, d, D, values)
                    assert trimmed_eval(trimmed_interp(other, grid),
                                        grid) == other, (p, n, d, D)
                    cases.add((p, d, D))
    assert {p for p, _, D in cases if D == 0} == {2, 3, 2**62 - 57}
    assert {5, 6, 7} <= {d for _, d, _ in cases}
    assert any(0 < D < d for _, d, D in cases)


@pytest.mark.parametrize("n, d, D, p", [
    (2, 100, 150, 2**62 - 57),
    (1, 127, 127, 2**61 - 1),
    (3, 30, 45, 2**31 - 1),
])
def test_high_degree_shapes_match_the_oracle_on_sampled_slots(n, d, D, p):
    # jmax = min(d, D) >= 8, past the oracle sweeps: with n >= 2 an upper
    # row splits into up to jmax - j + 1 segments. The first and last slots
    # and five seeded ones equal the oracle, on grids holding 0 and p - 1,
    # and the table round-trips.
    mod = PrimeModulus(p)
    grid = Grid(mod, _edge_rows(p, n, d, seed=d + D))
    poly = random_poly(n, d, D, mod, seed=n + d)
    table = trimmed_eval(poly, grid)
    size = len(table.values)
    rng = random.Random(size)
    for slot in {0, size - 1, *rng.sample(range(size), 5)}:
        point = grid.point(unrank(slot, n, d, D))
        assert table.values[slot] == naive_eval_point(poly, point), slot
    assert trimmed_interp(table, grid) == poly


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_transforms_stack_depth_does_not_grow_with_n():
    # 2000 variables at (d, D) = (1, 1), N = 2001. Counts, enumeration,
    # rank, unrank and both transforms must run in a stack of fixed depth.
    mod = PrimeModulus(65537)
    n = 2000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        assert ebc_cum(n, 1, 1) == n + 1
        exps = enumerate_trimmed(n, 1, 1)
        for r in (0, 1, n // 2, n):
            assert rank(exps[r], n, 1, 1) == r
            assert unrank(r, n, 1, 1) == exps[r]
        poly = random_poly(n, 1, 1, mod, seed=3)
        grid = Grid.sequential(mod, n, 1)
        assert trimmed_interp(trimmed_eval(poly, grid), grid) == poly
    finally:
        sys.setrecursionlimit(limit)


def test_level_plan_blocks_are_degree_ordered():
    # Every shape with 1 <= n <= 5, d <= 4 and 0 <= b <= nd, and two wide
    # shapes whose budgets lie far below nd. The stages combine blocks as
    # prefixes of one another, which is right only if each top-variable
    # block is in degree order.
    shapes = [(n, d, b) for n in range(1, 6) for d in range(1, 5)
              for b in range(n * d + 1)]
    for n, d, b in shapes + [(60, 1, 2), (25, 2, 3)]:
        jmax, offs, enter, leave, relabel, fits = _level_plan(n, b, d)
        N = ebc_cum(n, b, d)
        ident = list(range(N))
        # the relabelling is a gather: on the identity it gives its
        # index table, as a sequence also at N = 1
        up = list(relabel(ident))
        assert sorted(enter) == ident == sorted(up), (n, d, b)
        exps = enumerate_trimmed(n, d, b)
        for j in range(jmax + 1):
            block = enter[offs[j]:offs[j + 1]]
            assert sorted(block) == ident[offs[j]:offs[j + 1]]
            sums = [sum(exps[c]) for c in block]
            assert sums == sorted(sums), (n, d, b, j)
        # up brings e_1 to the top: the entry it moves to
        # (e_2, ..., e_n, e_1) comes from (e_1, ..., e_n)
        inner = [exps[c] for c in enter]
        assert all(f == inner[i][1:] + inner[i][:1]
                   for i, f in zip(up, inner)), (n, d, b)
        perm = ident
        for _ in range(n):
            perm = relabel(perm)
        assert list(perm) == ident, (n, d, b)
        # the stages' path: enter, 2n - 1 relabellings, leave
        perm = list(enter)
        for _ in range(2 * n - 1):
            perm = relabel(perm)
        assert [perm[i] for i in leave] == ident, (n, d, b)


# sha256 of the plans below, computed when this test was added
PLAN_DIGEST = \
    "eee60cf4c60cc1f4ad7a454e0ffce65eb6a5155c2b168d9311433a8e3c7cf524"


def test_level_tables_equal_the_pinned_plans():
    # 238 plans: every shape with 1 <= n <= 6, d <= 4 and 0 <= b <= nd,
    # and the benchmark's shapes. A rewrite of the planner must give the
    # same tables, entry for entry, not only tables that pass the checks
    # above.
    shapes = [(n, d, b) for n in range(1, 7) for d in range(1, 5)
              for b in range(n * d + 1)]
    digest = hashlib.sha256()
    for n, d, b in shapes + [(12, 2, 6), (12, 2, 12), (8, 3, 12),
                             (2000, 1, 1)]:
        # uncached, so the wide plans do not stay for the session
        _, offs, enter, leave, up, fits = _level_plan.__wrapped__(n, b, d)
        digest.update(repr((n, d, b, offs, enter.tolist(), leave.tolist(),
                            list(up(range(offs[-1]))), fits)).encode())
    assert digest.hexdigest() == PLAN_DIGEST


# Why interpolation does not factor V^-1: a lower*upper factorization of
# the inverse Vandermonde matrix can fail to exist, and where it exists its
# factors do not undo the truncated stages. Interpolation substitutes with
# the factors of V instead; see the module docstring of trimmedpoly.algo.

def test_inverse_vandermonde_lu_can_fail():
    # lower*upper factorization of V^-1 does not exist when a node other
    # than the first is zero
    van = build_vandermonde([1, 0, 2], MOD5)
    assert invert(van).rows[0][0] == 0
    with pytest.raises(ZeroPivotError):
        lu_decompose(invert(van))
    # with the zero node first it happens to exist
    lu_decompose(invert(build_vandermonde([0, 1, 2], MOD5)))


def test_literal_lu_of_inverse_interpolates_wrong():
    # nodes (1,2), d=1, D=0: the unique bounded interpolant of table (a)
    # is the constant a, but the L*U factors of V^-1 reproduce 2*a
    mod = MOD5
    van = build_vandermonde([1, 2], mod)
    fac = lu_decompose(invert(van))
    alpha = 3
    beta0 = fac.U.rows[0][0] * alpha % 5
    p0 = fac.L.rows[0][0] * beta0 % 5
    assert p0 != alpha  # the literal recipe is wrong here
    grid = Grid(mod, [[1, 2]])
    table = EvalTable(mod, 1, 1, 0, [alpha])
    assert trimmed_interp(table, grid).coeffs == (alpha,)


# yates baseline

def test_yates_requires_full_cube():
    poly = random_poly(2, 2, 3, MOD5, seed=0)
    with pytest.raises(ValidationError):
        yates_eval(poly, Grid.random(MOD5, 2, 2, seed=0))


def test_yates_univariate_direct():
    mod = PrimeModulus(17)
    poly = random_poly(1, 3, 3, mod, seed=5)
    grid = Grid.random(mod, 1, 3, seed=6)
    table = yates_eval(poly, grid)
    for j, z in enumerate(grid.rows[0]):
        assert table.values[j] == naive_eval_point(poly, (z,))


def test_yates_constant():
    mod = PrimeModulus(17)
    poly = TrimmedPoly(mod, 2, 2, 4, [5] + [0] * (ebc_cum(2, 4, 2) - 1))
    table = yates_eval(poly, Grid.random(mod, 2, 2, seed=1))
    assert set(table.values) == {5}


def test_yates_full_cube_consistency():
    rng = random.Random(300)
    for n in range(1, 5):
        for d in range(1, 4):
            mod = PrimeModulus(rng.choice([7, 65537]))
            poly = random_poly(n, d, n * d, mod, seed=n * 7 + d)
            grid = Grid.random(mod, n, d, seed=n + d)
            fast = trimmed_eval(poly, grid)
            full = yates_eval(poly, grid)
            assert fast == full
            # spot-check the index correspondence explicitly
            idxs = enumerate_trimmed(n, d, n * d)
            for _ in range(10):
                r = rng.randrange(len(idxs))
                exps = idxs[r]
                mixed_radix = sum(e * (d + 1) ** i
                                  for i, e in enumerate(exps))
                assert r == mixed_radix
                assert full.values[r] == naive_eval_point(
                    poly, grid.point(exps))


def test_multilinear_matches_subset_sums():
    # d = 1 on nodes (0, 1): the value at the indicator point of a set X
    # is the sum of the coefficients over all subsets of X
    mod = PrimeModulus(65537)
    n, D = 6, 3
    poly = random_poly(n, 1, D, mod, seed=21)
    grid = Grid(mod, [[0, 1]] * n)
    table = trimmed_eval(poly, grid)
    idxs = enumerate_trimmed(n, 1, D)
    coeff = dict(zip(idxs, poly.coeffs))
    for exps, value in zip(idxs, table.values):
        support = [i for i, e in enumerate(exps) if e]
        total = 0
        for mask in range(1 << len(support)):
            sub = [0] * n
            for t, i in enumerate(support):
                if mask >> t & 1:
                    sub[i] = 1
            total = (total + coeff[tuple(sub)]) % mod.p
        assert value == total, exps


def test_multilinear_over_f2():
    mod = PrimeModulus(2)
    poly = random_poly(5, 1, 2, mod, seed=3)
    grid = Grid(mod, [[0, 1]] * 5)
    table = trimmed_eval(poly, grid)
    assert table == naive_trimmed_eval(poly, grid)
    assert trimmed_interp(table, grid) == poly


# the inner truncated-product identity, materialized directly

def test_telescoping_identity_small_instance():
    mod = PrimeModulus(7)
    n, d, D = 2, 2, 2
    poly = random_poly(n, d, D, mod, seed=12)
    grid = Grid.random(mod, n, d, seed=13)
    fac = lu_decompose(build_vandermonde(grid.rows[n - 1], mod))
    # parts[i] holds the terms of P_i, where P = sum_i P_i * X_n^i
    parts = [[] for _ in range(d + 1)]
    for exps, coeff in to_sparse(poly).terms:
        parts[exps[-1]].append((exps[:-1], coeff))
    # q_j = sum_{i >= j} U[j][i] * parts[i], assembled sparsely
    q_polys = []
    for j in range(d + 1):
        terms = {}
        for i in range(j, d + 1):
            u = fac.U.rows[j][i]
            for exps, coeff in parts[i]:
                terms[exps] = (terms.get(exps, 0) + u * coeff) % mod.p
        budget = min(D - j, (n - 1) * d) if D - j >= 0 else -1
        q_polys.append(from_sparse(SparsePoly(
            mod, n - 1, d, budget,
            [(e, c) for e, c in terms.items() if c])))
    for prefix in enumerate_trimmed(n - 1, d, D):
        point = grid.point(prefix + (0,))[:-1]
        k = min(d, D - sum(prefix))
        q_values = [naive_eval_point(q_polys[i], point)
                    for i in range(k + 1)]
        for j in range(k + 1):
            lhs = sum(fac.L.rows[j][i] * q_values[i]
                      for i in range(k + 1)) % mod.p
            rhs = naive_eval_point(poly, grid.point(prefix + (j,)))
            assert lhs == rhs, (prefix, j)


# operation counting

def test_run_counted_zero_work_base_case():
    poly = TrimmedPoly(MOD5, 0, 1, 0, [2])
    grid = Grid(MOD5, [], d=1)
    _, counter = run_counted(trimmed_eval, poly, grid)
    assert counter.mul_count == 0
    assert counter.add_count == 0
    assert counter.inv_count == 0


def test_run_counted_single_term_point_eval():
    # one term with exponents (3, 1): pow costs are 3 and 1 muls, plus one
    # mul per variable folding the powers into the coefficient
    mod = PrimeModulus(65537)
    poly = from_sparse(SparsePoly(mod, 2, 3, 4, [((3, 1), 9)]))
    _, counter = run_counted(naive_eval_point, poly, (5, 6))
    assert counter.mul_count == (3 + 1) + 2
    assert counter.add_count == 1
    # n = 0 passes every cap with any d: the one constant term, one add
    poly = TrimmedPoly(MOD5, 0, 10**9, 0, [3])
    value, counter = run_counted(naive_eval_point, poly, ())
    assert value == 3
    assert (counter.mul_count, counter.add_count,
            counter.inv_count) == (0, 1, 0)


@pytest.mark.parametrize("n, d, D, p, every_third_zero, table_ops, point_ops", [
    (3, 2, 4, 65537, False, (2967, 529, 0), (129, 23, 0)),
    (4, 3, 7, 2**61 - 1, True, (215460, 23940, 0), (1134, 126, 0)),
])
def test_oracle_op_counts_pinned(n, d, D, p, every_third_zero, table_ops,
                                 point_ops):
    # (mul, add, inv) of the oracle on fixed shapes, a dense polynomial and
    # one with every third coefficient zero (skipped terms cost nothing)
    mod = PrimeModulus(p)
    poly = random_poly(n, d, D, mod, seed=7)
    if every_third_zero:
        poly = TrimmedPoly(mod, n, d, D, [c if i % 3 else 0
                                          for i, c in enumerate(poly.coeffs)])
    grid = Grid.random(mod, n, d, seed=8)
    table, counter = run_counted(naive_trimmed_eval, poly, grid)
    assert (counter.mul_count, counter.add_count,
            counter.inv_count) == table_ops
    assert table == trimmed_eval(poly, grid)
    point = grid.point((1,) * n)
    value, counter = run_counted(naive_eval_point, poly, point)
    assert (counter.mul_count, counter.add_count,
            counter.inv_count) == point_ops
    assert value == table.values[rank((1,) * n, n, d, D)]


def test_run_counted_deterministic_and_shape_only():
    mod = PrimeModulus(65537)
    grid = Grid.random(mod, 3, 2, seed=2)
    poly_a = random_poly(3, 2, 4, mod, seed=3)
    poly_b = random_poly(3, 2, 4, mod, seed=4)
    _, c1 = run_counted(trimmed_eval, poly_a, grid)
    _, c2 = run_counted(trimmed_eval, poly_a, grid)
    _, c3 = run_counted(trimmed_eval, poly_b, grid)
    assert (c1.mul_count, c1.add_count, c1.inv_count) == \
        (c2.mul_count, c2.add_count, c2.inv_count)
    # counts for the fast transform depend only on the instance shape
    assert (c1.mul_count, c1.add_count) == (c3.mul_count, c3.add_count)
    assert c1.mul_count > 0


def test_run_counted_counts_every_distinct_modulus():
    # poly and grid on equal but separate moduli, as on the CLI path where
    # each is loaded from its own file: the grid's factor construction
    # must be counted too, exactly as on a shared modulus
    poly = random_poly(4, 2, 4, PrimeModulus(65537), 0)
    for grid_mod in (PrimeModulus(65537), poly.modulus):
        grid = Grid.random(grid_mod, 4, 2, 0)
        _, counter = run_counted(trimmed_eval, poly, grid)
        # the stages' (283, 296, 0) plus four rows' factors at (4, 4, 1)
        assert (counter.mul_count, counter.add_count,
                counter.inv_count) == (299, 312, 4)
        assert active_counter.get() is None


def test_run_counted_counts_every_calling_form():
    # keyword arguments and a closure count the same as positional ones,
    # with the grid on an equal but separate modulus
    poly = random_poly(4, 2, 4, PrimeModulus(65537), 0)
    grid = Grid.random(PrimeModulus(65537), 4, 2, 0)
    runs = (run_counted(trimmed_eval, poly, grid=grid),
            run_counted(trimmed_eval, poly=poly, grid=grid),
            run_counted(lambda: trimmed_eval(poly, grid)))
    for _, counter in runs:
        assert (counter.mul_count, counter.add_count,
                counter.inv_count) == (299, 312, 4)



def _stage_ops(n: int, d: int, D: int) -> tuple[int, int]:
    """(mul, add) of the 2n stages and the weight pass, in closed form:
    along variable m, the fiber whose other coordinates sum to s has l =
    min(d, D-s) + 1 entries. Its unit upper stage costs l(l-1)/2
    products, one per nonzero of the factor's leading l x l block off
    its diagonal. Its lower stage skips row 0, the identity, and the
    structural 1 in columns 0 and j of rows j >= 1: (l-1)(l-2)/2
    products. Each stage costs l(l+1)/2 - l additions. Each fiber is
    named by its vector with e_m = 0. The weight pass costs 2N - 1
    products when n >= 1."""
    if D < 0:
        return 0, 0
    exps = enumerate_trimmed(n, d, D)
    mul = 2 * len(exps) - 1 if n else 0
    add = 0
    for m in range(n):
        for e in exps:
            if e[m] == 0:
                ell = min(d, D - sum(e)) + 1
                mul += ell * (ell - 1) // 2 + (ell - 1) * (ell - 2) // 2
                add += ell * (ell + 1) - 2 * ell
    return mul, add


# (mul, add, inv) per row of m = d+1 nodes, pinned as in
# tests/test_linalg.py: evaluation, interpolation
ROW_OPS = {
    2: ((0, 1, 0), (0, 2, 1)),
    3: ((3, 4, 1), (6, 5, 1)),
    4: ((12, 9, 1), (15, 10, 1)),
    5: ((24, 16, 1), (27, 17, 1)),
    6: ((39, 25, 1), (42, 26, 1)),
}


def _factors(grid: Grid, inverse: bool) -> list:
    """The per-variable factors that ``_transform`` builds for a grid."""
    return [vandermonde_factors(row, grid.modulus.p, inverse)
            for row in grid.rows]


def _factor_ops(grid: Grid, inverse: bool) -> tuple[int, int, int]:
    """Counted cost of building the per-variable factors on their own,
    checked against n times the pinned per-row count."""
    _, counter = run_counted(_factors, grid, inverse)
    ops = counter.mul_count, counter.add_count, counter.inv_count
    assert ops == tuple(grid.n * c for c in ROW_OPS[grid.d + 1][inverse])
    return ops


def test_transform_op_counts_closed_form():
    # every shape with n <= 5, d <= 4, -1 <= D <= nd+1 and N <= 600, on a
    # grid holding the node 0 and on a random one: total counts are the
    # factor construction plus the fiber costs of ``_stage_ops``
    mod = PrimeModulus(65537)
    cases = 0
    for n in range(6):
        for d in range(1, 5):
            for D in range(-1, n * d + 2):
                N = ebc_cum(n, D, d)
                if N > 600:
                    continue
                muls, adds = _stage_ops(n, d, D)
                poly = random_poly(n, d, D, mod, seed=N)
                for grid in (Grid.sequential(mod, n, d),
                             Grid.random(mod, n, d, seed=D + 1)):
                    table, ev = run_counted(trimmed_eval, poly, grid)
                    _, inv = run_counted(trimmed_interp, table, grid)
                    for counter, inverse in ((ev, False), (inv, True)):
                        fmul, fadd, finv = (_factor_ops(grid, inverse)
                                            if D >= 0 else (0, 0, 0))
                        got = (counter.mul_count, counter.add_count,
                               counter.inv_count)
                        want = (fmul + muls, fadd + adds, finv)
                        assert got == want, (n, d, D, grid.rows, inverse)
                        cases += 1
    assert cases > 600


def test_interp_costs_what_eval_costs():
    # Interpolation builds the same L and U' as evaluation, with the
    # coefficients negated, and runs the same stages backwards, so it
    # executes the same stage operations. Its factors cost one negation
    # per variable more, and its batch also inverts delta_d, at 3 more
    # products per variable for d >= 2 and one inversion in place of none
    # for d = 1. With n = 0 or D < 0 neither direction builds factors.
    cases = 0
    for p in (2, 3, 65537, 2**61 - 1):
        mod = PrimeModulus(p)
        for n in range(5):
            for d in range(1, min(p - 1, 4) + 1):
                grid = Grid.random(mod, n, d, seed=n + d)
                for D in range(-1, n * d + 2):
                    poly = random_poly(n, d, D, mod, seed=D)
                    table, ev = run_counted(trimmed_eval, poly, grid)
                    _, inv = run_counted(trimmed_interp, table, grid)
                    extra = ((0, 0, 0) if n == 0 or D < 0
                             else (3 * n, n, 0) if d >= 2 else (0, n, n))
                    assert (inv.mul_count - ev.mul_count,
                            inv.add_count - ev.add_count,
                            inv.inv_count - ev.inv_count) == extra, \
                        (p, n, d, D)
                    cases += 1
    assert cases == 405


class _Recorded(int):
    """A residue that records each *, + and - applied to it in ``ops``, a
    subtraction as one addition; the reduction % p is free, as in the cost
    model."""

    ops = Counter()

    def __mul__(self, other):
        _Recorded.ops["mul"] += 1
        return _Recorded(int.__mul__(self, other))

    __rmul__ = __mul__

    def __add__(self, other):
        _Recorded.ops["add"] += 1
        return _Recorded(int.__add__(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        _Recorded.ops["add"] += 1
        return _Recorded(int.__sub__(self, other))

    def __rsub__(self, other):
        _Recorded.ops["add"] += 1
        return _Recorded(int.__rsub__(self, other))

    def __mod__(self, p):
        return _Recorded(int.__mod__(self, p))


def test_transform_counts_what_executes():
    # Every shape with n <= 4, d <= 5 and 0 <= b <= nd, both directions:
    # the products and sums that the stages and the weight pass execute on
    # recorded residues equal their tally, the transform's count minus its
    # factors' and minus the w_0 - 1 products that build the weights from
    # the factors' plain residues. Zero-padding a column, or any other
    # untallied operation, shows up as an excess.
    mod = PrimeModulus(2**61 - 1)
    for n in range(1, 5):
        for d in range(1, 6):
            grid = Grid.random(mod, n, d, seed=10 * n + d)
            for b in range(n * d + 1):
                size = ebc_cum(n, b, d)
                plain = random.Random(b).choices(range(mod.p), k=size)
                for inverse in (False, True):
                    _Recorded.ops = Counter()
                    recorded = [_Recorded(v) for v in plain]
                    out, counter = run_counted(_transform, recorded, grid, b,
                                               inverse)
                    ops = _Recorded.ops
                    fmul, fadd, finv = _factor_ops(grid, inverse)
                    build = ebc_cum(n - 1, b, d) - 1
                    assert (ops["mul"], ops["add"]) == (
                        counter.mul_count - fmul - build,
                        counter.add_count - fadd), (n, d, b, inverse)
                    assert counter.inv_count == finv
                    assert out == _transform(plain, grid, b, inverse)

def test_stage_kernel_sign_patterns():
    # Every sign pattern of up to 4 columns, in both directions, against
    # the direct sum, on columns of unequal length holding 0 and p-1:
    # column 0 and every coefficient column are added, a structural column
    # after column 0 is subtracted under ``minus`` and can make sums
    # negative before the reduction, and the output stops where the
    # shortest column does.
    rng = random.Random(16)
    for p in (2, 3, 65537, 2**62 - 57):
        for k in range(1, 5):
            for signs in itertools.product((0, 1), repeat=k):
                for minus in (False, True):
                    cols = [[0, p - 1] + rng.choices(range(p), k=3 + i)
                            for i in range(k)]
                    rng.shuffle(cols)
                    coefs = [rng.choice((1, p - 1, rng.randrange(p)))
                             for s in signs if s == 0]
                    weights = iter(coefs)
                    scale = [next(weights) if s == 0 else 1 for s in signs]
                    if minus:
                        scale[1:] = [-c if s else c
                                     for c, s in zip(scale[1:], signs[1:])]
                    want = [sum(c * x for c, x in zip(scale, xs)) % p
                            for xs in zip(*cols)]
                    got = _kernel(signs, minus)(coefs, cols, p)
                    assert got == want, (p, signs, minus)
    # the one exec site compiles only sign patterns and a bool; past the
    # cache, which takes (True,) and (0.0,) for the equal (1,) and (0,),
    # and 0 and 1 for False and True, too
    for bad in ((2,), 3, (), (0, -2), (-1,), (1, -1), (None,)):
        for minus in (False, True):
            with pytest.raises(ValueError):
                _kernel(bad, minus)
    for bad in ((True,), (0.0,), ("0",), [0]):
        with pytest.raises(ValueError):
            _kernel.__wrapped__(bad, False)
    for minus in (0, 1, None, "True"):
        with pytest.raises(ValueError):
            _kernel.__wrapped__((1, 0), minus)


def test_interp_counts_present():
    mod = PrimeModulus(65537)
    grid = Grid.random(mod, 3, 2, seed=2)
    poly = random_poly(3, 2, 4, mod, seed=3)
    table = trimmed_eval(poly, grid)
    _, counter = run_counted(trimmed_interp, table, grid)
    assert counter.mul_count > 0 and counter.inv_count > 0


def test_empty_polynomial_paths():
    empty = TrimmedPoly(MOD5, 2, 1, -1, [])
    grid = Grid(MOD5, [[0, 1], [0, 1]])
    table = trimmed_eval(empty, grid)
    assert table.values == ()
    assert trimmed_interp(table, grid) == empty
    assert naive_trimmed_eval(empty, grid).values == ()


# Trusted construction: the transforms and the factor routines build their
# containers without re-checking, so their outputs must be exactly what
# the validating public constructors would have built.

def canonical(values, p):
    return (type(values) is tuple
            and all(type(v) is int and 0 <= v < p for v in values))


def test_internal_containers_equal_public_copies():
    # random_poly clamps a D below 0 or above nd, as the public
    # constructor does
    shapes = [(0, 1, 0), (1, 1, 1), (2, 1, -1), (3, 2, 4), (2, 4, 8),
              (2, 1, -5), (0, 3, 2), (2, 2, 9)]
    for p in (2, 5, 65537, 2**62 - 57):
        mod = PrimeModulus(p)
        for n, d, D in shapes:
            if p < d + 1:
                continue
            grid = Grid.random(mod, n, d, seed=n + d)
            poly = random_poly(n, d, D, mod, seed=D)
            assert canonical(poly.coeffs, p)
            assert poly == TrimmedPoly(mod, n, d, D, poly.coeffs)
            assert poly.D == max(-1, min(D, n * d))
            table = trimmed_eval(poly, grid)
            assert canonical(table.values, p)
            assert table == EvalTable(mod, n, d, D, table.values)
            naive = naive_trimmed_eval(poly, grid)
            assert canonical(naive.values, p) and naive == table
            back = trimmed_interp(table, grid)
            assert canonical(back.coeffs, p)
            assert back == TrimmedPoly(mod, n, d, D, back.coeffs) == poly
            dense = from_sparse(to_sparse(poly))
            assert canonical(dense.coeffs, p) and dense == poly
            if D == n * d:  # the full cube that yates_eval needs
                full = yates_eval(poly, grid)
                assert canonical(full.values, p) and full == table
            closed = zip(_factors(grid, False), _factors(grid, True))
            for row, (lu, solve) in zip(grid.rows, closed):
                van = build_vandermonde(row, mod)
                fac = lu_decompose(van)
                assert product(fac.L.rows, fac.U.rows, p) == van.rows
                lower, unit, scale = lu
                assert lower == fac.L.rows
                assert fac.U.rows == tuple(tuple(s * v % p for v in r)
                                           for s, r in zip(scale, unit))
                for rows in lu[:2] + solve[:2]:
                    assert type(rows) is tuple
                    assert all(canonical(r, p) for r in rows)
                assert canonical(lu[2], p) and canonical(solve[2], p)
                for matrix in (van, fac.L, fac.U):
                    assert type(matrix.rows) is tuple
                    assert all(canonical(r, p) for r in matrix.rows)
                    assert matrix.rows == SquareMatrix(mod, matrix.rows).rows
                    assert matrix.size == len(matrix.rows)


def test_internal_containers_survive_pickle():
    mod = PrimeModulus(2**61 - 1)
    grid = Grid.random(mod, 3, 2, seed=4)
    table = trimmed_eval(random_poly(3, 2, 4, mod, seed=5), grid)
    poly = trimmed_interp(table, grid)
    for obj in (table, poly):
        copy = pickle.loads(pickle.dumps(obj))
        assert type(copy) is type(obj) and copy == obj
        assert copy.modulus == obj.modulus and copy.D == obj.D
    # the two dense containers share one body but are never equal, even
    # over the same fields
    twin = TrimmedPoly._trusted(mod, 3, 2, 4, table.values)
    assert twin.coeffs == table.values
    assert twin != table and table != twin


def test_public_constructors_still_canonicalise_and_reject():
    assert SquareMatrix(MOD5, [[7, -1], [5, 12]]).rows == ((2, 4), (0, 2))
    assert EvalTable(MOD5, 1, 1, 1, [6, -1]).values == (1, 4)
    assert TrimmedPoly(MOD5, 1, 1, 1, [-5, 9]).coeffs == (0, 4)
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            SquareMatrix(MOD5, [[bad]])
        with pytest.raises(TypeError):
            EvalTable(MOD5, 1, 1, 1, [0, bad])
        with pytest.raises(TypeError):
            TrimmedPoly(MOD5, 1, 1, 1, [bad, 0])
    table = EvalTable(MOD5, 1, 1, 1, [1, 2])
    poly = TrimmedPoly(MOD5, 1, 1, 1, [1, 2])
    assert table != poly and poly != table
    assert repr(table) == "EvalTable(n=1, d=1, D=1, p=5, 2 values)"
    assert repr(poly) == "TrimmedPoly(n=1, d=1, D=1, p=5, 2 coeffs)"
    with pytest.raises(ValidationError, match="^value table has length 1"):
        EvalTable(MOD5, 1, 1, 1, [1])
    with pytest.raises(ValidationError,
                       match="^coefficient vector has length 3"):
        TrimmedPoly(MOD5, 1, 1, 1, [1, 2, 3])


def test_transform_at_budget_zero_runs_only_products_by_one():
    # At b = 0 the layout is the one point 0. No upper row runs, each lower
    # stage passes it on through row 0, the identity, and the weight pass
    # multiplies it by w(0) = 1: the value is the constant coefficient, at
    # 1 product and no sums beyond the factors'.
    for p in (2, 3, 65537, 2**62 - 57):
        mod = PrimeModulus(p)
        for n in range(1, 4):
            for d in range(1, min(p - 1, 3) + 1):
                grid = Grid.random(mod, n, d, seed=n + d)
                poly = random_poly(n, d, 0, mod, seed=p + n)
                table, ev = run_counted(trimmed_eval, poly, grid)
                assert table.values == poly.coeffs, (p, n, d)
                back, inv = run_counted(trimmed_interp, table, grid)
                assert back == poly
                for counter, inverse in ((ev, False), (inv, True)):
                    fmul, fadd, finv = _factor_ops(grid, inverse)
                    assert (counter.mul_count - fmul, counter.add_count - fadd,
                            counter.inv_count - finv) == (1, 0, 0)
