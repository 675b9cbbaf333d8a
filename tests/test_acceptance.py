"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py -v`` to see them).

All tolerances are exact equality except the operation-count criterion,
whose constants are frozen here as regression thresholds:

- C_MUL_BOUND: counted multiplications of the fast evaluation must stay
  below C * N * n * (d+1)^2. Measured maximum of the ratio across the
  whole sweep is 11/32 = 0.344, at (n, d, D) = (2, 1, 2): at d=1 the unit
  upper stage along a variable costs one product per entry of block 1,
  w_1 = N/2 on the full cube, and the lower one none, as its row 0 is the
  identity and its row 1 structural; the weight pass costs 2N - 1, and a
  row of two nodes costs no factor multiplication, so at D = n the ratio
  is 1/8 + (2N - 1)/(4nN). Criterion 6's report line prints it.
  Counts are shape-determined, so 1.25 gives headroom only against
  future implementation changes.
- MONOTONE_SLACK: within each (d, D-fraction) series the per-point ratio
  mul/(N*n) may exceed the running minimum over smaller n by at most 10%
  (measured worst excursion: 9.3%, at d=1, D=nd/4, n=9, which the report
  line prints too).
- Separation: the quadratic oracle's multiplication count must exceed the
  fast transform's by a factor that grows with N (measured: 7.4x at N=8
  up to 434.5x at N=435 on the feasible subrange).
"""

import random
import time

from trimmedpoly import checks
from trimmedpoly.algo import (
    EvalTable,
    Grid,
    naive_trimmed_eval,
    trimmed_eval,
    trimmed_interp,
)
from trimmedpoly.combinat import ebc_cum
from trimmedpoly.field import PrimeModulus, run_counted
from trimmedpoly.poly import random_poly

C_MUL_BOUND = 1.25
MONOTONE_SLACK = 1.10
SEPARATION_MIN_GROWTH = 5.0
SEPARATION_MIN_FINAL = 50.0

# Criterion 1 runs the quadratic oracle, so instances whose oracle cost
# N^2 * n would dwarf the desk-scale budget are excluded; every individual
# parameter value (each n, d, D kind, p) still occurs. See the note in the
# project README about this cap.
ORACLE_COST_CAP = 1_000_000

_MODULI = {}


def _modulus(p):
    if p not in _MODULI:
        _MODULI[p] = PrimeModulus(p)
    return _MODULI[p]


def _report(num, name, ok, detail):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _criterion_combos():
    combos = []
    for n in range(1, 7):
        for d in range(1, 5):
            for D in sorted({0, (n * d + 1) // 2, n * d}):
                for p in (5, 65537):
                    if p >= d + 1:
                        combos.append((n, d, D, p))
    return combos


def _oracle_instances():
    instances = []
    for n, d, D, p in _criterion_combos():
        if ebc_cum(n, D, d) ** 2 * n <= ORACLE_COST_CAP:
            for seed in (0, 1):
                instances.append((n, d, D, p, seed))
    return instances


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    instances = _oracle_instances()
    assert len(instances) >= 200, f"only {len(instances)} feasible instances"
    spanned_n = {n for n, _, _, _, _ in instances}
    spanned_d = {d for _, d, _, _, _ in instances}
    spanned_p = {p for _, _, _, p, _ in instances}
    assert spanned_n == set(range(1, 7))
    assert spanned_d == set(range(1, 5))
    assert spanned_p == {5, 65537}
    failures = []
    for n, d, D, p, seed in instances:
        mod = _modulus(p)
        poly = random_poly(n, d, D, mod, seed=seed * 9901 + n * 131 + d)
        grid = Grid.random(mod, n, d, seed=seed * 77 + D)
        if trimmed_eval(poly, grid) != naive_trimmed_eval(poly, grid):
            failures.append((n, d, D, p, seed))
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence", not failures,
            f"{len(instances)} instances, exact, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_2_round_trip_identities():
    start = time.perf_counter()
    failures = []
    count = 0
    for n, d, D, p in _criterion_combos():
        mod = _modulus(p)
        for seed in (0, 1):
            grid = Grid.random(mod, n, d, seed=seed * 311 + n * 17 + d + D)
            poly = random_poly(n, d, D, mod,
                               seed=seed * 509 + n * 1009 + d * 31 + D)
            if trimmed_interp(trimmed_eval(poly, grid), grid) != poly:
                failures.append(("interp(eval)", n, d, D, p, seed))
            rng = random.Random(seed * 701 + n * 37 + d * 11 + D)
            table = EvalTable(mod, n, d, D,
                              [rng.randrange(p)
                               for _ in range(ebc_cum(n, D, d))])
            if trimmed_eval(trimmed_interp(table, grid), grid) != table:
                failures.append(("eval(interp)", n, d, D, p, seed))
            count += 1
    assert count >= 200
    elapsed = time.perf_counter() - start
    _report(2, "round-trip identities", not failures,
            f"{count} instances both directions, exact, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_3_extended_pascal():
    start = time.perf_counter()
    checked = checks.extended_pascal()
    elapsed = time.perf_counter() - start
    _report(3, "extended Pascal identity", True,
            f"{checked} cells exhaustive, exact, {elapsed:.1f}s")


def test_criterion_4_lu_contract():
    start = time.perf_counter()
    trials = checks.lu_contract()
    elapsed = time.perf_counter() - start
    _report(4, "LU contract", True,
            f"{trials} reconstructions + {trials} duplicate rejections, "
            f"exact, {elapsed:.1f}s")


def test_criterion_5_full_cube_consistency():
    start = time.perf_counter()
    count = checks.full_cube_consistency()
    elapsed = time.perf_counter() - start
    _report(5, "full-cube consistency with the classical baseline", True,
            f"{count} instances at all (d+1)^n points, exact, {elapsed:.1f}s")


def test_criterion_6_operation_count_scaling():
    start = time.perf_counter()
    mod = _modulus(65537)
    measured = {}
    for d in (1, 2, 3):
        for n in range(2, 11):
            for kind, D in (("nd/4", (n * d + 3) // 4),
                            ("nd/2", (n * d + 1) // 2),
                            ("nd", n * d)):
                size = ebc_cum(n, D, d)
                poly = random_poly(n, d, D, mod, seed=n * 100 + d * 10)
                grid = Grid.sequential(mod, n, d)
                _, counter = run_counted(trimmed_eval, poly, grid)
                bound = C_MUL_BOUND * size * n * (d + 1) ** 2
                assert counter.mul_count <= bound, \
                    (n, d, D, counter.mul_count, bound)
                measured[(d, kind, n)] = (size, counter.mul_count)
    c_max = max(muls / (size * key[2] * (key[0] + 1) ** 2)
                for key, (size, muls) in measured.items())
    # per-point ratio must not grow with n (10% slack over the running min)
    worst = (0.0, None)
    for d in (1, 2, 3):
        for kind in ("nd/4", "nd/2", "nd"):
            running_min = None
            for n in range(2, 11):
                size, muls = measured[(d, kind, n)]
                ratio = muls / (size * n)
                if running_min is not None:
                    assert ratio <= MONOTONE_SLACK * running_min, \
                        (d, kind, n, ratio, running_min)
                    worst = max(worst, (ratio / running_min, (d, kind, n)))
                running_min = ratio if running_min is None \
                    else min(running_min, ratio)
    # sanity separation from the quadratic oracle on the feasible subrange
    factors = []
    for d in (1, 2, 3):
        for n in range(2, 11):
            for D in ((n * d + 3) // 4, (n * d + 1) // 2, n * d):
                size = ebc_cum(n, D, d)
                if size > 450 or size < 8:
                    continue
                poly = random_poly(n, d, D, mod, seed=n * 100 + d * 10)
                grid = Grid.sequential(mod, n, d)
                _, fast = run_counted(trimmed_eval, poly, grid)
                _, slow = run_counted(naive_trimmed_eval, poly, grid)
                factors.append((size, slow.mul_count / fast.mul_count))
    factors.sort()
    assert factors[-1][1] >= SEPARATION_MIN_GROWTH * factors[0][1], factors
    assert factors[-1][1] >= SEPARATION_MIN_FINAL, factors[-1]
    elapsed = time.perf_counter() - start
    _report(6, "near-linear operation count", True,
            f"{len(measured)} instances bound C={C_MUL_BOUND} (max "
            f"{c_max:.3f}), monotone within {MONOTONE_SLACK} (worst "
            f"{worst[0]:.3f} at (d, kind, n) = {worst[1]}), oracle separation "
            f"{factors[0][1]:.1f}x -> {factors[-1][1]:.1f}x, {elapsed:.1f}s")


def test_criterion_7_rank_unrank_bijection():
    start = time.perf_counter()
    checked = checks.rank_unrank_bijection()
    elapsed = time.perf_counter() - start
    _report(7, "rank/unrank bijection", True,
            f"{checked} positions exhaustive, exact, {elapsed:.1f}s")
