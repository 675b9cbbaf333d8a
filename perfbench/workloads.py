"""Seeded workload inputs, their on-disk layout, and the output checks.

For the CLI and the traced replay, every instance gets its own directory
under the run's work directory: ``poly.json`` and ``grid.json`` are the
generated inputs, written through ``trimmedpoly.jsonio`` exactly as the
CLI writes its own outputs. CLI passes write ``table.json`` and
``back.json`` beside them, the traced replay ``table.trace.json`` and
``back.trace.json``; ``back*.json`` uses the polynomial wire format, so a
correct round trip reproduces ``poly.json`` byte for byte. The timed
library children exchange pickled containers instead (``inputs.pkl``,
``tables.pkl``, ``polys.pkl``), so that a child spends its time in the
calls it times.
"""

from __future__ import annotations

import json
import pickle
import random
from dataclasses import dataclass
from pathlib import Path

from trimmedpoly import (
    EvalTable,
    Grid,
    PrimeModulus,
    ebc_cum,
    naive_eval_point,
    naive_trimmed_eval,
    random_poly,
    to_sparse,
    unrank,
)
from trimmedpoly.jsonio import (
    eval_table_from_dict,
    grid_to_dict,
    sparse_poly_from_dict,
    sparse_poly_to_dict,
)

# Primes on both sides of 2^31 and near 2^62, plus the smallest fields.
SMALL_PRIMES = (2, 3, 2**31 - 1, 2147483659, 2**61 - 1, 2**62 - 57)
SMALL_MAX_N = 600
SMALL_REPEATS = 3
# The acceptance suite's oracle cap, and the oracle work one run may spend.
ORACLE_CAP = 10**6
ORACLE_BUDGET = 10**6


@dataclass(frozen=True)
class Workload:
    cli: bool          # timed passes run the CLI, file to file
    warmup: int        # untimed library calls per instance before timing
    oracle_slots: int  # sampled table slots per instance; 0 = whole oracle
    cli_sample: int    # instances the traced run also sends through the CLI
    repeats: int       # timed library passes per child, after the warm-up
    chunks: int        # calibrated slices of the instances per library pass


WORKLOADS = {
    "cli-dense": Workload(cli=True, warmup=0, oracle_slots=2, cli_sample=1,
                          repeats=1, chunks=1),
    "lib-bigprime": Workload(cli=False, warmup=1, oracle_slots=3,
                             cli_sample=1, repeats=4, chunks=1),
    "many-small": Workload(cli=False, warmup=0, oracle_slots=0, cli_sample=8,
                           repeats=1, chunks=10),
}


def small_shapes() -> list[tuple[int, int, int]]:
    """Every (n, d, D) with n <= 6, d <= 4, D <= n*d and N <= SMALL_MAX_N."""
    return [(n, d, D) for n in range(7) for d in range(1, 5)
            for D in range(n * d + 1) if ebc_cum(n, D, d) <= SMALL_MAX_N]


def _edge_grid(modulus: PrimeModulus, n: int, d: int,
               rng: random.Random) -> Grid:
    """Rows that each hold the nodes 0 and p-1 among d+1 distinct nodes."""
    p = modulus.p
    rows = []
    for _ in range(n):
        row = [0, p - 1] + rng.sample(range(1, p - 1), d - 1)
        rng.shuffle(row)
        rows.append(row)
    return Grid(modulus, rows, d=d)


def generate(name: str, seed: int) -> list[tuple]:
    """(poly, grid) pairs, each pair on one shared PrimeModulus."""
    if name == "cli-dense":
        modulus = PrimeModulus(65537)
        return [(random_poly(12, 2, 6, modulus, seed),
                 Grid.random(modulus, 12, 2, seed + 1))]
    if name == "lib-bigprime":
        modulus = PrimeModulus(2**61 - 1)
        return [(random_poly(8, 3, 12, modulus, seed),
                 Grid.random(modulus, 8, 3, seed + 1))]
    if name == "many-small":
        rng = random.Random(seed)
        out = []
        for _ in range(SMALL_REPEATS):
            for n, d, D in small_shapes():
                for p in SMALL_PRIMES:
                    if p < d + 1:
                        continue
                    modulus = PrimeModulus(p)
                    poly = random_poly(n, d, D, modulus, rng.getrandbits(32))
                    if rng.random() < 0.25:
                        grid = _edge_grid(modulus, n, d, rng)
                    else:
                        grid = Grid.random(modulus, n, d, rng.getrandbits(32))
                    out.append((poly, grid))
        rng.shuffle(out)
        return out
    raise KeyError(name)


def dump_json(path, obj) -> None:
    """Write a document the way the CLI does: indent 2, trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def instance_dir(work: Path, index: int) -> Path:
    return work / f"{index:05d}"


def write_inputs(work: Path, instances) -> None:
    """One directory of JSON input files per instance."""
    for index, (poly, grid) in enumerate(instances):
        path = instance_dir(work, index)
        path.mkdir()
        dump_json(path / "poly.json", sparse_poly_to_dict(to_sparse(poly)))
        dump_json(path / "grid.json", grid_to_dict(grid))


def write_containers(work: Path, instances) -> None:
    """The (poly, grid) containers for the library children."""
    with open(work / "inputs.pkl", "wb") as handle:
        pickle.dump(instances, handle)


def expected_slots(workload: Workload, instances, seed: int) -> list[dict]:
    """Per instance, {slot: value} from the quadratic oracle.

    With ``oracle_slots`` set, a seeded sample of slots is evaluated with
    ``naive_eval_point``. Otherwise whole tables come from
    ``naive_trimmed_eval`` for a seeded choice of instances under the
    oracle cap N^2 * n <= 10^6, until ORACLE_BUDGET is spent; the round
    trip still checks every instance.
    """
    rng = random.Random(seed ^ 0x5EED)
    out: list[dict] = [{} for _ in instances]
    if workload.oracle_slots:
        for index, (poly, grid) in enumerate(instances):
            size = ebc_cum(poly.n, poly.D, poly.d)
            for slot in rng.sample(range(size), workload.oracle_slots):
                point = grid.point(unrank(slot, poly.n, poly.d, poly.D))
                out[index][slot] = naive_eval_point(poly, point)
        return out
    order = list(range(len(instances)))
    rng.shuffle(order)
    spent = 0
    for index in order:
        poly, grid = instances[index]
        cost = ebc_cum(poly.n, poly.D, poly.d) ** 2 * max(poly.n, 1)
        if cost > ORACLE_CAP or spent + cost > ORACLE_BUDGET:
            continue
        spent += cost
        out[index] = dict(enumerate(naive_trimmed_eval(poly, grid).values))
    return out


def table_ok(table, poly, expected: dict) -> bool:
    """The table has the instance's shape and the oracle's values."""
    return (isinstance(table, EvalTable)
            and table.modulus.p == poly.modulus.p
            and (table.n, table.d, table.D) == (poly.n, poly.d, poly.D)
            and len(table.values) == ebc_cum(poly.n, poly.D, poly.d)
            and all(table.values[slot] == value
                    for slot, value in expected.items()))


def table_file_ok(path: Path, poly, expected: dict) -> bool:
    try:
        table = eval_table_from_dict(load_json(path))
    except (OSError, ValueError, TypeError, ArithmeticError):
        return False
    return table_ok(table, poly, expected)


def round_trip_ok(path: Path, poly_path: Path) -> bool:
    """The interpolated polynomial file equals the generated input."""
    try:
        if path.read_bytes() == poly_path.read_bytes():
            return True
        return (sparse_poly_from_dict(load_json(path))
                == sparse_poly_from_dict(load_json(poly_path)))
    except (OSError, ValueError, KeyError, TypeError):
        return False
