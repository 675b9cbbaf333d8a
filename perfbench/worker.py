"""Child process for one timed library pass or one traced replay.

    python3 worker.py lib WORK eval|interp WARMUP REPEATS CHUNKS
    python3 worker.py trace WORK COUNT SPANS_OUT SUMMARY_OUT

``lib`` loads the (poly, grid) containers the parent pickled to
WORK/inputs.pkl (and, for interp, the tables in WORK/tables.pkl), makes
WARMUP untimed calls per instance, then times REPEATS passes of
``trimmed_eval`` or ``trimmed_interp`` over all of them. A pass runs in
CHUNKS slices of the instances, each between two calibrations (see
calibrate.py), so that the calibrations follow the host's speed through a
long pass; the slices add up to the pass. It prints {"seconds": [...],
"scaled": [...]}, raw and at the reference speed, one entry per pass, and
pickles the last pass's outputs to WORK/tables.pkl or WORK/polys.pkl.

``trace`` replays, per instance, the public calls that ``trimmedpoly eval``
and ``trimmedpoly interp`` make, each inside a span whose run id names the
instance and direction. It then re-times, as "shadow" spans, sub-steps that
those calls make internally (ranking, grid construction, factor building),
and the cold-call extra of the transforms. It writes the spans and a
summary of counts.
"""

from __future__ import annotations

import json
import pickle
import statistics
import sys
import time
from pathlib import Path

from calibrate import calibrate, scaled
from spans import Tracer
from trimmedpoly import (
    Grid,
    build_vandermonde,
    enumerate_trimmed,
    from_sparse,
    invert,
    lu_decompose,
    rank,
    to_sparse,
    trimmed_eval,
    trimmed_interp,
)
from trimmedpoly.jsonio import (
    eval_table_from_dict,
    eval_table_to_dict,
    grid_from_dict,
    sparse_poly_from_dict,
    sparse_poly_to_dict,
)
from workloads import dump_json, instance_dir

# Warm calls per first-of-shape instance: at least one, at most five,
# stopping once they add up to half a second.
WARM_CALLS = 5
WARM_BUDGET_S = 0.5


def run_lib(work: Path, direction: str, warmup: int, repeats: int,
            chunks: int) -> int:
    with open(work / "inputs.pkl", "rb") as handle:
        instances = pickle.load(handle)
    if direction == "eval":
        task, sources = trimmed_eval, [poly for poly, _ in instances]
    else:
        with open(work / "tables.pkl", "rb") as handle:
            task, sources = trimmed_interp, pickle.load(handle)
    items = [(source, grid) for source, (_, grid) in zip(sources, instances)]
    for _ in range(warmup):
        for source, grid in items:
            task(source, grid)
    step = -(-len(items) // chunks)
    raw, at_ref = [], []
    calibrate()  # warm the mix before the first timed sandwich
    before = calibrate()
    for _ in range(repeats):
        outputs, elapsed, elapsed_at_ref = [], 0.0, 0.0
        for begin in range(0, len(items), step):
            start = time.perf_counter()
            part = [task(source, grid) for source, grid in
                    items[begin:begin + step]]
            seconds = time.perf_counter() - start
            after = calibrate()
            outputs.extend(part)
            elapsed += seconds
            elapsed_at_ref += scaled(seconds, before, after)
            before = after
        raw.append(elapsed)
        at_ref.append(elapsed_at_ref)
    name = "tables.pkl" if direction == "eval" else "polys.pkl"
    with open(work / name, "wb") as handle:
        pickle.dump(outputs, handle)
    print(json.dumps({"seconds": raw, "scaled": at_ref}))
    return 0


def _read(tracer: Tracer, run: str, path: Path, summary: dict) -> dict:
    """json.load of one input file, as the CLI's _read_json does it."""
    with tracer.span("cli.json_load", run):
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: top-level JSON value must be an object")
    summary["bytes_in"] += path.stat().st_size
    return obj


def _write(tracer: Tracer, run: str, path: Path, obj: dict,
           summary: dict) -> None:
    """json.dump plus newline, as the CLI's _write_json does it."""
    with tracer.span("cli.json_dump", run):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2)
            handle.write("\n")
    summary["bytes_out"] += path.stat().st_size


def replay_eval(tracer: Tracer, index: int, path: Path, summary: dict):
    """The calls of cmd_eval with --poly and --grid, in its order."""
    run = f"{index}.eval"
    with tracer.span("cli.eval", run):
        doc = _read(tracer, run, path / "poly.json", summary)
        with tracer.span("jsonio.from_dict", run):
            sparse = sparse_poly_from_dict(doc)
        with tracer.span("poly.from_sparse", run):
            poly = from_sparse(sparse)
        doc = _read(tracer, run, path / "grid.json", summary)
        with tracer.span("jsonio.from_dict", run):
            grid = grid_from_dict(doc)
        with tracer.span("algo.eval", run) as transform:
            table = trimmed_eval(poly, grid)
        with tracer.span("jsonio.to_dict", run):
            doc = eval_table_to_dict(table)
        _write(tracer, run, path / "table.trace.json", doc, summary)
    summary["terms"] += len(sparse.terms)
    return sparse, poly, grid, transform


def replay_interp(tracer: Tracer, index: int, path: Path, summary: dict,
                  seen_shapes: set):
    """The calls of cmd_interp, in its order.

    The first ``enumerate_trimmed`` for a shape gets its own span before
    ``to_sparse``, which then finds the enumeration cached.
    """
    run = f"{index}.interp"
    with tracer.span("cli.interp", run):
        doc = _read(tracer, run, path / "table.trace.json", summary)
        with tracer.span("jsonio.from_dict", run):
            table = eval_table_from_dict(doc)
        doc = _read(tracer, run, path / "grid.json", summary)
        with tracer.span("jsonio.from_dict", run):
            grid = grid_from_dict(doc)
        with tracer.span("algo.interp", run) as transform:
            poly = trimmed_interp(table, grid)
        shape = (poly.n, poly.d, poly.D)
        if shape not in seen_shapes and poly.D >= 0:
            seen_shapes.add(shape)
            with tracer.span("combinat.enumerate_cold", run):
                enumerate_trimmed(*shape)
        with tracer.span("poly.to_sparse", run):
            sparse = to_sparse(poly)
        with tracer.span("jsonio.to_dict", run):
            doc = sparse_poly_to_dict(sparse)
        _write(tracer, run, path / "back.trace.json", doc, summary)
    summary["terms"] += len(sparse.terms)
    return table, transform


def eval_factor_calls(grid: Grid) -> None:
    """The factor building ``trimmed_eval`` does for a grid."""
    for row in grid.rows:
        lu_decompose(build_vandermonde(row, grid.modulus))


def interp_factor_calls(grid: Grid) -> None:
    """The factor building ``trimmed_interp`` does for a grid."""
    for row in grid.rows:
        factors = lu_decompose(build_vandermonde(row, grid.modulus))
        invert(factors.L)
        invert(factors.U)


def _warm_median(task, *args) -> float:
    times: list[float] = []
    while len(times) < WARM_CALLS and sum(times) < WARM_BUDGET_S:
        start = time.perf_counter()
        task(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_trace(work: Path, count: int, spans_out: Path,
              summary_out: Path) -> int:
    tracer = Tracer()
    summary = {"bytes_in": 0, "bytes_out": 0, "terms": 0, "cold_extra_s": 0.0}
    seen_shapes: set = set()
    firsts: dict = {}
    kept = []
    for index in range(count):
        path = instance_dir(work, index)
        sparse, poly, grid, eval_span = replay_eval(tracer, index, path,
                                                    summary)
        table, interp_span = replay_interp(tracer, index, path, summary,
                                           seen_shapes)
        kept.append((sparse, grid))
        firsts.setdefault((poly.n, poly.d, poly.D),
                          (poly, table, grid, eval_span, interp_span))
    for poly, table, grid, eval_span, interp_span in firsts.values():
        for span, task, source in ((eval_span, trimmed_eval, poly),
                                   (interp_span, trimmed_interp, table)):
            cold = span["end"] - span["start"]
            summary["cold_extra_s"] += cold - _warm_median(task, source, grid)
    for sparse, grid in kept:
        n, d, D = sparse.n, sparse.d, sparse.D
        with tracer.span("combinat.rank", "shadow"):
            for exps, _ in sparse.terms:
                rank(exps, n, d, D)
        with tracer.span("algo.grid", "shadow"):
            Grid(grid.modulus, grid.rows, d=grid.d)
        with tracer.span("linalg.factors", "shadow"):
            eval_factor_calls(grid)
            interp_factor_calls(grid)
    tracer.write(spans_out)
    dump_json(summary_out, summary)
    return 0


def main(argv: list[str]) -> int:
    mode, work = argv[0], Path(argv[1])
    if mode == "lib":
        return run_lib(work, argv[2], int(argv[3]), int(argv[4]),
                       int(argv[5]))
    if mode == "trace":
        return run_trace(work, int(argv[2]), Path(argv[3]), Path(argv[4]))
    sys.stderr.write(f"worker: unknown mode {mode!r}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
