"""Batch command-line front end.

Subcommands: eval, interp, roundtrip, bench, selftest. Exit codes:
0 success, 1 usage or validation failure, 2 property failure. Diagnostics
go to stderr, data to the requested files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain

from .algo import (
    EvalTable,
    Grid,
    _check_node_count,
    naive_trimmed_eval,
    trimmed_eval,
    trimmed_interp,
    yates_eval,
)
from .combinat import (CapacityError, _check_size, layout_size, quote,
                       quote_number)
from .field import PrimeModulus, run_counted
from .jsonio import (
    eval_table_from_dict,
    grid_from_dict,
    trimmed_poly_from_dict,
    write_eval_table,
    write_trimmed_poly,
)
from .poly import ValidationError, random_poly

BENCH_HEADER = "algo,n,d,D,p,N,wall_time_ns,mul,add,inv,mul_per_Nn"
# Cap on N^2 * n, the order of the quadratic oracle's field operations;
# it runs at about 0.5 us per unit, so the cap is about a minute.
ORACLE_LIMIT = 10**8
_BENCH_ALGOS = {
    "trimmed": trimmed_eval,
    "naive": naive_trimmed_eval,
    "yates": yates_eval,
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this artifact uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return obj


def _write_atomic(path: str, write) -> None:
    """Call ``write(handle)`` on a sibling temporary file, then move it onto
    ``path``. If anything fails, the temporary file is removed and an
    earlier file at ``path`` is left as it was."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _oracle_refusal(n: int, size: int) -> str | None:
    """Why the quadratic oracle is not run on N = ``size`` points in ``n``
    variables, or None if it fits the cap."""
    cost = size * size * n
    if cost > ORACLE_LIMIT:
        return (f"oracle cost N^2*n = {cost} exceeds the limit "
                f"{ORACLE_LIMIT}")
    return None


def cmd_eval(args) -> int:
    poly = trimmed_poly_from_dict(_read_json(args.poly))
    if args.grid is not None:
        grid = grid_from_dict(_read_json(args.grid))
    elif args.grid_gen == "seq":
        grid = Grid.sequential(poly.modulus, poly.n, poly.d)
    else:
        grid = Grid.random(poly.modulus, poly.n, poly.d, args.seed)
    table = trimmed_eval(poly, grid)
    _write_atomic(args.out, lambda handle: write_eval_table(table, handle))
    return 0


def cmd_interp(args) -> int:
    table = eval_table_from_dict(_read_json(args.evals))
    grid = grid_from_dict(_read_json(args.grid))
    poly = trimmed_interp(table, grid)
    _write_atomic(args.out, lambda handle: write_trimmed_poly(poly, handle))
    return 0


def cmd_roundtrip(args) -> int:
    modulus = PrimeModulus(args.prime)
    if args.D < 0 or args.trials < 0:
        raise ValidationError("need D >= 0 and trials >= 0")
    # shape rule, capacity guard, node rule and oracle budget before any
    # trial
    size = layout_size(args.n, args.d, args.D)
    _check_node_count(modulus, args.d)
    refusal = _oracle_refusal(args.n, size)
    if refusal:
        raise ValidationError(refusal)
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        poly = random_poly(args.n, args.d, args.D, modulus, trial_seed)
        grid = Grid.random(modulus, args.n, args.d, trial_seed)
        table = trimmed_eval(poly, grid)
        ok = naive_trimmed_eval(poly, grid) == table
        if ok:
            values = list(table.values)
            if args.corrupt and values:
                values[0] = (values[0] + 1) % modulus.p
                table = EvalTable(modulus, table.n, table.d, table.D, values)
            ok = trimmed_interp(table, grid) == poly
        if not ok:
            sys.stderr.write(
                f"trial {trial} failed: rerun with --seed {trial_seed} "
                f"--trials 1\n")
            return 2
        print(f"trial {trial}: ok")
    return 0


def _parse_range(text: str, key: str) -> list[range]:
    """The values of ``key`` as ranges, not yet expanded."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        lo_text, dots, hi_text = chunk.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            kind = "an integer range" if dots else "an integer"
            shown, limit = quote_number(chunk)
            raise ValidationError(
                f"{key}: {shown} is not {kind}{limit}") from None
        if hi < lo:
            raise ValidationError(f"{key}: empty range {quote(chunk)}")
        if lo < 1:
            raise ValidationError(f"{key}: values must be >= 1")
        values.append(range(lo, hi + 1))
    return values


def _count(ranges: list[range]) -> int:
    # not len(): it raises OverflowError on a range longer than sys.maxsize
    return sum(r.stop - r.start for r in ranges)


def parse_sweep(spec: str) -> list[tuple[int, int, int]]:
    """Instance list from a spec like ``n=2..8;d=1,2;D=nd/4,nd/2,nd``.

    Assignments are separated by ';'. n and d take single values, comma
    lists, or ``lo..hi`` ranges. D takes the tokens nd, nd/2, nd/4
    (fractions round up) or explicit integers. A sweep of more than
    ``combinat.SIZE_LIMIT`` instances, counted from the range bounds, is
    refused before it is expanded.
    """
    ns = ds = dtokens = None
    for assign in spec.split(";"):
        assign = assign.strip()
        if not assign:
            continue
        if "=" not in assign:
            raise ValidationError(
                f"sweep entry {quote(assign)} is not key=value")
        key, _, value = assign.partition("=")
        key = key.strip()
        if key == "n":
            ns = _parse_range(value, "n")
        elif key == "d":
            ds = _parse_range(value, "d")
        elif key == "D":
            dtokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        else:
            raise ValidationError(f"unknown sweep key {quote(key)}")
    if not ns or not ds or not dtokens:
        raise ValidationError("sweep must assign n, d and D")
    _check_size(_count(ns) * _count(ds) * len(dtokens), "sweep", "instances")
    instances = []
    for n in chain.from_iterable(ns):
        for d in chain.from_iterable(ds):
            budgets = []
            for tok in dtokens:
                if tok == "nd":
                    budgets.append(n * d)
                elif tok == "nd/2":
                    budgets.append(-(-n * d // 2))
                elif tok == "nd/4":
                    budgets.append(-(-n * d // 4))
                else:
                    try:
                        budgets.append(int(tok))
                    except ValueError:
                        shown, limit = quote_number(tok)
                        raise ValidationError(
                            f"D token {shown} is not nd, nd/2, nd/4 or an "
                            f"integer{limit}") from None
            seen = set()
            for D in budgets:
                if D < 0:
                    raise ValidationError(f"negative D = {quote(D)} in sweep")
                if D not in seen:
                    seen.add(D)
                    instances.append((n, d, D))
    return instances


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValidationError("empty algorithm list")
    for name in algos:
        if name not in _BENCH_ALGOS:
            raise ValidationError(
                f"unknown algorithm {quote(name)}; choose from "
                f"{sorted(_BENCH_ALGOS)}")
    instances = parse_sweep(args.sweep)
    modulus = PrimeModulus(args.prime)
    lines = [BENCH_HEADER]
    for n, d, D in instances:
        shape = f"n={quote(n)} d={quote(d)} D={quote(D)}"
        try:
            _check_node_count(modulus, d)
            size = layout_size(n, d, D)
        except (ValidationError, CapacityError) as exc:
            sys.stderr.write(f"skip {shape}: {exc}\n")
            continue
        poly = random_poly(n, d, D, modulus, args.seed + _instance_seed(n, d, D))
        grid = Grid.sequential(modulus, n, d)
        for name in algos:
            if name == "yates" and D != n * d:
                sys.stderr.write(f"skip yates for {shape}: needs D = n*d\n")
                continue
            refusal = _oracle_refusal(n, size) if name == "naive" else None
            if refusal:
                sys.stderr.write(f"skip naive for {shape}: {refusal}\n")
                continue
            # time a plain run; the counts come from a separate one
            start = time.perf_counter_ns()
            _BENCH_ALGOS[name](poly, grid)
            elapsed = time.perf_counter_ns() - start
            _, counter = run_counted(_BENCH_ALGOS[name], poly, grid)
            ratio = counter.mul_count / (size * n)
            lines.append(
                f"{name},{n},{d},{D},{modulus.p},{size},{elapsed},"
                f"{counter.mul_count},{counter.add_count},"
                f"{counter.inv_count},{ratio:.6f}")
    text = "\n".join(lines) + "\n"
    _write_atomic(args.out, lambda handle: handle.write(text))
    return 0


def _instance_seed(n: int, d: int, D: int) -> int:
    """Stable per-instance seed offset so sweeps are reproducible."""
    return ((n * 131 + d) * 131 + D) * 131


def cmd_selftest(args) -> int:
    from .checks import SUITES  # not at module level: keeps CLI start-up lean

    results = {}
    errors = []
    for name, check in SUITES:
        try:
            check()
            results[name] = True
        except Exception as exc:
            results[name] = False
            errors.append(f"suite {name}: {type(exc).__name__}: {exc}\n")
    if args.json:
        print(json.dumps(results))
    else:
        for name, ok in results.items():
            print(f"suite {name}: {'pass' if ok else 'FAIL'}")
    if errors:
        sys.stderr.writelines(errors)
        return 2
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="trimmedpoly",
                     description="Trimmed-grid polynomial evaluation and "
                                 "interpolation over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial on a grid")
    p_eval.add_argument("--poly", required=True, help="polynomial JSON file")
    grid_src = p_eval.add_mutually_exclusive_group(required=True)
    grid_src.add_argument("--grid", help="grid JSON file")
    grid_src.add_argument("--grid-gen", choices=("seq", "rand"),
                          help="generate the grid instead of loading one")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="seed for --grid-gen rand")
    p_eval.add_argument("--out", required=True, help="output table JSON file")
    p_eval.set_defaults(func=cmd_eval)

    p_interp = sub.add_parser("interp",
                              help="interpolate a polynomial from a table")
    p_interp.add_argument("--evals", required=True,
                          help="evaluation table JSON file")
    p_interp.add_argument("--grid", required=True, help="grid JSON file")
    p_interp.add_argument("--out", required=True,
                          help="output polynomial JSON file")
    p_interp.set_defaults(func=cmd_interp)

    p_round = sub.add_parser("roundtrip",
                             help="random eval/interp consistency trials")
    p_round.add_argument("--n", type=int, required=True)
    p_round.add_argument("--d", type=int, required=True)
    p_round.add_argument("--D", type=int, required=True)
    p_round.add_argument("--prime", type=int, required=True)
    p_round.add_argument("--seed", type=int, default=0)
    p_round.add_argument("--trials", type=int, required=True)
    p_round.add_argument("--corrupt", action="store_true",
                         help="harness self-test: corrupt each table and "
                              "expect failure")
    p_round.set_defaults(func=cmd_roundtrip)

    p_bench = sub.add_parser("bench", help="operation-count scaling sweep")
    p_bench.add_argument("--sweep", required=True,
                         help="e.g. 'n=2..8;d=1,2;D=nd/4,nd/2,nd'")
    p_bench.add_argument("--algos", required=True,
                         help="comma list from: trimmed,naive,yates")
    p_bench.add_argument("--prime", type=int, default=65537)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="output CSV file")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="run embedded invariant suites")
    p_self.add_argument("--json", action="store_true",
                        help="machine-readable pass/fail map")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    # user errors; ValidationError and JSON and UTF-8 decode errors are
    # ValueErrors
    except (ValueError, CapacityError, OSError) as exc:
        return _fail(str(exc))
    except RecursionError:
        return _fail("input nests too deeply")


if __name__ == "__main__":
    sys.exit(main())
