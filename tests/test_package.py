import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import trimmedpoly
from trimmedpoly import Grid, PrimeModulus, cli
from trimmedpoly.linalg import (build_vandermonde, lu_decompose,
                                vandermonde_factors)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trimmedpoly import *", namespace)
    missing = [name for name in trimmedpoly.__all__ if name not in namespace]
    assert not missing, missing


def test_elimination_types_are_not_exported():
    # The elimination in linalg is a reference for the closed-form
    # factors, not API: its matrix and error types stay in linalg.
    reference = {"SquareMatrix", "LUFactors", "ZeroPivotError",
                 "SingularMatrixError"}
    assert not reference & set(trimmedpoly.__all__)
    assert not [name for name in reference if hasattr(trimmedpoly, name)]
    linalg = importlib.import_module("trimmedpoly.linalg")
    assert all(hasattr(linalg, name) for name in reference)


def test_cli_import_leaves_checks_unloaded():
    # cmd_selftest imports trimmedpoly.checks lazily, so that CLI start-up
    # does not load the selftest suites.
    probe = ("import sys, trimmedpoly.cli; "
             "print('trimmedpoly.checks' in sys.modules)")
    src = str(Path(trimmedpoly.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_readme_quick_start_runs():
    # README's python block, run as written in a fresh interpreter: its
    # asserts hold, and it prints the three counts.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    src = str(Path(trimmedpoly.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", blocks[0]],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert re.fullmatch(r"\d+ \d+ \d+\n", out.stdout), out.stdout


def test_readme_cli_examples_parse():
    # Every trimmedpoly command in README's sh blocks, its backslash
    # continuations joined, parses with the CLI's own parser, so the
    # examples cannot drift from the options.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```$",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("trimmedpoly ")]
    assert len(commands) >= 8, commands
    parser = cli._build_parser()
    failed = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            failed.append(argv)
    assert not failed, failed


def test_perfbench_imports_resolve():
    # perfbench/ imports these names from the package; losing or renaming
    # one makes every benchmark run fail. The files are only parsed.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    imported = set()
    for path in perfbench.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "trimmedpoly"):
                imported.update((node.module, alias.name)
                                for alias in node.names)
    assert {module for module, _ in imported} == {"trimmedpoly",
                                                  "trimmedpoly.jsonio"}
    missing = [(module, name) for module, name in sorted(imported)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


def test_perfbench_trace_factor_calls_run():
    # The trace's factor calls are the only callers of the elimination
    # outside the tests, and the gated benchmark runs skip the trace, so
    # run them here, on the same rows as the closed forms
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    names = ("worker", "calibrate", "spans", "workloads")
    sys.path.insert(0, str(perfbench))
    try:
        worker = importlib.import_module("worker")
        mod = PrimeModulus(65537)
        grid = Grid.random(mod, 3, 3, seed=28)
        worker.eval_factor_calls(grid)
        worker.interp_factor_calls(grid)
    finally:
        sys.path.remove(str(perfbench))
        for name in names:
            sys.modules.pop(name, None)
    for row in grid.rows:
        lower = vandermonde_factors(row, mod.p, False)[0]
        assert lu_decompose(build_vandermonde(row, mod)).L.rows == lower


def test_only_field_records_operations():
    # field.tally is the one way to record field operations: no other
    # module names active_counter or stores to a count. The files are only
    # parsed; cli.py may still read the counts.
    counts = {"mul_count", "add_count", "inv_count"}
    package = Path(trimmedpoly.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                hit = node.name == "active_counter"
            elif isinstance(node, ast.Name):
                hit = node.id == "active_counter"
            elif isinstance(node, ast.Attribute):
                hit = (node.attr == "active_counter"
                       or (node.attr in counts
                           and isinstance(node.ctx, ast.Store)))
            else:
                continue
            if hit:
                offenders.append((path.name, node.lineno))
    assert not offenders, offenders


def _modules_naming(names, exempt):
    """(file, line) of each import, name or attribute that is one of
    ``names`` in the package's modules other than ``exempt``. The files
    are only parsed."""
    package = Path(trimmedpoly.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in exempt:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                hit = node.name.split(".")[-1] in names
            elif isinstance(node, ast.Name):
                hit = node.id in names
            elif isinstance(node, ast.Attribute):
                hit = node.attr in names
            else:
                continue
            if hit:
                offenders.append((path.name, node.lineno))
    return offenders


def test_transform_runs_no_elimination():
    # algo builds its factors in closed form, and selftest checks them by
    # the definition of the factorization; the elimination in linalg is a
    # reference for the tests and perfbench only, which reach it through
    # linalg and the package root.
    reference = {"lu_decompose", "invert", "build_vandermonde",
                 "SquareMatrix", "LUFactors", "ZeroPivotError",
                 "SingularMatrixError"}
    offenders = _modules_naming(reference, ("linalg.py", "__init__.py"))
    assert not offenders, offenders


def test_only_combinat_converts_vectors_and_byte_codes():
    # A vector's slot is its layout byte code, and combinat alone knows
    # that rule: its whole-layout maps, layout_vectors and layout_fill,
    # are the only conversions between vectors and codes.
    offenders = _modules_naming({"from_bytes", "to_bytes"}, ("combinat.py",))
    assert not offenders, offenders


def test_code_is_compiled_only_by_the_stage_kernel():
    # algo._kernel builds its comprehension from a checked sign pattern
    # over (0, 1) and a checked bool alone; no other code in the package
    # may run eval, exec or compile. The files are only parsed.
    compilers = {"eval", "exec", "compile"}
    package = Path(trimmedpoly.__file__).resolve().parent
    allowed, offenders = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernel = set()
        if path.name == "algo.py":
            kernel = {id(node) for top in tree.body
                      if isinstance(top, ast.FunctionDef)
                      and top.name == "_kernel" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                hit = node.id in compilers
            elif isinstance(node, ast.Attribute):
                hit = (node.attr in compilers
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "builtins")
            else:
                continue
            if hit:
                (allowed if id(node) in kernel else offenders).append(
                    (path.name, node.lineno))
    assert not offenders, offenders
    assert allowed, "algo._kernel compiles nothing"
