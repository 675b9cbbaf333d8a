import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import trimmedpoly


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
    # does not load the selftest suites and the elimination they run.
    probe = ("import sys, trimmedpoly.cli; "
             "print('trimmedpoly.checks' in sys.modules)")
    src = str(Path(trimmedpoly.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


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


def test_transform_runs_no_elimination():
    # algo builds its factors in closed form; the elimination in linalg is
    # the reference that tests and selftest compare them with. The file is
    # only parsed.
    reference = {"lu_decompose", "invert", "build_vandermonde"}
    path = Path(trimmedpoly.__file__).resolve().parent / "algo.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            hit = node.name.split(".")[-1] in reference
        elif isinstance(node, ast.Name):
            hit = node.id in reference
        elif isinstance(node, ast.Attribute):
            hit = node.attr in reference
        else:
            continue
        if hit:
            offenders.append(node.lineno)
    assert not offenders, offenders


def test_code_is_compiled_only_by_the_stage_kernel():
    # algo._kernel builds its comprehension from an integer alone; no
    # other code in the package may run eval, exec or compile. The files
    # are only parsed.
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
