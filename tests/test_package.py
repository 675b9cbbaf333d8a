import ast
import importlib
from pathlib import Path

import trimmedpoly


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trimmedpoly import *", namespace)
    missing = [name for name in trimmedpoly.__all__ if name not in namespace]
    assert not missing, missing


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
