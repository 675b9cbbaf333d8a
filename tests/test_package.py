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
