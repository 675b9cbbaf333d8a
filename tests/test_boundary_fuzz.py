"""Seeded boundary fuzz: mutated polynomial, grid and table documents go
through ``cli.main`` in process, and each gives the exit code, stderr text
and output bytes pinned in ``data/boundary_fuzz.json``.

The documents come from a fixed ``random.Random`` seed, so the generator
below is frozen together with the fixture. The fixture holds, per
document, ``[exit code, stderr, sha256 prefix of the output file or
null]``, with the scratch directory written as ``<dir>`` and a stderr text
over 160 characters cut to its head and a digest. It was written
by running this file as a script on a tree whose messages are the
reference:

    PYTHONPATH=src python tests/test_boundary_fuzz.py
"""

import contextlib
import copy
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from trimmedpoly.cli import main

FIXTURE = Path(__file__).parent / "data" / "boundary_fuzz.json"
SEED = 20_261_019
P62 = 2**62 - 57


def _poly_doc(rng, p, n, d, D, fill):
    """A polynomial document with about ``fill`` of its admissible terms,
    in a random order."""
    terms = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            if rng.random() < fill:
                terms.append({"exp": list(prefix),
                              "coeff": str(rng.randrange(p))})
            continue
        for e in range(d + 1):
            if sum(prefix) + e <= D:
                stack.append(prefix + (e,))
    rng.shuffle(terms)
    return {"p": str(p), "n": n, "d": d, "D": D, "terms": terms}


def _grid_doc(rng, p, n, d):
    return {"p": str(p), "n": n, "d": d,
            "nodes": [[str(z) for z in rng.sample(range(p), d + 1)]
                      for _ in range(n)]}


def _table_doc(rng, p, n, d, D, size):
    return {"p": str(p), "n": n, "d": d, "D": D,
            "values": [str(rng.randrange(p)) for _ in range(size)]}


# (p, n, d, D, N) of each base shape
SHAPES = [
    (5, 2, 1, 1, 3),
    (65537, 3, 2, 4, 23),
    (2, 3, 1, 2, 7),
    (P62, 2, 2, 3, 8),
    (7, 0, 1, 2, 1),
    (65537, 2, 1, -1, 0),
    (65537, 1, 100, 100, 101),
    (65537, 4, 2, 3, 35),
]

ODD_VALUES = [True, False, None, 1.0, -1, 256, "1", "x", [], {}, 2**70]
ODD_SCALARS = ["-3", " 7", "1_0", "+4", "x", "", "1e3", "0x10", 3, -3, 1.5,
               True, None, [], "9" * 5000]


def _header_mutation(rng, doc, keys):
    doc = dict(doc)
    key = rng.choice(keys)
    kind = rng.randrange(4)
    if kind == 0:
        del doc[key]
    elif kind == 1:
        doc[key] = rng.choice(ODD_VALUES)
    elif kind == 2 and key == "p":
        doc[key] = rng.choice(["6", "five", "1", "-7", str(2**62 + 1), 5,
                               "65537", "2"])
    elif key in ("n", "d", "D"):
        doc[key] = doc[key] + rng.choice([-2, -1, 1, 3, 1000])
    else:
        doc[key] = rng.choice(ODD_VALUES)
    return doc


def _term_mutation(rng, doc):
    doc = copy.deepcopy(doc)
    terms = doc["terms"]
    if not terms:
        terms.append({"exp": [0] * doc["n"], "coeff": "1"})
        return doc
    i = rng.randrange(len(terms))
    term = terms[i]
    kind = rng.randrange(10)
    if kind == 0:
        terms[i] = rng.choice([[0, 1], "term", None, 7, True])
    elif kind == 1:
        del term[rng.choice(["exp", "coeff"])]
    elif kind == 2:
        term["exp"] = rng.choice(ODD_VALUES + [tuple()])
    elif kind == 3 and term["exp"]:
        j = rng.randrange(len(term["exp"]))
        term["exp"][j] = rng.choice([True, False, 1.0, -1, 256, doc["d"] + 1,
                                     "1", None, doc["d"]])
    elif kind == 4:
        if term["exp"] and rng.random() < 0.5:
            term["exp"].pop()
        else:
            term["exp"].append(0)
    elif kind == 5:
        twin = copy.deepcopy(term)
        twin["coeff"] = rng.choice([twin["coeff"], "0", "1"])
        terms.insert(rng.randrange(len(terms) + 1), twin)
    elif kind == 6:
        term["coeff"] = rng.choice(ODD_SCALARS)
    elif kind == 7:
        term["extra"] = rng.choice(ODD_VALUES)
    elif kind == 8 and term["exp"]:
        term["exp"] = [doc["d"]] * len(term["exp"])
    else:
        rng.shuffle(terms)
        term["coeff"] = str(int(term["coeff"]) + rng.choice([0, 1]) * P62)
    return doc


def _list_mutation(rng, doc, key):
    doc = copy.deepcopy(doc)
    items = doc[key]
    kind = rng.randrange(5)
    if kind == 0 and items:
        items.pop(rng.randrange(len(items)))
    elif kind == 1:
        items.append(copy.deepcopy(items[-1]) if items else "0")
    elif kind == 2 and items:
        i = rng.randrange(len(items))
        if key == "nodes":
            row = items[i]
            if row and rng.random() < 0.7:
                row[rng.randrange(len(row))] = rng.choice(
                    ODD_SCALARS + [row[0], "-1", doc["p"]])
            else:
                items[i] = rng.choice(ODD_VALUES)
        else:
            items[i] = rng.choice(ODD_SCALARS + [doc["p"], "-1"])
    elif kind == 3:
        doc[key] = rng.choice(ODD_VALUES)
    else:
        rng.shuffle(items)
    return doc


def documents():
    """(kind, document text, shape index) for every fuzz case."""
    rng = random.Random(SEED)
    cases = []
    for s, (p, n, d, D, size) in enumerate(SHAPES):
        poly = _poly_doc(rng, p, n, d, D, rng.choice([0.3, 1.0]))
        grid = _grid_doc(rng, p, n, d)
        table = _table_doc(rng, p, n, d, D, size)
        cases.append(("poly", poly, s))
        cases.append(("grid", grid, s))
        cases.append(("table", table, s))
        for _ in range(14):
            cases.append(("poly", _term_mutation(rng, poly), s))
        for _ in range(6):
            cases.append(("poly", _header_mutation(
                rng, poly, ["p", "n", "d", "D", "terms"]), s))
        for _ in range(7):
            mutated = _list_mutation(rng, grid, "nodes") \
                if rng.random() < 0.7 else _header_mutation(
                    rng, grid, ["p", "n", "d", "nodes"])
            cases.append(("grid", mutated, s))
        for _ in range(8):
            mutated = _list_mutation(rng, table, "values") \
                if rng.random() < 0.7 else _header_mutation(
                    rng, table, ["p", "n", "d", "D", "values"])
            cases.append(("table", mutated, s))
    texts = []
    for kind, doc, s in cases:
        text = json.dumps(doc)
        if rng.random() < 0.04:
            text = text[:rng.randrange(len(text))]
        texts.append((kind, text, s))
    return texts


def _valid_inputs(directory: Path):
    """A valid polynomial and grid file per base shape, seeded apart from
    the fuzz cases."""
    rng = random.Random(SEED + 1)
    out = []
    for s, (p, n, d, D, _) in enumerate(SHAPES):
        poly = directory / f"poly{s}.json"
        grid = directory / f"grid{s}.json"
        poly.write_text(json.dumps(_poly_doc(rng, p, n, d, D, 0.5)))
        grid.write_text(json.dumps(_grid_doc(rng, p, n, d)))
        out.append((str(poly), str(grid)))
    return out


def outcomes(directory: Path) -> list:
    """Run every fuzz case through ``cli.main``; one record per case."""
    inputs = _valid_inputs(directory)
    doc = directory / "doc.json"
    out = directory / "out.json"
    records = []
    for kind, text, s in documents():
        doc.write_text(text, encoding="utf-8")
        poly, grid = inputs[s]
        if kind == "poly":
            argv = ["eval", "--poly", str(doc), "--grid-gen", "seq"]
        elif kind == "grid":
            argv = ["eval", "--poly", poly, "--grid", str(doc)]
        else:
            argv = ["interp", "--evals", str(doc), "--grid", grid]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        digest = None
        if out.exists():
            digest = _digest(out.read_bytes())
            out.unlink()
        records.append([code, _compact(err.getvalue().replace(
            str(directory), "<dir>")), digest])
    return records


def _compact(text: str) -> str:
    """``text``, or its head, a digest of the whole and its line end if it
    is long."""
    if len(text) <= 160:
        return text
    end = "\n" if text.endswith("\n") else ""
    return f"{text[:120]}... sha256:{_digest(text.encode())}{end}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_boundary_fuzz_matches_fixture(tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = outcomes(tmp_path)
    assert len(got) == len(expected) >= 300
    for i, (want, have) in enumerate(zip(expected, got)):
        assert have == want, (i, documents()[i])
    # every failure is one stderr line and leaves no output file; every
    # success is silent
    for code, err, digest in got:
        assert (code, digest is None) in ((0, False), (1, True))
        assert err.count("\n") == (code == 1)
        assert err.startswith("error: ") == (code == 1)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        records = outcomes(Path(scratch))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records)
                       + "\n]\n", encoding="utf-8")
    sys.stdout.write(f"{len(records)} records written to {FIXTURE}\n")
