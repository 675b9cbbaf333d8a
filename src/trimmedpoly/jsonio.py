"""JSON wire formats for polynomials, grids, and evaluation tables.

The modulus and every field element are decimal strings (JSON numbers
lose exactness past 53 bits); structural integers (n, d, D, exponents)
stay numeric. One ``p`` key per document.

``write_trimmed_poly`` and ``write_eval_table`` stream the bytes that
``json.dump(doc, handle, indent=2)`` plus a newline would write, for doc
``sparse_poly_to_dict(to_sparse(poly))`` or ``eval_table_to_dict(table)``,
one list element per chunk, without building the dict or the whole text.

Encoding. ``write_trimmed_poly`` writes a term for each nonzero
coefficient, straight from the dense vector: it pairs the coefficients
with their slots' vectors from ``combinat.layout_vectors``, the bytes of
the layout codes, and byte i is exponent i, so each exponent list is a
code's bytes looked up in a table of digit strings. No exponent tuple is
built per slot.

Decoding. ``trimmed_poly_from_dict`` takes a parsed polynomial document
straight to its dense ``TrimmedPoly``, as
``from_sparse(sparse_poly_from_dict(obj))`` would, in bulk: it reads the
exponent lists and the coefficients with ``map``, checks the types of the
terms, of the exponent lists and of every exponent, and the lengths, each
as one ``set(map(...))``, and fills the dense vector with
``combinat.layout_fill``, in one pass over the layout's codes. That gives
None for a duplicated vector or one outside the layout, with an exponent
above d or a sum above D. ``eval_table_from_dict`` parses its values with one
``map(int, ...)`` and leaves the range check to ``EvalTable``, which
checks all of them at once.

A bulk decode raises no error of its own. Whatever a bulk check rejects,
and whatever makes a bulk step raise, goes through the per-entry decode
(``sparse_poly_from_dict`` and ``from_sparse``, or ``_parse_scalar`` and
``modulus.residue`` per table value), which names the first bad entry.
So every message, and the order in which errors are found (term errors
before shape and capacity errors), is that decode's.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from .algo import EvalTable, Grid
from .combinat import (clamp_budget, layout_fill, layout_size, layout_vectors,
                       quote, quote_number)
from .field import PrimeModulus
from .poly import SparsePoly, TrimmedPoly, ValidationError, from_sparse

# What the bulk polynomial decode can raise on a malformed document
_DECODE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
# The text of each exponent a layout code's byte can hold; a dict, as
# dict.__getitem__ is the fastest lookup to map over a code's bytes
_DIGITS = {e: str(e) for e in range(256)}


def _get(obj: dict, key: str, kinds, what: str):
    if key not in obj:
        raise ValidationError(f"{what} is missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValidationError(
            f"{what} key {key!r} has type {type(value).__name__}")
    return value


def _parse_scalar(value, what: str) -> int:
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            shown, limit = quote_number(value)
            raise ValidationError(f"{what} is not a decimal string{limit}: "
                                  f"{shown}") from exc
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{what} must be a decimal string, got "
                          f"{type(value).__name__}")


def _parse_modulus(obj: dict, what: str) -> PrimeModulus:
    p = _parse_scalar(_get(obj, "p", (str, int), what), f"{what} key 'p'")
    try:
        return PrimeModulus(p)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _write_document(handle, head, key: str, items) -> None:
    """Stream ``{**head, key: [*items]}`` in json.dump's indent=2 layout,
    plus a newline. ``head`` holds (key, encoded JSON scalar) pairs and
    ``items`` yields each list element encoded at indent level 2."""
    def chunks():
        yield "{\n" + "".join(f'  "{k}": {v},\n' for k, v in head) \
            + f'  "{key}": ['
        sep = "\n    "
        for item in items:
            yield sep + item
            sep = ",\n    "
        yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"

    handle.writelines(chunks())


def sparse_poly_to_dict(sparse: SparsePoly) -> dict:
    return {
        "p": str(sparse.modulus.p),
        "n": sparse.n,
        "d": sparse.d,
        "D": sparse.D,
        # canonical order: lexicographic on the reversed exponents
        "terms": [{"exp": list(e), "coeff": str(c)}
                  for e, c in sorted(sparse.terms, key=lambda t: t[0][::-1])],
    }


def write_trimmed_poly(poly: TrimmedPoly, handle) -> None:
    """Write the ``sparse_poly_to_dict(to_sparse(poly))`` document to a
    text handle, straight from the dense coefficients: the exponents of
    each nonzero slot are the bytes of its layout code."""
    n, d, D, coeffs = poly.n, poly.d, poly.D, poly.coeffs
    head = (("p", f'"{poly.modulus.p}"'), ("n", n), ("d", d), ("D", D))
    sep = ",\n        "
    start, end = ("[\n        ", "\n      ]") if n else ("[", "]")
    _write_document(handle, head, "terms", (
        f'{{\n      "exp": {start}{sep.join(map(_DIGITS.__getitem__, e))}'
        f'{end},\n      "coeff": "{c}"\n    }}'
        for e, c in zip(layout_vectors(n, d, D, coeffs),
                        filter(None, coeffs))))


def _header(obj: dict, what: str, key: str) -> tuple:
    """The modulus, n, d, D and ``key`` list of a polynomial or table
    document, read in that order."""
    return (_parse_modulus(obj, what), _get(obj, "n", int, what),
            _get(obj, "d", int, what), _get(obj, "D", int, what),
            _get(obj, key, list, what))


def sparse_poly_from_dict(obj: dict) -> SparsePoly:
    modulus, n, d, D, raw_terms = _header(obj, "polynomial document", "terms")
    terms = []
    for i, term in enumerate(raw_terms):
        if not isinstance(term, dict):
            raise ValidationError(f"term {i} is not an object")
        exp = _get(term, "exp", list, f"term {i}")
        coeff = _parse_scalar(_get(term, "coeff", (str, int), f"term {i}"),
                              f"term {i} coefficient")
        terms.append((tuple(exp), coeff))
    return SparsePoly(modulus, n, d, D, terms)


def trimmed_poly_from_dict(obj: dict) -> TrimmedPoly:
    """``from_sparse(sparse_poly_from_dict(obj))``, decoded in bulk: no
    exponent tuple, ``SparsePoly`` or per-term rank is built. A document
    that a bulk check rejects, or whose bulk decode raises, goes through
    ``from_sparse(sparse_poly_from_dict(obj))``, so every error is that
    path's error."""
    try:
        poly = _bulk_poly(obj)
    except _DECODE_ERRORS:
        poly = None
    return from_sparse(sparse_poly_from_dict(obj)) if poly is None else poly


def _bulk_poly(obj: dict) -> TrimmedPoly | None:
    modulus, n, d, D, terms = _header(obj, "polynomial document", "terms")
    D = clamp_budget(n, d, D)
    layout_size(n, d, D)
    exps = list(map(itemgetter("exp"), terms))
    coeffs = list(map(int, map(itemgetter("coeff"), terms), repeat(10)))
    if not (set(map(type, terms)) <= {dict}
            and set(map(type, exps)) <= {list}
            and set(map(len, exps)) <= {n}
            and set(map(type, chain.from_iterable(exps))) <= {int}):
        return None
    coeffs = layout_fill(n, d, D, exps, coeffs)
    p = modulus.p
    return None if coeffs is None else TrimmedPoly._trusted(
        modulus, n, d, D, [c % p for c in coeffs])


def grid_to_dict(grid: Grid) -> dict:
    return {
        "p": str(grid.modulus.p),
        "n": grid.n,
        "d": grid.d,
        "nodes": [[str(z) for z in row] for row in grid.rows],
    }


def grid_from_dict(obj: dict) -> Grid:
    what = "grid document"
    modulus = _parse_modulus(obj, what)
    n = _get(obj, "n", int, what)
    d = _get(obj, "d", int, what)
    raw_rows = _get(obj, "nodes", list, what)
    if len(raw_rows) != n:
        raise ValidationError(
            f"grid document declares n={quote(n)} but has {len(raw_rows)} "
            "node rows")
    rows = []
    for i, row in enumerate(raw_rows):
        if not isinstance(row, list):
            raise ValidationError(f"node row {i + 1} is not an array")
        rows.append([_parse_scalar(z, f"node row {i + 1} entry") for z in row])
    return Grid(modulus, rows, d=d)


def eval_table_to_dict(table: EvalTable) -> dict:
    return {
        "p": str(table.modulus.p),
        "n": table.n,
        "d": table.d,
        "D": table.D,
        "values": [str(v) for v in table.values],
    }


def write_eval_table(table: EvalTable, handle) -> None:
    """Write the ``eval_table_to_dict`` document to a text handle."""
    head = (("p", f'"{table.modulus.p}"'), ("n", table.n), ("d", table.d),
            ("D", table.D))
    _write_document(handle, head, "values",
                    (f'"{v}"' for v in table.values))


def eval_table_from_dict(obj: dict) -> EvalTable:
    modulus, n, d, D, raw_values = _header(
        obj, "evaluation table document", "values")
    try:
        values = list(map(int, raw_values, repeat(10)))
    except (TypeError, ValueError):
        values = [_parse_scalar(v, "table value") for v in raw_values]
    return EvalTable(modulus, n, d, D, values)
