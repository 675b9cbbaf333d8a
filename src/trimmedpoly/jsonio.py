"""JSON wire formats for polynomials, grids, and evaluation tables.

The modulus and every field element are decimal strings (JSON numbers
lose exactness past 53 bits); structural integers (n, d, D, exponents)
stay numeric. One ``p`` key per document.

``write_sparse_poly`` and ``write_eval_table`` stream the bytes that
``json.dump(<kind>_to_dict(obj), handle, indent=2)`` plus a newline would
write, one list element per chunk, without building the dict or the
whole text.
"""

from __future__ import annotations

from .algo import EvalTable, Grid
from .field import PrimeModulus
from .poly import SparsePoly, ValidationError


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
            raise ValidationError(f"{what} is not a decimal string: "
                                  f"{value!r}") from exc
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


def _canonical_terms(sparse: SparsePoly) -> list:
    """Terms in canonical order: lexicographic on the reversed exponents."""
    return sorted(sparse.terms, key=lambda t: t[0][::-1])


def sparse_poly_to_dict(sparse: SparsePoly) -> dict:
    return {
        "p": str(sparse.modulus.p),
        "n": sparse.n,
        "d": sparse.d,
        "D": sparse.D,
        "terms": [{"exp": list(e), "coeff": str(c)}
                  for e, c in _canonical_terms(sparse)],
    }


def write_sparse_poly(sparse: SparsePoly, handle) -> None:
    """Write the ``sparse_poly_to_dict`` document to a text handle."""
    head = (("p", f'"{sparse.modulus.p}"'), ("n", sparse.n),
            ("d", sparse.d), ("D", sparse.D))
    exp = ("[\n        " + ",\n        ".join(["%d"] * sparse.n)
           + "\n      ]" if sparse.n else "[]")
    term = '{\n      "exp": ' + exp + ',\n      "coeff": "%d"\n    }'
    _write_document(handle, head, "terms",
                    (term % (*e, c) for e, c in _canonical_terms(sparse)))


def sparse_poly_from_dict(obj: dict) -> SparsePoly:
    what = "polynomial document"
    modulus = _parse_modulus(obj, what)
    n = _get(obj, "n", int, what)
    d = _get(obj, "d", int, what)
    D = _get(obj, "D", int, what)
    raw_terms = _get(obj, "terms", list, what)
    terms = []
    for i, term in enumerate(raw_terms):
        # Fast path for the usual {"exp": [...], "coeff": "<decimal>"};
        # whatever it does not accept goes through _parse_term's checks.
        try:
            exp, coeff = term["exp"], int(term["coeff"], 10)
        except (TypeError, KeyError, ValueError):
            exp = None
        if type(exp) is not list:
            exp, coeff = _parse_term(i, term)
        terms.append((tuple(exp), coeff))
    return SparsePoly(modulus, n, d, D, terms)


def _parse_term(i: int, term) -> tuple[list, int]:
    if not isinstance(term, dict):
        raise ValidationError(f"term {i} is not an object")
    exp = _get(term, "exp", list, f"term {i}")
    coeff = _parse_scalar(_get(term, "coeff", (str, int), f"term {i}"),
                          f"term {i} coefficient")
    return exp, coeff


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
            f"grid document declares n={n} but has {len(raw_rows)} node rows")
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
    what = "evaluation table document"
    modulus = _parse_modulus(obj, what)
    n = _get(obj, "n", int, what)
    d = _get(obj, "d", int, what)
    D = _get(obj, "D", int, what)
    raw_values = _get(obj, "values", list, what)
    values = [_parse_scalar(v, "table value") for v in raw_values]
    return EvalTable(modulus, n, d, D, values)
