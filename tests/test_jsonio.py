import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimmedpoly import jsonio
from trimmedpoly.algo import EvalTable, Grid, trimmed_eval
from trimmedpoly.combinat import ebc_cum, enumerate_trimmed
from trimmedpoly.field import PrimeModulus
from trimmedpoly.jsonio import (
    eval_table_from_dict,
    eval_table_to_dict,
    grid_from_dict,
    grid_to_dict,
    sparse_poly_from_dict,
    sparse_poly_to_dict,
    trimmed_poly_from_dict,
    write_eval_table,
    write_trimmed_poly,
)
from trimmedpoly.poly import (
    SparsePoly,
    TrimmedPoly,
    ValidationError,
    from_sparse,
    random_poly,
    to_sparse,
)

MOD5 = PrimeModulus(5)
BIG_PRIME = 2**61 - 1  # Mersenne


def test_sparse_poly_round_trip():
    sparse = SparsePoly(MOD5, 2, 1, 1, [((0, 0), 2), ((1, 0), 3),
                                        ((0, 1), 4)])
    doc = sparse_poly_to_dict(sparse)
    assert doc["p"] == "5"
    assert doc["terms"][0] == {"exp": [0, 0], "coeff": "2"}
    back = sparse_poly_from_dict(doc)
    assert back == sparse


def test_sparse_poly_terms_rank_ordered():
    sparse = SparsePoly(MOD5, 2, 1, 1, [((0, 1), 4), ((0, 0), 2)])
    doc = sparse_poly_to_dict(sparse)
    assert [t["exp"] for t in doc["terms"]] == [[0, 0], [0, 1]]


def test_large_values_survive_as_strings():
    mod = PrimeModulus(BIG_PRIME)
    value = BIG_PRIME - 2
    sparse = SparsePoly(mod, 1, 2, 2, [((2,), value)])
    doc = sparse_poly_to_dict(sparse)
    assert doc["terms"][0]["coeff"] == str(value)
    assert sparse_poly_from_dict(doc).terms == (((2,), value),)


def test_grid_round_trip():
    grid = Grid(MOD5, [[0, 1, 2], [2, 3, 4]])
    doc = grid_to_dict(grid)
    assert doc["nodes"] == [["0", "1", "2"], ["2", "3", "4"]]
    assert grid_from_dict(doc) == grid


def test_eval_table_round_trip():
    table = EvalTable(MOD5, 2, 1, 1, [2, 0, 1])
    doc = eval_table_to_dict(table)
    assert doc["values"] == ["2", "0", "1"]
    assert eval_table_from_dict(doc) == table


def test_loader_validation_errors():
    good = sparse_poly_to_dict(SparsePoly(MOD5, 1, 1, 1, [((1,), 2)]))

    missing = dict(good)
    del missing["terms"]
    with pytest.raises(ValidationError):
        sparse_poly_from_dict(missing)

    bad_num = dict(good)
    bad_num["p"] = "five"
    with pytest.raises(ValidationError):
        sparse_poly_from_dict(bad_num)

    not_prime = dict(good)
    not_prime["p"] = "6"
    with pytest.raises(ValidationError):
        sparse_poly_from_dict(not_prime)

    bad_term = dict(good)
    bad_term["terms"] = [{"exp": [9], "coeff": "1"}]
    with pytest.raises(ValidationError):
        sparse_poly_from_dict(bad_term)

    with pytest.raises(ValidationError):
        grid_from_dict({"p": "5", "n": 2, "d": 1, "nodes": [["0", "1"]]})

    with pytest.raises(ValidationError):
        eval_table_from_dict({"p": "5", "n": 2, "d": 1, "D": 1,
                              "values": ["1", "2"]})


def test_int_values_accepted_on_load():
    doc = {"p": 5, "n": 1, "d": 1, "D": 1,
           "terms": [{"exp": [1], "coeff": 3}]}
    assert sparse_poly_from_dict(doc).terms == (((1,), 3),)


def _shuffled(sparse: SparsePoly) -> SparsePoly:
    terms = list(sparse.terms)
    random.Random(5).shuffle(terms)
    return SparsePoly(sparse.modulus, sparse.n, sparse.d, sparse.D, terms)


MOD_16 = PrimeModulus(65537)
RANDOM_POLY = random_poly(6, 3, 9, MOD_16, seed=11)
RANDOM_SPARSE = to_sparse(RANDOM_POLY)
RANDOM_TABLE = trimmed_eval(RANDOM_POLY, Grid.random(MOD_16, 6, 3, 12))
P2, P62 = PrimeModulus(2), PrimeModulus(2**62 - 57)
SPARSE_CASES = {
    "n=0": SparsePoly(MOD5, 0, 1, 3, [((), 4)]),
    "no terms": SparsePoly(MOD5, 2, 1, 1, []),
    "D<0": SparsePoly(MOD5, 2, 1, -3, []),
    "p=2": SparsePoly(P2, 3, 1, 2, [((1, 1, 0), 1), ((0, 0, 1), 1)]),
    "p=2^62-57": SparsePoly(P62, 2, 2, 3, [((2, 1), P62.p - 1),
                                           ((0, 0), 2**61)]),
    "out of order": SparsePoly(MOD5, 2, 1, 1, [((0, 1), 4), ((1, 0), 3),
                                               ((0, 0), 2)]),
    "random (6,3,9)": RANDOM_SPARSE,
    "random (6,3,9) shuffled": _shuffled(RANDOM_SPARSE),
}
TABLE_CASES = {
    "n=0": EvalTable(MOD5, 0, 1, 0, [3]),
    "D<0": EvalTable(MOD5, 2, 1, -1, []),
    "p=2": EvalTable(P2, 2, 1, 1, [1, 0, 1]),
    "p=2^62-57": EvalTable(P62, 1, 2, 2, [0, P62.p - 1, 2**61]),
    "random (6,3,9)": RANDOM_TABLE,
}


def _written(writer, obj) -> str:
    handle = io.StringIO()
    writer(obj, handle)
    return handle.getvalue()


def _dumped(doc: dict) -> str:
    handle = io.StringIO()
    json.dump(doc, handle, indent=2)
    return handle.getvalue() + "\n"


@pytest.mark.parametrize("name", SPARSE_CASES)
def test_write_sparse_poly_matches_json_dump(name):
    sparse = SPARSE_CASES[name]
    assert _written(write_trimmed_poly, from_sparse(sparse)) == \
        _dumped(sparse_poly_to_dict(sparse))


@pytest.mark.parametrize("name", TABLE_CASES)
def test_write_eval_table_matches_json_dump(name):
    table = TABLE_CASES[name]
    assert _written(write_eval_table, table) == \
        _dumped(eval_table_to_dict(table))


def test_writers_stream_one_element_per_chunk():
    class Recorder:
        def writelines(self, chunks):
            self.sizes = [len(chunk) for chunk in chunks]

    for writer, obj, count in (
            (write_trimmed_poly, RANDOM_POLY, len(RANDOM_SPARSE.terms)),
            (write_eval_table, RANDOM_TABLE, len(RANDOM_TABLE.values))):
        handle = Recorder()
        writer(obj, handle)
        # one list element per chunk, never the whole document at once
        assert len(handle.sizes) == count + 2
        assert max(handle.sizes) < 200


def _dumped_poly(poly: TrimmedPoly) -> str:
    return _dumped(sparse_poly_to_dict(to_sparse(poly)))


@st.composite
def dense_polys(draw):
    """Polynomials of small shapes, with 1- to 3-digit exponents and
    coefficients from all zero to dense."""
    p = draw(st.sampled_from([2, 65537, 2**62 - 57]))
    d = draw(st.sampled_from([1, 2, 3, 10, 127]))
    n = draw(st.integers(0, 1 if d == 127 else 4))  # the cube cap
    D = draw(st.integers(-2, n * d + 1))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    coeffs = [rng.randrange(1, p) if rng.random() < share else 0
              for _ in range(ebc_cum(n, D, d))]
    return TrimmedPoly(PrimeModulus(p), n, d, D, coeffs)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(dense_polys())
def test_write_trimmed_poly_matches_json_dump_on_small_shapes(poly):
    assert _written(write_trimmed_poly, poly) == _dumped_poly(poly)


WRITE_CASES = {
    "n=0": TrimmedPoly(MOD5, 0, 1, 3, [4]),
    "n=0 zero": TrimmedPoly(MOD5, 0, 4, 0, [0]),
    "D<0": TrimmedPoly(MOD5, 3, 2, -2, []),
    "p=2 dense": TrimmedPoly(P2, 3, 1, 3, [1] * 8),
    "d=127": TrimmedPoly(MOD_16, 1, 127, 127, range(128)),
    "random (6,3,9)": RANDOM_POLY,
}


@pytest.mark.parametrize("name", WRITE_CASES)
def test_write_trimmed_poly_named_shapes(name):
    poly = WRITE_CASES[name]
    assert _written(write_trimmed_poly, poly) == _dumped_poly(poly)


def _outcome(decode, doc):
    """("ok", result) or ("raises", exception type, message)."""
    try:
        return ("ok", decode(doc))
    except Exception as exc:  # compared, not swallowed
        return ("raises", type(exc), str(exc))


def _reference_poly(doc):
    return from_sparse(sparse_poly_from_dict(doc))


def _reference_table(doc):
    """The per-value table decode: each value through ``_parse_scalar``."""
    what = "evaluation table document"
    modulus = jsonio._parse_modulus(doc, what)
    n = jsonio._get(doc, "n", int, what)
    d = jsonio._get(doc, "d", int, what)
    D = jsonio._get(doc, "D", int, what)
    values = [jsonio._parse_scalar(v, "table value")
              for v in jsonio._get(doc, "values", list, what)]
    return EvalTable(modulus, n, d, D, values)


def _takes_bulk_path(doc) -> bool:
    try:
        return jsonio._bulk_poly(doc) is not None
    except jsonio._DECODE_ERRORS:
        return False


def _poly(terms, p="5", n=2, d=1, D=1):
    return {"p": p, "n": n, "d": d, "D": D,
            "terms": [{"exp": e, "coeff": c} for e, c in terms]}


GOOD = ([0, 0], "2")
CUBE_CAP = _poly([([e], str(e * e)) for e in range(128)], p="65537", n=1,
                 d=127, D=127)
# name: (document, whether the bulk path takes it)
POLY_DOCS = {
    "n=0": (_poly([([], "3")], p="7", n=0, D=2), True),
    "n=0 no terms": (_poly([], n=0), True),
    "n=0 D=-1": (_poly([([], "3")], n=0, D=-1), False),
    "D=-1 no terms": (_poly([], D=-1), True),
    "D=-1 with a term": (_poly([GOOD], D=-1), False),
    "D=-5 no terms": (_poly([], D=-5), True),
    "D above nd": (_poly([([1, 1], "4"), GOOD], D=9), True),
    "p=2": (_poly([([1, 1, 0], "1"), ([0, 0, 1], "3"), ([1, 0, 0], "2")],
                  p="2", n=3, D=2), True),
    "p=2^62-57": (_poly([([2, 1], str(2**62 - 58)), ([0, 0], str(2**70))],
                        p=str(2**62 - 57), d=2, D=3), True),
    "exponent true": (_poly([GOOD, ([True, 0], "1")]), False),
    "exponent false": (_poly([GOOD, ([0, False], "1")]), False),
    "exponent 1.0": (_poly([GOOD, ([1.0, 0], "1")]), False),
    "exponent -1": (_poly([GOOD, ([-1, 0], "1")]), False),
    "exponent d+1": (_poly([GOOD, ([2, 0], "1")]), False),
    "exponent 256": (_poly([GOOD, ([256, 0], "1")]), False),
    "exponent 2^70": (_poly([GOOD, ([2**70, 0], "1")]), False),
    "exponent string": (_poly([GOOD, (["1", 0], "1")]), False),
    "exponent null": (_poly([GOOD, ([None, 0], "1")]), False),
    "exponent list": (_poly([GOOD, ([[1], 0], "1")]), False),
    "sum above D": (_poly([GOOD, ([1, 1], "1")]), False),
    "short vector": (_poly([GOOD, ([1], "1")]), False),
    "long vector": (_poly([GOOD, ([1, 0, 0], "1")]), False),
    "exp not a list": (_poly([GOOD, ("10", "1")]), False),
    "exp an object": (_poly([GOOD, ({"0": 1}, "1")]), False),
    "duplicate": (_poly([([1, 0], "3"), GOOD, ([1, 0], "4")]), False),
    "zero duplicate": (_poly([([1, 0], "0"), ([1, 0], "0")]), False),
    "int coefficient": (_poly([GOOD, ([0, 1], 4), ([1, 0], -3)]), False),
    "coefficient -5": (_poly([GOOD, ([0, 1], "-5")]), True),
    "coefficient ' 7'": (_poly([GOOD, ([0, 1], " 7")]), True),
    "coefficient 1_0": (_poly([GOOD, ([0, 1], "1_0")]), True),
    "coefficient +4": (_poly([GOOD, ([0, 1], "+4")]), True),
    "coefficient 10^30": (_poly([GOOD, ([0, 1], str(10**30))]), True),
    "coefficient x": (_poly([GOOD, ([0, 1], "x")]), False),
    "coefficient 1.5": (_poly([GOOD, ([0, 1], "1.5")]), False),
    "coefficient true": (_poly([GOOD, ([0, 1], True)]), False),
    "coefficient null": (_poly([GOOD, ([0, 1], None)]), False),
    "coefficient 5000 digits": (_poly([GOOD, ([0, 1], "9" * 5000)]), False),
    "unsorted": (_poly([([0, 1], "4"), ([1, 0], "3"), GOOD]), True),
    "extra keys": ({"p": "5", "n": 2, "d": 1, "D": 1, "x": [],
                    "terms": [{"exp": [1, 0], "coeff": "3", "c": None},
                              {"note": 1, "coeff": "2", "exp": [0, 0]}]},
                   True),
    "term not an object": (_poly([GOOD])
                           | {"terms": [{"exp": [0, 0], "coeff": "1"}, [0]]},
                           False),
    "term missing coeff": (_poly([GOOD]) | {"terms": [{"exp": [0, 0]}]},
                           False),
    "term missing exp": (_poly([GOOD]) | {"terms": [{"coeff": "1"}]}, False),
    "d at the cube cap": (CUBE_CAP, True),
    "d at the cube cap, exponent 128":
        (CUBE_CAP | {"terms": [{"exp": [128], "coeff": "1"}]}, False),
    "d=100, n=2": (_poly([([100, 0], "1"), ([37, 63], "2"), ([0, 100], "3")],
                         p="65537", d=100, D=150), True),
    "above the cube cap": (_poly([([1], "1")], n=1, d=128, D=1), False),
    "bad term above the cube cap": (_poly([([1.0], "1")], n=1, d=200, D=1),
                                    False),
    "d=0": (_poly([GOOD], d=0), False),
    "n=-1": (_poly([], n=-1), False),
    "n=-1 with a bad term": (_poly([("x", "1")], n=-1), False),
    "layout above the limit": (_poly([], p="5", n=30, d=1, D=30), False),
    "p not prime": (_poly([GOOD], p="6"), False),
    "n true": (_poly([GOOD], n=True), False),
    "terms an object": (_poly([]) | {"terms": {}}, False),
}


@pytest.mark.parametrize("name", POLY_DOCS)
def test_bulk_poly_decode_equals_per_term_path(name):
    doc, bulk = POLY_DOCS[name]
    want = _outcome(_reference_poly, doc)
    assert _outcome(trimmed_poly_from_dict, doc) == want
    assert _takes_bulk_path(doc) == bulk


def test_bulk_poly_decode_reduces_and_clamps():
    poly = trimmed_poly_from_dict(POLY_DOCS["D above nd"][0])
    assert (poly.D, poly.coeffs) == (2, (2, 0, 0, 4))
    poly = trimmed_poly_from_dict(POLY_DOCS["p=2"][0])
    assert poly.coeffs == (0, 0, 0, 1, 1, 0, 0)
    assert trimmed_poly_from_dict(POLY_DOCS["D=-5 no terms"][0]).D == -1


TABLE_DOCS = {
    "good": ["2", "0", "1"],
    "spaces and underscores": [" 2", "0 ", "1_0"],
    "negative": ["-3", "0", "1"],
    "p": ["5", "0", "1"],
    "ints": [2, 0, 1],
    "mixed": ["2", 0, "1"],
    "short": ["2", "0"],
    "long": ["2", "0", "1", "3"],
    "not decimal": ["2", "x", "1"],
    "float string": ["2", "1.0", "1"],
    "bool": ["2", True, "1"],
    "null": ["2", None, "1"],
    "5000 digits": ["2", "9" * 5000, "1"],
    "empty": [],
}


@pytest.mark.parametrize("name", TABLE_DOCS)
@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 5), (0, 1, 0),
                                   (2, 1, -1), (2, 0, 1), (-1, 1, 1)])
def test_bulk_table_decode_equals_per_value_path(name, shape):
    n, d, D = shape
    doc = {"p": "5", "n": n, "d": d, "D": D, "values": TABLE_DOCS[name]}
    assert _outcome(eval_table_from_dict, doc) == \
        _outcome(_reference_table, doc)


@st.composite
def poly_documents(draw):
    """Polynomial documents of small shapes. Half are well formed: distinct
    admissible vectors with decimal-string coefficients. The rest may
    also hold a mutated vector, a duplicate or an odd coefficient."""
    p = draw(st.sampled_from([2, 5, 65537]))
    n = draw(st.integers(0, 3))
    d = draw(st.integers(1, 3))
    D = draw(st.integers(-2, n * d + 1))
    admissible = st.sampled_from([list(e) for e in enumerate_trimmed(n, d, D)]
                                 if D >= 0 else [[0] * n])
    decimal = st.integers(-p, 2 * p).map(str)
    clean = draw(st.booleans())
    if clean:
        exp, coeff = admissible, decimal
    else:
        odd = st.sampled_from([True, False, 1.0, -1, d + 1, 256, "1", None])
        exp = st.one_of(admissible, st.lists(
            st.one_of(st.integers(0, d), odd), min_size=max(0, n - 1),
            max_size=n + 1))
        coeff = st.one_of(decimal, st.integers(-p, p), st.sampled_from(
            [" 7", "1_0", "-0", "x", True, None]))
    unique = clean or draw(st.booleans())
    terms = draw(st.lists(st.fixed_dictionaries({"exp": exp,
                                                 "coeff": coeff}),
                          max_size=10,
                          unique_by=(lambda t: repr(t["exp"])) if unique
                          else None))
    return {"p": str(p), "n": n, "d": d, "D": D, "terms": terms}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(poly_documents())
def test_bulk_poly_decode_equals_per_term_path_on_small_shapes(doc):
    assert _outcome(trimmed_poly_from_dict, doc) == \
        _outcome(_reference_poly, doc)


@st.composite
def table_documents(draw):
    p = draw(st.sampled_from([2, 5, 65537]))
    n = draw(st.integers(0, 3))
    d = draw(st.integers(1, 3))
    D = draw(st.integers(-2, n * d + 1))
    size = len(enumerate_trimmed(n, d, D)) if D >= 0 else 0
    value = st.one_of(st.integers(0, p - 1).map(str),
                      st.integers(-p, 2 * p).map(str), st.integers(-p, p),
                      st.sampled_from([" 7", "1_0", "x", "", True, None]))
    values = draw(st.lists(value, min_size=max(0, size - 1),
                           max_size=size + 1))
    return {"p": str(p), "n": n, "d": d, "D": D, "values": values}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(table_documents())
def test_bulk_table_decode_equals_per_value_path_on_small_shapes(doc):
    assert _outcome(eval_table_from_dict, doc) == \
        _outcome(_reference_table, doc)
