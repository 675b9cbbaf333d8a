import io
import json
import random

import pytest

from trimmedpoly.algo import EvalTable, Grid, trimmed_eval
from trimmedpoly.field import PrimeModulus
from trimmedpoly.jsonio import (
    eval_table_from_dict,
    eval_table_to_dict,
    grid_from_dict,
    grid_to_dict,
    sparse_poly_from_dict,
    sparse_poly_to_dict,
    write_eval_table,
    write_sparse_poly,
)
from trimmedpoly.poly import (
    SparsePoly,
    ValidationError,
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
    assert _written(write_sparse_poly, sparse) == \
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
            (write_sparse_poly, RANDOM_SPARSE, len(RANDOM_SPARSE.terms)),
            (write_eval_table, RANDOM_TABLE, len(RANDOM_TABLE.values))):
        handle = Recorder()
        writer(obj, handle)
        # one list element per chunk, never the whole document at once
        assert len(handle.sizes) == count + 2
        assert max(handle.sizes) < 200
