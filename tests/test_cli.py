import json
import tracemalloc

import pytest

from trimmedpoly.cli import BENCH_HEADER, main, parse_sweep
from trimmedpoly.combinat import CapacityError
from trimmedpoly.poly import ValidationError

WORKED_POLY = {
    "p": "5", "n": 2, "d": 1, "D": 1,
    "terms": [{"exp": [0, 0], "coeff": "2"},
              {"exp": [1, 0], "coeff": "3"},
              {"exp": [0, 1], "coeff": "4"}],
}
WORKED_GRID = {"p": "5", "n": 2, "d": 1, "nodes": [["0", "1"], ["0", "1"]]}


def write(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def test_eval_worked_example(tmp_path):
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    out = tmp_path / "table.json"
    assert main(["eval", "--poly", poly, "--grid", grid,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["values"] == ["2", "0", "1"]
    assert doc["p"] == "5" and doc["D"] == 1


def test_eval_grid_gen_seq_matches_explicit(tmp_path):
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    out = tmp_path / "table.json"
    assert main(["eval", "--poly", poly, "--grid-gen", "seq",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"] == ["2", "0", "1"]


def test_eval_constant_poly(tmp_path):
    poly = write(tmp_path / "poly.json",
                 {"p": "7", "n": 2, "d": 2, "D": 4,
                  "terms": [{"exp": [0, 0], "coeff": "6"}]})
    out = tmp_path / "table.json"
    assert main(["eval", "--poly", poly, "--grid-gen", "rand", "--seed", "3",
                 "--out", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    assert set(values) == {"6"}


@pytest.mark.parametrize("doc", [
    {"p": "5", "n": 1000000, "d": 1, "D": 0, "terms": []},
    {"p": "65537", "n": 10000, "d": 100, "D": 1000000, "terms": []},
    {"p": "5", "n": 30, "d": 1, "D": 30, "terms": []},
    {"p": "65537", "n": 1, "d": 200, "D": 0, "terms": []},
    {"p": "5", "n": 200, "d": 1, "D": 3, "terms": []},
], ids=["wide", "deep-budget", "big-layout", "cubic-factor", "stage-work"])
def test_eval_refuses_shapes_above_size_limit(tmp_path, capsys, doc):
    # A few bytes of JSON must not make eval build n factors, a huge
    # count table or a huge layout, nor factors of degree 200, over the
    # cube bound n*(d+1)^3, nor run stages of n*N over the work limit:
    # refused before anything is built.
    # The first call is untraced: it pays argparse's lazy imports, so that
    # the traced second call measures the refusal itself.
    poly = write(tmp_path / "poly.json", doc)
    out = tmp_path / "table.json"
    argv = ["eval", "--poly", poly, "--grid-gen", "seq", "--out", str(out)]
    assert main(argv) == 1
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "more than the limit" in err
    assert peak < 256 << 10
    assert not out.exists()


def test_interp_refuses_shapes_above_work_limit(tmp_path, capsys):
    # (200, 1, 3) has N = 1,333,501 within SIZE_LIMIT, but n*N over the
    # work limit: refused with one line before the values are checked
    table = write(tmp_path / "table.json",
                  {"p": "5", "n": 200, "d": 1, "D": 3, "values": []})
    grid = write(tmp_path / "grid.json",
                 {"p": "5", "n": 200, "d": 1, "nodes": [["0", "1"]] * 200})
    out = tmp_path / "poly.json"
    assert main(["interp", "--evals", table, "--grid", grid,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n*N is 266700200, more than the limit 67108864" in err
    assert not out.exists()


def test_well_formed_documents_take_the_bulk_decode(tmp_path, monkeypatch):
    # eval and interp decode a well-formed document without the per-entry
    # path, which would fail the test here; a malformed one still reaches it
    from trimmedpoly import jsonio

    def per_entry(*args):
        raise AssertionError("per-entry decode ran")

    parse_scalar = jsonio._parse_scalar
    monkeypatch.setattr(jsonio, "sparse_poly_from_dict", per_entry)
    monkeypatch.setattr(jsonio, "_parse_scalar", lambda value, what: (
        per_entry() if what == "table value" else parse_scalar(value, what)))
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    out = tmp_path / "out.json"
    shuffled = dict(WORKED_POLY, terms=WORKED_POLY["terms"][::-1])
    assert main(["eval", "--poly", write(tmp_path / "poly.json", shuffled),
                 "--grid", grid, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"] == ["2", "0", "1"]
    table = write(tmp_path / "table.json", json.loads(out.read_text()))
    assert main(["interp", "--evals", table, "--grid", grid,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["terms"] == WORKED_POLY["terms"]
    duplicated = dict(WORKED_POLY, terms=WORKED_POLY["terms"] * 2)
    with pytest.raises(AssertionError, match="per-entry decode ran"):
        main(["eval", "--poly", write(tmp_path / "poly.json", duplicated),
              "--grid", grid, "--out", str(out)])


def test_interp_writes_without_exponent_tuples(tmp_path, monkeypatch):
    # interp writes its polynomial from the layout codes: neither an
    # enumeration of exponent tuples nor a per-slot unrank may run
    from trimmedpoly import combinat

    def tuples(*args):
        raise AssertionError("exponent tuples built")

    monkeypatch.setattr(combinat, "enumerate_trimmed", tuples)
    monkeypatch.setattr(combinat, "unrank", tuples)
    table = write(tmp_path / "table.json",
                  {"p": "5", "n": 2, "d": 1, "D": 1,
                   "values": ["2", "0", "1"]})
    out = tmp_path / "poly.json"
    assert main(["interp", "--evals", table,
                 "--grid", write(tmp_path / "grid.json", WORKED_GRID),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["terms"] == WORKED_POLY["terms"]


def test_eval_seq_grid_without_variables_at_huge_degree(tmp_path):
    # n = 0 passes every cap, as n*(d+1)^3 = 0; the sequential grid then
    # lists no node, and the one-point table is the constant term
    poly = write(tmp_path / "poly.json",
                 {"p": str(2**61 - 1), "n": 0, "d": 2**60, "D": 0,
                  "terms": []})
    out = tmp_path / "table.json"
    assert main(["eval", "--poly", poly, "--grid-gen", "seq",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"] == ["0"]


LONG = "9" * 5000
PREFIX = "'99999999999999999999'... (5000 characters)"


@pytest.mark.parametrize("command, doc, message", [
    ("eval", {**WORKED_POLY, "terms": [{"exp": [0, 0], "coeff": LONG}]},
     "term 0 coefficient"),
    ("interp", {"p": "5", "n": 2, "d": 1, "D": 1,
                "values": ["1", LONG, "2"]}, "table value"),
    ("grid", {**WORKED_GRID, "nodes": [["0", "1"], [LONG, "1"]]},
     "node row 2 entry"),
    ("eval", {**WORKED_POLY, "p": LONG},
     "polynomial document key 'p'"),
], ids=["coefficient", "table-value", "node", "p"])
def test_over_long_decimal_is_quoted_by_its_prefix(tmp_path, capsys, command,
                                                   doc, message):
    # A value past Python's 4,300-digit limit gets one short line that
    # names the limit, not the whole value
    path = write(tmp_path / "doc.json", doc)
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    argv = {"eval": ["eval", "--poly", path, "--grid", grid],
            "interp": ["interp", "--evals", path, "--grid", grid],
            "grid": ["eval", "--poly", poly, "--grid", path]}[command]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {message} is not a decimal string of at most "
                   f"4300 digits, Python's limit: {PREFIX}\n")
    assert len(err) < 200


def test_eval_duplicate_node_exits_1(tmp_path, capsys):
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    grid = write(tmp_path / "grid.json",
                 {"p": "5", "n": 2, "d": 1, "nodes": [["0", "1"], ["1", "1"]]})
    assert main(["eval", "--poly", poly, "--grid", grid,
                 "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert "variable 2" in err


def test_eval_deterministic_output(tmp_path):
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["eval", "--poly", poly, "--grid", grid, "--out", str(out_a)])
    main(["eval", "--poly", poly, "--grid", grid, "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_interp_inverse_of_eval(tmp_path):
    table = write(tmp_path / "table.json",
                  {"p": "5", "n": 2, "d": 1, "D": 1,
                   "values": ["2", "0", "1"]})
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    out = tmp_path / "poly.json"
    assert main(["interp", "--evals", table, "--grid", grid,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["terms"] == WORKED_POLY["terms"]


def test_interp_zero_table(tmp_path):
    table = write(tmp_path / "table.json",
                  {"p": "5", "n": 2, "d": 1, "D": 1,
                   "values": ["0", "0", "0"]})
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    out = tmp_path / "poly.json"
    assert main(["interp", "--evals", table, "--grid", grid,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["terms"] == []


@pytest.mark.parametrize("command", ["eval", "interp"])
def test_non_object_document_exits_1(tmp_path, capsys, command):
    # a top-level array is refused with one line, and no output is written
    doc = write(tmp_path / "in.json", [WORKED_POLY])
    flag = "--poly" if command == "eval" else "--evals"
    out = tmp_path / "out.json"
    assert main([command, flag, doc, "--grid",
                 write(tmp_path / "grid.json", WORKED_GRID),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {doc}: top-level JSON value must be an object\n"
    assert not out.exists()


def test_interp_wrong_length_exits_1(tmp_path, capsys):
    table = write(tmp_path / "table.json",
                  {"p": "5", "n": 2, "d": 1, "D": 1, "values": ["2", "0"]})
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    assert main(["interp", "--evals", table, "--grid", grid,
                 "--out", str(tmp_path / "o.json")]) == 1
    assert "length" in capsys.readouterr().err


def test_roundtrip_ok(capsys):
    assert main(["roundtrip", "--n", "4", "--d", "2", "--D", "5",
                 "--prime", "65537", "--seed", "0", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 5


def test_roundtrip_zero_trials():
    assert main(["roundtrip", "--n", "3", "--d", "2", "--D", "3",
                 "--prime", "7", "--trials", "0"]) == 0


def test_roundtrip_corrupt_detected(capsys):
    code = main(["roundtrip", "--n", "3", "--d", "2", "--D", "3",
                 "--prime", "65537", "--seed", "9", "--trials", "3",
                 "--corrupt"])
    assert code == 2
    assert "--seed 9" in capsys.readouterr().err


def test_roundtrip_bad_params(capsys):
    assert main(["roundtrip", "--n", "2", "--d", "0", "--D", "1",
                 "--prime", "7", "--trials", "1"]) == 1
    assert main(["roundtrip", "--n", "2", "--d", "1", "--D", "1",
                 "--prime", "6", "--trials", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--D", "--trials"])
def test_roundtrip_negative_budget_or_trials_exits_1(capsys, flag):
    argv = {"--n": "2", "--d": "1", "--D": "1", "--prime": "7",
            "--trials": "1", flag: "-1"}
    assert main(["roundtrip", *(x for kv in argv.items() for x in kv)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need D >= 0 and trials >= 0\n"
    assert captured.out == ""


def test_roundtrip_prime_below_node_count_exits_1(capsys):
    # p = 2 has no 4 distinct nodes for d = 3: a pre-flight error, not a
    # traceback from grid construction
    assert main(["roundtrip", "--n", "2", "--d", "3", "--D", "2",
                 "--prime", "2", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "p >= d+1" in err


def test_oracle_limit_refuses_before_running_the_oracle(tmp_path, capsys):
    # N = 2001 at n = 2000: N^2 * n is about 8 * 10^9, far over the limit,
    # so roundtrip refuses in its pre-flight and bench skips the oracle
    assert main(["roundtrip", "--n", "2000", "--d", "1", "--D", "1",
                 "--prime", "5", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: oracle cost") and err.count("\n") == 1
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "n=2000;d=1;D=1", "--algos", "naive",
                 "--out", str(out)]) == 0
    assert out.read_text() == BENCH_HEADER + "\n"
    err = capsys.readouterr().err
    assert err.startswith("skip naive for n=2000 d=1 D=1: oracle cost")


def test_parse_sweep():
    instances = parse_sweep("n=2..4;d=1,2;D=nd/2,nd")
    assert (2, 1, 1) in instances and (2, 1, 2) in instances
    assert (4, 2, 4) in instances and (4, 2, 8) in instances
    assert len(instances) == 3 * 2 * 2
    assert parse_sweep("n=3;d=2;D=4") == [(3, 2, 4)]
    # duplicate D values collapse (nd/2 == nd for n=d=1... use n=1 d=1)
    assert parse_sweep("n=1;d=1;D=nd/2,nd") == [(1, 1, 1)]
    with pytest.raises(ValidationError):
        parse_sweep("n=2;d=1")
    with pytest.raises(ValidationError):
        parse_sweep("n=2;d=1;D=half")
    with pytest.raises(ValidationError):
        parse_sweep("n=0..2;d=1;D=nd")
    # a blank assignment is skipped
    assert parse_sweep("n=2;;d=1;D=nd") == [(2, 1, 2)]
    for spec, message in [("n=3..1;d=1;D=nd", "n: empty range '3..1'"),
                          ("n=2;d;D=nd", "sweep entry 'd' is not key=value"),
                          ("n=2;d=1;D=nd;k=3", "unknown sweep key 'k'"),
                          ("n=2;d=1;D=-1", "negative D = -1 in sweep"),
                          ("n=a;d=1;D=nd", "n: 'a' is not an integer"),
                          ("n=2..;d=1;D=nd",
                           "n: '2..' is not an integer range"),
                          ("n=1,;d=1;D=nd", "n: '' is not an integer"),
                          # one line, not the whole 5,000-digit value
                          (f"n={'1' * 5000};d=1;D=1",
                           "n: '11111111111111111111'... (5000 characters) "
                           "is not an integer of at most 4300 digits, "
                           "Python's limit")]:
        with pytest.raises(ValidationError) as excinfo:
            parse_sweep(spec)
        assert str(excinfo.value) == message
        assert "\n" not in message and len(message) < 200


def test_bench_refuses_huge_sweep_before_expanding(tmp_path, capsys):
    # The instance count comes from the range bounds: a sweep of 10^12
    # instances is refused before any list of them is built.
    spec = "n=1..1000000000000;d=1;D=1"
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", spec, "--algos", "trimmed",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: sweep would need 1000000000000 instances, more "
                   "than the limit 2097152\n")
    assert not out.exists()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            parse_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


def test_bench_two_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "n=3;d=2;D=nd/2", "--algos",
                 "trimmed,naive", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    trimmed_row = lines[1].split(",")
    naive_row = lines[2].split(",")
    assert trimmed_row[0] == "trimmed" and naive_row[0] == "naive"
    assert trimmed_row[1:6] == ["3", "2", "3", "65537", "17"]
    assert int(naive_row[7]) > int(trimmed_row[7])  # mul counts


def test_bench_deterministic_apart_from_wall_time(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bench", "--sweep", "n=2..3;d=2;D=nd/2,nd", "--algos",
            "trimmed,naive", "--seed", "5"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    header_index = BENCH_HEADER.split(",").index("wall_time_ns")
    for line_a, line_b in zip(out_a.read_text().splitlines(),
                              out_b.read_text().splitlines()):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        cells_a[header_index] = cells_b[header_index] = "-"
        assert cells_a == cells_b


def test_eval_grid_shape_mismatch_exits_1(tmp_path, capsys):
    poly = write(tmp_path / "poly.json", WORKED_POLY)
    grid = write(tmp_path / "grid.json",
                 {"p": "5", "n": 2, "d": 2,
                  "nodes": [["0", "1", "2"], ["0", "1", "2"]]})
    assert main(["eval", "--poly", poly, "--grid", grid,
                 "--out", str(tmp_path / "o.json")]) == 1
    capsys.readouterr()


def test_bench_empty_algos(tmp_path, capsys):
    assert main(["bench", "--sweep", "n=2;d=1;D=nd", "--algos", "",
                 "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_bench_unknown_algo(tmp_path, capsys):
    assert main(["bench", "--sweep", "n=2;d=1;D=nd", "--algos", "fast",
                 "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_bench_capacity_skip(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "n=90;d=3;D=nd", "--algos", "trimmed",
                 "--out", str(out)]) == 0
    assert "skip" in capsys.readouterr().err
    assert out.read_text().strip() == BENCH_HEADER


def test_bench_node_rule_skip(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "n=1;d=2;D=nd", "--algos", "trimmed",
                 "--prime", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "skip n=1 d=2 D=2: need p >= d+1 for distinct nodes, got p=2, d=2\n")
    assert out.read_text().strip() == BENCH_HEADER


def test_bench_yates_needs_full_cube(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "n=2;d=2;D=nd/2,nd", "--algos",
                 "yates", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "yates" in err  # nd/2 instance skipped
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # header + the D=nd row


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "extended-pascal" in out
    assert "FAIL" not in out


def test_selftest_json(capsys):
    assert main(["selftest", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"extended-pascal": True, "lu-reconstruction": True,
                   "rank-unrank": True, "yates-consistency": True}


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["eval", "--poly", "x.json"]) == 1  # missing grid/out
    capsys.readouterr()


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["eval", "--poly", str(tmp_path / "absent.json"),
                 "--grid-gen", "seq", "--out", str(tmp_path / "o.json")]) == 1
    capsys.readouterr()


def test_eval_malformed_exponent_names_the_term(tmp_path, capsys):
    for exp in ([1, "x"], [2, 0], [0]):
        poly = write(tmp_path / "poly.json",
                     dict(WORKED_POLY,
                          terms=[{"exp": [0, 0], "coeff": "2"},
                                 {"exp": exp, "coeff": "3"}]))
        assert main(["eval", "--poly", poly, "--grid-gen", "seq",
                     "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"bad term {tuple(exp)!r}" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["eval", "interp"])
def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch,
                                             command):
    import trimmedpoly.cli as cli

    def broken(obj, handle):
        handle.write('{\n  "p": "5",')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_eval_table", broken)
    monkeypatch.setattr(cli, "write_trimmed_poly", broken)
    grid = write(tmp_path / "grid.json", WORKED_GRID)
    if command == "eval":
        argv = ["eval", "--poly", write(tmp_path / "in.json", WORKED_POLY),
                "--grid", grid]
    else:
        argv = ["interp", "--grid", grid, "--evals",
                write(tmp_path / "in.json",
                      {"p": "5", "n": 2, "d": 1, "D": 1,
                       "values": ["2", "0", "1"]})]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["grid.json",
                                                          "in.json"]
    out.write_text("earlier output\n")
    assert main(argv + ["--out", str(out)]) == 1
    assert out.read_text() == "earlier output\n"
    assert len(list(tmp_path.iterdir())) == 3
    capsys.readouterr()


def test_selftest_failure_names_suite_and_parameters(capsys, monkeypatch):
    from trimmedpoly import checks

    def failing():
        raise AssertionError((3, 2, 5))

    monkeypatch.setattr(checks, "SUITES", tuple(
        (name, failing if name == "rank-unrank" else check)
        for name, check in checks.SUITES))
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert "suite rank-unrank: FAIL" in captured.out
    assert "suite rank-unrank: AssertionError: (3, 2, 5)" in \
        captured.err.splitlines()


@pytest.mark.parametrize("case", ["many-variables", "deep-json", "roundtrip"])
def test_recursion_limit_exits_1_with_one_line(tmp_path, capsys, case):
    # Of these inputs only the 200,000-deep JSON document still reaches the
    # recursion limit. The 2000-variable eval and roundtrip build their
    # layout iteratively and must succeed.
    out = tmp_path / "out.json"
    if case == "many-variables":
        poly = write(tmp_path / "poly.json",
                     {"p": "5", "n": 2000, "d": 1, "D": 0, "terms": []})
        argv = ["eval", "--poly", poly, "--grid-gen", "seq",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["values"] == ["0"]
        return
    if case == "roundtrip":
        argv = ["roundtrip", "--n", "2000", "--d", "1", "--D", "0",
                "--prime", "5", "--trials", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["trial 0: ok"]
        return
    poly = tmp_path / "poly.json"
    poly.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    argv = ["eval", "--poly", str(poly), "--grid-gen", "seq",
            "--out", str(out)]
    before = sorted(f.name for f in tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too deeply" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == before
