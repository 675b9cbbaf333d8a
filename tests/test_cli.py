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
], ids=["wide", "deep-budget", "big-layout", "cubic-factor"])
def test_eval_refuses_shapes_above_size_limit(tmp_path, capsys, doc):
    # A few bytes of JSON must not make eval build n factors, a huge
    # count table or a huge layout, nor factors of degree 200, over the
    # cube bound n*(d+1)^3: refused before anything is built.
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
    monkeypatch.setattr(cli, "write_sparse_poly", broken)
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
