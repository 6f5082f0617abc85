import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from mdgp import Grouping, cli, objective_value
from mdgp.cli import (
    ParseError,
    REPORT_SCHEMA,
    demonstrate,
    gen_instance,
    main,
    parse_instance,
    parse_solution,
    worked_example_instance,
)
from conftest import TOL

WORKED_FILE = "6 3 2 3\nATTR 1\nnum\n1\n2\n3\n4\n5\n6\n"


# ---------------------------------------------------------------------------
# parse_instance
# ---------------------------------------------------------------------------

def test_parse_attr_worked_example():
    loaded = parse_instance(WORKED_FILE, metric="manhattan")
    inst = loaded.instance
    assert (inst.n, inst.G, inst.a, inst.b) == (6, 3, 2, 3)
    assert inst.dist.lookup(1, 5) == 4.0
    assert loaded.table is not None
    assert loaded.warnings == ()


def test_parse_dist_section():
    text = "3 1 3 3\nDIST\n1.5 2.5\n3.5\n"
    loaded = parse_instance(text)
    d = loaded.instance.dist
    assert (d.lookup(1, 2), d.lookup(1, 3), d.lookup(2, 3)) == (1.5, 2.5, 3.5)
    assert loaded.table is None


def test_parse_all_zero_distances_is_valid():
    text = "4 2 2 2\nDIST\n0 0 0\n0 0\n0\n"
    loaded = parse_instance(text)
    assert loaded.instance.n == 4
    # with all-zero distances, any feasible grouping is optimal at 0
    from mdgp import solve_bruteforce

    assert solve_bruteforce(loaded.instance).value == 0.0


def test_parse_comments_and_blanks_ignored():
    text = "# instance\n\n3 1 3 3\n# body\nDIST\n1 2\n# another\n3\n"
    assert parse_instance(text).instance.n == 3


def test_parse_negative_distance_warns():
    text = "3 1 3 3\nDIST\n-1 2\n3\n"
    loaded = parse_instance(text)
    assert loaded.warnings and "negative" in loaded.warnings[0]


def test_parse_infeasible_header():
    with pytest.raises(ParseError, match="infeasible instance"):
        parse_instance("7 3 2 2\nDIST\n" + "\n".join("0 " * (7 - i) for i in range(1, 7)))


def test_parse_a_greater_than_b():
    with pytest.raises(ParseError):
        parse_instance("6 3 2 1\nATTR 1\nnum\n1\n2\n3\n4\n5\n6\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("3 1 3 3\nDIST\n1 oops\n3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("3 1\nDIST\n1 2\n3\n")


def test_parse_wrong_row_width():
    with pytest.raises(ParseError, match="needs 2 values"):
        parse_instance("3 1 3 3\nDIST\n1\n3\n")


# ---------------------------------------------------------------------------
# gen_instance
# ---------------------------------------------------------------------------

def test_gen_is_deterministic():
    a = gen_instance(6, 3, 2, 3, kind="uniform1d", seed=7)
    b = gen_instance(6, 3, 2, 3, kind="uniform1d", seed=7)
    assert a == b
    assert gen_instance(6, 3, 2, 3, kind="uniform1d", seed=8) != a


@pytest.mark.parametrize("kind", ["uniform1d", "uniformkd:3", "mixed:2,1", "mixed:0,2"])
def test_gen_output_reparses(kind):
    text = gen_instance(8, 2, 3, 5, kind=kind, seed=11)
    metric = "gower" if "mixed" in kind else "manhattan"
    loaded = parse_instance(text, metric=metric)
    assert loaded.instance.n == 8
    assert loaded.instance.G == 2


def test_gen_rejects_bad_bounds():
    with pytest.raises(ValueError, match="invalid bounds"):
        gen_instance(6, 3, 3, 3, seed=1)
    with pytest.raises(ValueError, match="kind"):
        gen_instance(6, 3, 2, 3, kind="nope", seed=1)


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------

def test_parse_solution_order_insensitive():
    groups = parse_solution("5 1\n# comment\n2 4\n3 6\n")
    assert Grouping(groups).groups == ((1, 5), (2, 4), (3, 6))


def test_parse_solution_rejects_garbage():
    with pytest.raises(ParseError, match="line 1"):
        parse_solution("one two\n")


# ---------------------------------------------------------------------------
# demonstrate
# ---------------------------------------------------------------------------

def test_demonstrate_report_values():
    rep = demonstrate()
    assert rep.correct_value == 9.0
    assert rep.degree_only_value == 16.0
    assert rep.violated == ("lcount",)
    assert rep.correct_groups == ((1, 5), (2, 4), (3, 6))
    assert rep.degree_only_groups == ((1, 3, 6), (2, 4, 5))
    assert rep.summary() == "correct: 9, degree-only: 16, violated: lcount"


def test_demonstrate_idempotent():
    assert demonstrate() == demonstrate()


# ---------------------------------------------------------------------------
# command flows (exit codes + JSON schema)
# ---------------------------------------------------------------------------

@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED_FILE)
    return path


def _solve_json(capsys, *argv) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cmd_solve_bnb_json(worked_file, capsys):
    code, report = _solve_json(
        capsys, "solve", "--input", str(worked_file), "--solver", "bnb", "--json"
    )
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["value"] == 9.0
    assert report["proven"] is True
    # reported value re-evaluates bit-equal on the reported grouping
    inst = worked_example_instance()
    g = Grouping([tuple(grp) for grp in report["groups"]])
    assert objective_value(g, inst.dist) == report["value"]


def test_cmd_solve_bruteforce_and_heuristic(worked_file, capsys):
    code, report = _solve_json(
        capsys, "solve", "--input", str(worked_file), "--solver", "bruteforce", "--json"
    )
    assert code == 0 and report["value"] == 9.0
    jsonschema.validate(report, REPORT_SCHEMA)

    code, report = _solve_json(
        capsys,
        "solve", "--input", str(worked_file),
        "--solver", "heuristic", "--restarts", "10", "--seed", "1", "--json",
    )
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["value"] <= 9.0 + TOL
    assert report["proven"] is False
    assert report["gap"] == pytest.approx(9.0 - report["value"], abs=TOL)


def test_cmd_solve_heuristic_requires_seed(worked_file, capsys):
    code = main(["solve", "--input", str(worked_file), "--solver", "heuristic"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_cmd_solve_time_limit_exit_code(tmp_path, capsys):
    # a generous instance with a tiny budget finishes unproven -> exit 3
    text = gen_instance(12, 3, 3, 5, kind="uniform1d", seed=3)
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = main(
        ["solve", "--input", str(path), "--solver", "bnb", "--time-limit", "1e-4", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    if report["proven"]:  # finished within budget on a fast machine
        assert code == 0
    else:
        assert code == 3


def test_cmd_solve_export_only(worked_file, tmp_path, capsys):
    lp_path = tmp_path / "model.lp"
    code = main(
        ["solve", "--input", str(worked_file), "--export-lp", str(lp_path),
         "--model", "degree-only"]
    )
    assert code == 0
    assert "exported" in capsys.readouterr().out
    text = lp_path.read_text()
    assert "Binaries" in text and "y_2" not in text


def test_cmd_solve_export_unwritable_path(worked_file, tmp_path, capsys):
    lp_path = tmp_path / "missing" / "model.lp"
    code = main(["solve", "--input", str(worked_file), "--export-lp", str(lp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cmd_solve_export_n3(tmp_path, capsys):
    src = tmp_path / "tiny.txt"
    src.write_text("3 1 3 3\nDIST\n1 2\n3\n")
    lp_path = tmp_path / "tiny.lp"
    code = main(["solve", "--input", str(src), "--export-lp", str(lp_path)])
    assert code == 0
    binaries_line = [
        line for line in lp_path.read_text().splitlines() if line.startswith(" x_")
    ]
    assert "x_1_2 x_1_3 x_2_3" in binaries_line[-1]


@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "degree-only", "--solver", "bnb"],
        ["--solver", "heuristic"],
        ["--solver", "heuristic", "--seed", "1", "--restarts", "0"],
    ],
    ids=["degree-only", "no-seed", "zero-restarts"],
)
def test_cmd_solve_refusal_writes_no_lp(worked_file, tmp_path, capsys, flags):
    lp_path = tmp_path / "model.lp"
    code = main(["solve", "--input", str(worked_file), "--export-lp", str(lp_path), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not lp_path.exists()


def test_cmd_solve_heuristic_elapsed_excludes_oracle(worked_file, monkeypatch, capsys):
    def slow_gap(inst, value):
        time.sleep(0.5)
        return 0.0

    monkeypatch.setattr(cli, "_oracle_gap", slow_gap)
    code = main(["solve", "--input", str(worked_file), "--solver", "heuristic",
                 "--seed", "1", "--restarts", "1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap"] == 0.0
    assert report["elapsed_ms"] < 500


def test_cmd_solve_degree_only_refusal(worked_file, capsys):
    code = main(
        ["solve", "--input", str(worked_file), "--model", "degree-only",
         "--solver", "bruteforce"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "demonstrate" in err


def test_cmd_solve_equal_model_conflict(tmp_path, capsys):
    path = tmp_path / "odd.txt"
    path.write_text("5 2 2 3\nDIST\n1 1 1 1\n1 1 1\n1 1\n1\n")
    code = main(["solve", "--input", str(path), "--model", "equal", "--solver", "bnb"])
    assert code == 2
    assert "inapplicable" in capsys.readouterr().err


def test_cmd_demonstrate_json(capsys):
    code = main(["demonstrate", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["correct"]["value"] == 9.0
    assert report["degree_only"]["value"] == 16.0
    assert report["degree_only"]["groups"] == [[1, 3, 6], [2, 4, 5]]
    assert report["violated"] == ["lcount"]


def test_cmd_verify_feasible(worked_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 5\n2 4\n3 6\n")
    code = main(
        ["verify", "--input", str(worked_file), "--solution", str(sol),
         "--against-oracle", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["value"] == 9.0
    assert report["gap"] == 0.0


def test_cmd_verify_infeasible_still_reports_value(worked_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 3 6\n2 4 5\n")
    code = main(["verify", "--input", str(worked_file), "--solution", str(sol)])
    out = capsys.readouterr().out
    assert code == 2
    assert "value: 16" in out
    assert "feasible: no" in out
    # the optimum ranges over feasible partitions only: no gap to report
    code = main(["verify", "--input", str(worked_file), "--solution", str(sol),
                 "--against-oracle", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["value"] == 16.0 and report["feasible"] is False
    assert "gap" not in report
    assert captured.err == "note: --against-oracle skipped (solution is infeasible)\n"


def test_cmd_verify_duplicate_element(worked_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 1 2\n3 4 5 6\n")
    code = main(["verify", "--input", str(worked_file), "--solution", str(sol)])
    assert code == 2
    assert "twice" in capsys.readouterr().out


def test_cmd_verify_out_of_range_and_missing(worked_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 2 9\n3 4 5\n")
    assert main(["verify", "--input", str(worked_file), "--solution", str(sol)]) == 2
    capsys.readouterr()
    sol.write_text("1 2\n3 4\n")
    assert main(["verify", "--input", str(worked_file), "--solution", str(sol)]) == 2
    assert "not covered" in capsys.readouterr().out


def test_cmd_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    code = main(
        ["gen", "--n", "9", "--g", "3", "--a", "3", "--b", "3",
         "--kind", "uniformkd:2", "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    loaded = parse_instance(out.read_text(), metric="euclidean")
    assert loaded.instance.n == 9


def test_cmd_gen_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing" / "gen.txt"
    code = main(["gen", "--n", "6", "--g", "3", "--a", "2", "--b", "2", "--seed", "1",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cmd_gen_bad_bounds(capsys):
    code = main(["gen", "--n", "6", "--g", "4", "--a", "2", "--b", "3", "--seed", "1"])
    assert code == 2
    assert "invalid bounds" in capsys.readouterr().err


def test_cmd_gen_column_count_too_large(capsys):
    # a count that does not fit an index fails before anything is allocated
    for kind in ("uniformkd:99999999999999999999", "mixed:1,99999999999999999999"):
        code = main(["gen", "--n", "4", "--g", "2", "--a", "2", "--b", "2",
                     "--kind", kind, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "too large" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_cmd_solve_missing_file(capsys):
    code = main(["solve", "--input", "/nonexistent/file.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cmd_solve_all_negative_distances(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("4 2 2 2\nDIST\n-5 -5 -5\n-5 -5\n-5\n")
    code = main(["solve", "--input", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["value"] == -10.0
    assert report["proven"] is True


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cmd_overflowing_distances_rejected(command, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("4 2 2 2\nDIST\n1e308 1e308 1e308\n1e308 1e308\n1e308\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("1 2\n3 4\n")
    argv = {
        "solve": ["solve", "--input", str(path), "--json"],
        "verify": ["verify", "--input", str(path), "--solution", str(sol),
                   "--against-oracle", "--json"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "overflows" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text, message", [
    # a non-finite entry is reported on its own row
    ("3 1 3 3\nDIST\n1 inf\n2\n", "error: line 3: all distances must be finite"),
    ("# nan below\n3 1 3 3\nDIST\n1 2\nnan\n", "error: line 5: all distances must be finite"),
    # an overflowing sum belongs to no single row: reported at the DIST line
    ("4 2 2 2\n\nDIST\n1e308 1e308 1e308\n1e308 1e308\n1e308\n",
     "error: line 3: distances too large: their absolute sum overflows"),
    # so is a non-finite ATTR value, not at the header
    ("3 1 3 3\nATTR 1\nnum\nnan\n1\n2\n", "error: line 4: non-finite numeric value"),
    ("3 1 3 3\nATTR 2\nnum cat\n1 x\n2 y\n-inf z\n", "error: line 6: non-finite numeric value"),
    # an empty instance is refused at its header, before either body is read
    ("0 1 1 1\nDIST\n", "error: line 1: element count must be >= 1"),
    ("0 1 1 1\nATTR 1\nnum\n", "error: line 1: element count must be >= 1"),
], ids=["inf-row", "nan-row", "overflow", "attr-nan", "attr-inf", "dist-n0", "attr-n0"])
def test_cmd_dist_errors_report_their_line(text, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["solve", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, metric", [
    ("-1.7e308\n1.7e308", "manhattan"),
    ("-1.7e308\n1.7e308", "euclidean"),
    ("-1.7e308\n1.7e308", "gower"),
    ("1e200\n-1e200", "euclidean"),
], ids=["manhattan", "euclidean", "gower", "euclidean-square"])
def test_cmd_attr_overflow_reports_only_its_error(values, metric, tmp_path, capsys):
    # the per-column pass overflows to inf or nan, without numpy warnings
    path = tmp_path / "huge.txt"
    path.write_text(f"2 1 2 2\nATTR 1\nnum\n{values}\n")
    assert main(["solve", "--input", str(path), "--metric", metric]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 1: all distances must be finite\n"
    assert captured.out == ""


def test_cmd_solve_schema_error_on_categorical_manhattan(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("4 2 2 2\nATTR 2\nnum cat\n1 x\n2 y\n3 x\n4 y\n")
    code = main(["solve", "--input", str(path), "--metric", "manhattan"])
    assert code == 2
    assert "all-numeric" in capsys.readouterr().err


def test_cmd_solve_bad_numeric_flags(worked_file, capsys):
    code = main(
        ["solve", "--input", str(worked_file), "--solver", "heuristic",
         "--restarts", "0", "--seed", "1"]
    )
    assert code == 2
    assert "restarts" in capsys.readouterr().err
    # NaN compares false with every bound, so a plain "<= 0" check lets it through
    code = main(["solve", "--input", str(worked_file), "--time-limit", "nan"])
    assert code == 2
    assert "time_budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exact reports: stdout, stderr and exit code, elapsed times masked
# ---------------------------------------------------------------------------

N13_FILE = "13 3 4 5\nDIST\n" + "".join(
    " ".join(str(i * j % 7 + 1) for j in range(i + 1, 14)) + "\n" for i in range(1, 13)
)


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _mask_elapsed(text: str) -> str:
    text = re.sub(r"elapsed: [0-9.]+ ms", "elapsed: 0.0 ms", text)
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0.0', text)


def _worked_report(a: int, b: int, nodes: int) -> dict:
    return {
        "instance": {"n": 6, "G": 3, "a": a, "b": b},
        "solver": "bnb",
        "value": 9.0,
        "groups": [[1, 4], [2, 5], [3, 6]],
        "proven": True,
        "elapsed_ms": 0.0,
        "nodes": nodes,
    }


EXACT_CASES = {
    "solve-bnb-text": (
        ["solve", "--input", "{worked}", "--solver", "bnb"],
        0,
        "instance: n=6 G=3 a=2 b=3\n"
        "solver: bnb\n"
        "value: 9\n"
        "groups: {1,4} {2,5} {3,6}\n"
        "proven: yes\n"
        "nodes: 30\n"
        "elapsed: 0.0 ms\n",
        "",
    ),
    "solve-model-equal": (
        ["solve", "--input", "{worked}", "--model", "equal", "--json"],
        0,
        _json_text(_worked_report(2, 2, nodes=10)),
        "",
    ),
    "export-and-solve": (
        ["solve", "--input", "{worked}", "--export-lp", "{lp}", "--solver", "bnb", "--json"],
        0,
        _json_text(_worked_report(2, 3, nodes=30)),
        "",
    ),
    "export-only-json": (
        ["solve", "--input", "{worked}", "--export-lp", "{lp}", "--json"],
        0,
        _json_text(
            {"instance": {"n": 6, "G": 3, "a": 2, "b": 3}, "model": "unequal",
             "exported_lp": "{lp}"}
        ),
        "",
    ),
    "verify-oracle-past-cap": (
        ["verify", "--input", "{n13}", "--solution", "{sol13}", "--against-oracle"],
        0,
        "instance: n=13 G=3 a=4 b=5\n"
        "solution: {1,2,3,4} {5,6,7,8} {9,10,11,12,13}\n"
        "value: 92\n"
        "feasible: yes\n",
        "note: --against-oracle skipped (n=13 exceeds the enumeration cap 12)\n",
    ),
    "heuristic-past-cap-json": (
        ["solve", "--input", "{n13}", "--solver", "heuristic", "--seed", "1",
         "--restarts", "3", "--json"],
        0,
        _json_text({
            "instance": {"n": 13, "G": 3, "a": 4, "b": 5},
            "solver": "heuristic",
            "value": 113.0,
            "groups": [[2, 9, 10, 13], [1, 4, 5, 11, 12], [3, 6, 7, 8]],
            "proven": False,
            "elapsed_ms": 0.0,
            "nodes": 0,
        }),
        "",
    ),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_cmd_exact_output(name, tmp_path, capsys):
    paths = {
        "worked": tmp_path / "worked.txt",
        "n13": tmp_path / "n13.txt",
        "sol13": tmp_path / "sol13.txt",
        "lp": tmp_path / "model.lp",
    }
    paths["worked"].write_text(WORKED_FILE)
    paths["n13"].write_text(N13_FILE)
    paths["sol13"].write_text("1 2 3 4\n5 6 7 8\n9 10 11 12 13\n")
    fill = {key: str(path) for key, path in paths.items()}
    argv, code, out, err = EXACT_CASES[name]
    assert main([arg.format(**fill) for arg in argv]) == code
    captured = capsys.readouterr()
    assert _mask_elapsed(captured.out) == out.replace("{lp}", fill["lp"])
    assert captured.err == err
    assert paths["lp"].exists() == ("{lp}" in argv)


# ---------------------------------------------------------------------------
# the process exit code is the one `main` returns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    (["demonstrate"], 0),
    (["solve", "--input", "/nonexistent/file.txt"], 2),
], ids=["demonstrate", "missing-input"])
def test_cli_process_exit_code(argv, code):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mdgp.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error:")
    else:
        assert proc.stderr == ""
