import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from mdgp import (
    METRICS,
    Grouping,
    Instance,
    SchemaError,
    canonicalize,
    cli,
    decode_partition,
    encode_grouping,
    objective_value,
    solver,
)
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


def _gen_kind(kind):
    return gen_instance(6, 2, 3, 3, kind=kind, seed=1)


# (reader, text, message, line): every input error the readers raise, with
# the line it names (None for an error that belongs to no line)
INPUT_ERRORS = {
    "empty-file": (parse_instance, "# only a comment\n\n", "empty instance file", None),
    "header-not-integer": (parse_instance, "3 1 3 x\nDIST\n1 2\n3\n",
                           "header must be 4 integers: N G a b", 1),
    "header-three-tokens": (parse_instance, "3 1 3\nDIST\n1 2\n3\n",
                            "header must be 4 integers: N G a b", 1),
    "header-five-tokens": (parse_instance, "3 1 3 3 3\nDIST\n1 2\n3\n",
                           "header must be 4 integers: N G a b", 1),
    "missing-section": (parse_instance, "# header only\n3 1 3 3\n",
                        "missing DIST or ATTR section", 2),
    "dist-arguments": (parse_instance, "3 1 3 3\nDIST 2\n1 2\n3\n", "DIST takes no arguments", 2),
    "dist-row-count": (parse_instance, "3 1 3 3\nDIST\n1 2\n",
                       "DIST body needs 2 rows, found 1", 2),
    "dist-row-width": (parse_instance, "3 1 3 3\nDIST\n1\n3\n", "row 1 needs 2 values, found 1", 3),
    "dist-malformed-value": (parse_instance, "3 1 3 3\nDIST\n1 oops\n3\n",
                             "malformed distance value", 3),
    # a malformed token is reported before a non-finite one in the same row
    "dist-malformed-and-inf": (parse_instance, "3 1 3 3\nDIST\ninf x\n3\n",
                               "malformed distance value", 3),
    "attr-no-count": (parse_instance, "3 1 3 3\nATTR\nnum\n1\n2\n3\n",
                      "ATTR needs a column count: ATTR K", 2),
    "attr-count-not-integer": (parse_instance, "3 1 3 3\nATTR one\nnum\n1\n2\n3\n",
                               "ATTR needs an integer column count", 2),
    "attr-count-0": (parse_instance, "3 1 3 3\nATTR 0\n\n1 2 3\n",
                     "ATTR column count must be >= 1", 2),
    "attr-no-schema": (parse_instance, "3 1 3 3\n\nATTR 1\n# no schema\n",
                       "missing schema line after ATTR", 3),
    "attr-bad-schema": (parse_instance, "3 1 3 3\nATTR 2\nnum int\n1 2\n2 3\n3 4\n",
                        "schema line needs 2 kinds (num|cat)", 3),
    "attr-row-count": (parse_instance, "3 1 3 3\nATTR 1\nnum\n1\n2\n",
                       "ATTR body needs 3 rows, found 2", 3),
    "attr-row-width": (parse_instance, "3 1 3 3\nATTR 1\nnum\n1\n2 3\n4\n",
                       "row needs 1 values, found 2", 5),
    "attr-malformed-value": (parse_instance, "3 1 3 3\nATTR 2\nnum cat\n1 a\n2 b\nx c\n",
                             "malformed numeric value 'x'", 6),
    # the same precedence as in a DIST row
    "attr-malformed-and-inf": (parse_instance, "3 1 3 3\nATTR 2\nnum num\ninf x\n1 2\n3 4\n",
                               "malformed numeric value 'x'", 4),
    "unknown-section": (parse_instance, "3 1 3 3\nDISTANCES\n1 2\n3\n",
                        "expected DIST or ATTR, found 'DISTANCES'", 2),
    "uniformkd-0": (_gen_kind, "uniformkd:0", "uniformkd needs at least one column", None),
    "mixed-0-0": (_gen_kind, "mixed:0,0", "mixed needs at least one column", None),
    "empty-solution": (parse_solution, "# no groups\n\n", "empty solution file", None),
}


def _shown(message, line):
    return message if line is None else f"line {line}: {message}"


@pytest.mark.parametrize("name", list(INPUT_ERRORS))
def test_input_errors_name_their_line(name):
    reader, text, message, line = INPUT_ERRORS[name]
    with pytest.raises(ValueError) as info:
        reader(text)
    assert str(info.value) == _shown(message, line)
    assert getattr(info.value, "line", None) == line


@pytest.mark.parametrize("name", ["missing-section", "attr-bad-schema", "attr-malformed-value",
                                  "uniformkd-0", "empty-solution"])
def test_input_errors_exit_2_through_main(name, tmp_path, capsys):
    reader, text, message, line = INPUT_ERRORS[name]
    path = tmp_path / "input.txt"
    path.write_text(text)
    worked = tmp_path / "worked.txt"
    worked.write_text(WORKED_FILE)
    if reader is parse_instance:
        argv = ["solve", "--input", str(path)]
    elif reader is parse_solution:
        argv = ["verify", "--input", str(worked), "--solution", str(path)]
    else:
        argv = ["gen", "--n", "6", "--g", "2", "--a", "3", "--b", "3", "--kind", text,
                "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_shown(message, line)}\n"
    assert captured.out == ""


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
    # the text summary line is pinned by EXACT_CASES["demonstrate-text"]
    rep = demonstrate()
    assert rep["correct"] == {"value": 9.0, "groups": [[1, 5], [2, 4], [3, 6]]}
    assert rep["degree_only"] == {"value": 16.0, "groups": [[1, 3, 6], [2, 4, 5]]}
    assert rep["violated"] == ["lcount"]


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
        ["--solver", "bruteforce", "--time-limit", "0.001"],
        ["--solver", "heuristic", "--seed", "1", "--time-limit", "nan"],
        ["--time-limit", "1"],
        ["--solver", "bnb", "--seed", "3"],
        ["--solver", "bruteforce", "--restarts", "-5", "--seed", "3"],
        ["--seed", "1"],
    ],
    ids=["degree-only", "no-seed", "zero-restarts", "bruteforce-time-limit",
         "heuristic-time-limit", "export-only-time-limit", "bnb-seed", "bruteforce-restarts",
         "export-only-seed"],
)
def test_cmd_solve_refusal_writes_no_lp(worked_file, tmp_path, capsys, flags):
    lp_path = tmp_path / "model.lp"
    code = main(["solve", "--input", str(worked_file), "--export-lp", str(lp_path), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not lp_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--restarts", "0"], "--restarts applies to --solver heuristic only"),
    (["--solver", "bruteforce", "--seed", "3"], "--seed applies to --solver heuristic only"),
    (["--solver", "heuristic", "--seed", "3", "--time-limit", "1"],
     "--time-limit applies to --solver bnb only"),
], ids=["bnb-restarts", "bruteforce-seed", "heuristic-time-limit"])
def test_cmd_solve_names_the_solver_a_flag_belongs_to(worked_file, capsys, flags, message):
    assert main(["solve", "--input", str(worked_file), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cmd_metric_on_a_dist_body_refused(command, tmp_path, capsys):
    # a DIST body carries its distances: no metric applies to it
    path = tmp_path / "dist.txt"
    path.write_text("3 1 3 3\nDIST\n1 2\n3\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("1 2 3\n")
    argv = {
        "solve": ["solve", "--input", str(path)],
        "verify": ["verify", "--input", str(path), "--solution", str(sol)],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--metric", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --metric applies to ATTR instances only\n"
    assert captured.out == ""


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


def test_cmd_solve_equal_model_keeps_the_columns(tmp_path, capsys):
    # --model equal narrows [3, 5] to [4, 4]; the instance keeps its two
    # columns, so the closed form proves it with no node, where the same
    # instance without columns needs a search
    path = tmp_path / "uk.txt"
    path.write_text(gen_instance(12, 3, 3, 5, "uniformkd:2", seed=1))
    code, report = _solve_json(capsys, "solve", "--input", str(path), "--model", "equal", "--json")
    assert code == 0
    assert report["instance"] == {"n": 12, "G": 3, "a": 4, "b": 4}
    assert report["proven"] is True and report["nodes"] == 0
    inst = parse_instance(path.read_text()).instance
    searched = solver.solve_bnb(Instance(inst.dist, 3, 4, 4))
    assert searched.nodes_explored > 0
    assert abs(searched.value - report["value"]) <= solver._rounding_slack(inst)


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


def test_cmd_verify_elapsed_excludes_oracle(worked_file, tmp_path, monkeypatch, capsys):
    def slow_gap(inst, value):
        time.sleep(0.5)
        return 0.0

    monkeypatch.setattr(cli, "_oracle_gap", slow_gap)
    sol = tmp_path / "sol.txt"
    sol.write_text("1 5\n2 4\n3 6\n")
    code = main(["verify", "--input", str(worked_file), "--solution", str(sol),
                 "--against-oracle", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap"] == 0.0
    assert report["elapsed_ms"] < 500


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


@pytest.mark.parametrize("listed, message", [
    ("1 2 9\n3 4 5 6\n", "element 9 out of range 1..6"),
    ("1 1 2\n3 4 5 6\n", "element 1 listed twice"),
    ("1 2\n3 4\n", "elements not covered: [5, 6]"),
])
def test_cmd_verify_json_reports_a_non_partition(worked_file, tmp_path, capsys, listed, message):
    # a --json consumer gets JSON for a solution that is not a partition
    # too, with the plain text's message as its one violation
    sol = tmp_path / "sol.txt"
    sol.write_text(listed)
    argv = ["verify", "--input", str(worked_file), "--solution", str(sol)]
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "instance": {"n": 6, "G": 3, "a": 2, "b": 3},
        "solver": "verify",
        "groups": [[int(e) for e in line.split()] for line in listed.splitlines()],
        "feasible": False,
        "violations": [message],
    }
    assert captured.err == ""
    assert main(argv) == 2
    assert capsys.readouterr().out == f"verification failure: {message}\n"


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
    # a count whose rows could not be held fails before anything is
    # allocated, whether or not it fits an index, and so does a total of
    # columns that is too large only at this N
    kinds = ("uniformkd:99999999999999999999", "mixed:1,99999999999999999999",
             "uniformkd:99999999999", "mixed:0,99999999999", "mixed:100000,100000")
    for kind in kinds:
        code = main(["gen", "--n", "6", "--g", "2", "--a", "3", "--b", "3",
                     "--kind", kind, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "too large" in captured.err
        assert repr(kind) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_cmd_solve_missing_file(capsys):
    code = main(["solve", "--input", "/nonexistent/file.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cmd_solve_allocation_failure(worked_file, monkeypatch, capsys):
    # an instance too large for the machine's memory: numpy raises a
    # MemoryError subclass while building its arrays
    def no_memory(text, metric="manhattan"):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")
    monkeypatch.setattr(cli, "parse_instance", no_memory)
    code = main(["solve", "--input", str(worked_file), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "Unable to allocate" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


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


def test_cmd_distances_near_the_float_limit_refused(tmp_path, capsys):
    # each entry and their absolute sum are finite, but a swap score adds up
    # to four times that sum, which overflows
    path = tmp_path / "huge.txt"
    path.write_text("4 2 2 2\nDIST\n1.5e308 1 2\n3 4\n5\n")
    for solver_name in ("bnb", "heuristic"):
        assert main(["solve", "--input", str(path), "--solver", solver_name]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: line 2: distances too large: four times their absolute "
                                "sum overflows (it must stay below about 4.49e+307)\n")
        assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_cmd_distances_just_under_the_limit_solve(tmp_path):
    # an absolute sum of 4.3e307, just under max/4 (about 4.49e307), is
    # accepted, and every solver runs without an overflow warning
    path = tmp_path / "large.txt"
    path.write_text("4 2 2 2\nDIST\n1e307 1.5e307 3e306\n4e306 5e306\n6e306\n")
    reports = [_run_main("solve", "--input", str(path), "--solver", name, *flags, "--json")
               for name, flags in (("bnb", ()), ("bruteforce", ()),
                                   ("heuristic", ("--seed", "0")))]
    assert {report["value"] for report in reports} == {2e307}
    assert all(report["groups"] == [[1, 3], [2, 4]] for report in reports)


@pytest.mark.parametrize("text, message", [
    # a non-finite entry is reported on its own row
    ("3 1 3 3\nDIST\n1 inf\n2\n", "error: line 3: all distances must be finite"),
    ("# nan below\n3 1 3 3\nDIST\n1 2\nnan\n", "error: line 5: all distances must be finite"),
    # an overflowing sum belongs to no single row: reported at the DIST line
    ("4 2 2 2\n\nDIST\n1e308 1e308 1e308\n1e308 1e308\n1e308\n",
     "error: line 3: distances too large: four times their absolute sum overflows "
     "(it must stay below about 4.49e+307)"),
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


@st.composite
def _dist_texts(draw):
    """DIST instance text with N <= 7: integer values in -2..3, which tie
    often, or signed floats, written with their repr."""
    n = draw(st.integers(1, 7))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    value = st.one_of(st.integers(-2, 3).map(str),
                      st.floats(-100, 100, allow_subnormal=False).map(repr))
    rows = [" ".join(draw(st.lists(value, min_size=n - i, max_size=n - i)))
            for i in range(1, n)]
    return "\n".join([f"{n} {G} {a} {b}", "DIST", *rows]) + "\n"


def _call_main(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `main` call, which never prints a
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _run_main(*argv) -> dict:
    code, out, err = _call_main(*argv)
    assert code == 0, err
    return json.loads(out)


_EDIT_TOKENS = ("x", "inf", "nan", "1e308", "num", "cat", "DIST", "ATTR", "#",
                "-1", "0", "1", "2", "3")


@st.composite
def _mutated_texts(draw):
    """A valid instance text, `gen` ATTR output with N <= 8 or signed DIST
    text, with one to three token or line edits."""
    kind = draw(st.sampled_from(("uniform1d", "uniformkd:2", "mixed:1,2", None)))
    if kind is None:
        text = draw(_dist_texts())
    else:
        n = draw(st.integers(1, 8))
        G = draw(st.integers(1, n))
        a = draw(st.integers(1, n // G))
        b = draw(st.integers(-(-n // G), n))
        text = gen_instance(n, G, a, b, kind, seed=draw(st.integers(0, 2**32)))
    lines = [line.split() for line in text.splitlines()]
    token = st.sampled_from(_EDIT_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        # counted from the end: small draws, which hypothesis favours, edit body rows
        i = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(("replace", "insert", "drop", "drop-line", "copy-line",
                                     "new-line")))
        if edit == "replace" and j < len(lines[i]):
            lines[i][j] = draw(token)
        elif edit == "insert":
            lines[i].insert(j, draw(token))
        elif edit == "drop" and j < len(lines[i]):
            del lines[i][j]
        elif edit == "drop-line" and len(lines) > 1:
            del lines[i]
        elif edit == "copy-line":
            lines.insert(i, list(lines[i]))
        elif edit == "new-line":
            lines.insert(i, draw(st.lists(token, min_size=1, max_size=3)))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated_texts(), st.sampled_from((None, *METRICS)))
def test_mutated_instance_text_is_read_or_refused(tmp_path_factory, text, metric):
    # every edit of a valid text is read as an instance of the header's N, or
    # refused with a line of the text; through main it exits 0 or 2, never
    # with a traceback, and a solved report follows REPORT_SCHEMA
    loaded = None
    try:
        loaded = parse_instance(text, metric or "manhattan")
    except ParseError as exc:
        assert exc.line is None or 1 <= exc.line <= len(text.splitlines())
    except SchemaError:
        pass
    if loaded is not None:
        header = next(line for line in text.splitlines()
                      if line.strip() and not line.strip().startswith("#"))
        assert loaded.instance.n == int(header.split()[0])
        if loaded.instance.n > 8:
            return
    path = tmp_path_factory.mktemp("mutated") / "inst.txt"
    path.write_text(text)
    argv = ["solve", "--input", str(path), "--solver", "bruteforce", "--json"]
    if metric is not None:
        argv += ["--metric", metric]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), REPORT_SCHEMA)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_dist_texts())
def test_dist_text_solves_and_verifies(tmp_path_factory, text):
    # instance text through the whole command line: the branch-and-bound
    # matches the oracle within rounding, and its groups verify as feasible
    # at exactly the value it reports
    folder = tmp_path_factory.mktemp("dist")
    inst_path, sol_path = folder / "inst.txt", folder / "sol.txt"
    inst_path.write_text(text)
    bnb = _run_main("solve", "--input", str(inst_path), "--solver", "bnb", "--json")
    exact = _run_main("solve", "--input", str(inst_path), "--solver", "bruteforce", "--json")
    slack = solver._rounding_slack(parse_instance(text).instance)
    assert abs(bnb["value"] - exact["value"]) <= slack
    sol_path.write_text("".join(" ".join(map(str, g)) + "\n" for g in bnb["groups"]))
    checked = _run_main("verify", "--input", str(inst_path), "--solution", str(sol_path),
                        "--json")
    assert checked["feasible"] is True
    assert checked["value"] == bnb["value"]


_INSTANCE_SCHEMA = REPORT_SCHEMA["properties"]["instance"]
_GROUPS_SCHEMA = REPORT_SCHEMA["properties"]["groups"]
_STRINGS_SCHEMA = {"type": "array", "items": {"type": "string"}}


def _object_schema(required: dict, optional: dict | None = None) -> dict:
    return {
        "type": "object",
        "properties": {**required, **(optional or {})},
        "required": list(required),
        "additionalProperties": False,
    }


def _validator(schema: dict) -> jsonschema.Draft202012Validator:
    # the schema is checked once here: jsonschema.validate checks it again
    # on every call, which would be most of a fuzz test's time
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


# the report shapes besides a solve's REPORT_SCHEMA
VERIFY_SCHEMA = _object_schema(
    {"instance": _INSTANCE_SCHEMA, "solver": {"const": "verify"}, "value": {"type": "number"},
     "groups": _GROUPS_SCHEMA, "feasible": {"type": "boolean"},
     "violations": _STRINGS_SCHEMA, "elapsed_ms": {"type": "number"}},
    {"gap": {"type": "number"}},
)
NON_PARTITION_SCHEMA = _object_schema(
    {"instance": _INSTANCE_SCHEMA, "solver": {"const": "verify"}, "groups": _GROUPS_SCHEMA,
     "feasible": {"const": False},
     "violations": {**_STRINGS_SCHEMA, "minItems": 1, "maxItems": 1}},
)
EXPORT_SCHEMA = _object_schema(
    {"instance": _INSTANCE_SCHEMA, "model": {"enum": list(cli.CLI_MODELS)},
     "exported_lp": {"type": "string"}},
)
_VALUED_GROUPS_SCHEMA = _object_schema({"value": {"type": "number"}, "groups": _GROUPS_SCHEMA})
DEMONSTRATE_SCHEMA = _object_schema(
    {"correct": _VALUED_GROUPS_SCHEMA, "degree_only": _VALUED_GROUPS_SCHEMA,
     "violated": _STRINGS_SCHEMA},
)
_SOLVE, _VERIFY, _NON_PARTITION, _EXPORT = map(
    _validator, (REPORT_SCHEMA, VERIFY_SCHEMA, NON_PARTITION_SCHEMA, EXPORT_SCHEMA))


def test_demonstrate_report_follows_its_schema():
    jsonschema.validate(_run_main("demonstrate", "--json"), DEMONSTRATE_SCHEMA)


_NUM_TOKENS = ("0.1", "0.2", "0.30000000000000004", "-0.0", "1e-300",
               "-2", "-1", "0", "1", "2", "3")
_CAT_TOKENS = ("a", "b", "1", "1.0")  # labels compare as text: "1" != "1.0"
_GAPS = (" ", "\t", "  ", " \t ")
_EDGES = ("", " ", "\t", "  ")
_NOISE = ("", "   ", "\t", "# comment", "  # indented comment", "#")


@st.composite
def _attr_cases(draw):
    """A metric and a valid ATTR instance text with N <= 8 and 1-3 num or cat
    columns: decimal ties, -0.0, 1e-300 and small integers, tokens split by
    spaces and tabs, lines padded and mixed with comments and blank lines.
    A cat column, which only gower accepts, is rarer under the other metrics."""
    metric = draw(st.sampled_from(METRICS))
    n = draw(st.integers(1, 8))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    kinds = ("num", "cat") if metric == "gower" else ("num",) * 5 + ("cat",)
    schema = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    pools = {"num": st.sampled_from(_NUM_TOKENS), "cat": st.sampled_from(_CAT_TOKENS)}
    rows = [[str(n), str(G), str(a), str(b)], ["ATTR", str(len(schema))], schema]
    rows += [[draw(pools[kind]) for kind in schema] for _ in range(n)]
    lines = []
    for tokens in rows:
        lines += draw(st.lists(st.sampled_from(_NOISE), max_size=1))
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(st.sampled_from(_GAPS)) + token
        lines.append(draw(st.sampled_from(_EDGES)) + line + draw(st.sampled_from(_EDGES)))
    return "\n".join(lines) + "\n", metric


def _solution_text(groups) -> str:
    return "".join(" ".join(map(str, g)) + "\n" for g in groups if g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_attr_cases())
def test_attr_text_solves_exports_and_verifies(tmp_path_factory, case):
    # a valid ATTR body through every command, its metric named: the exact
    # solvers agree within rounding, the heuristic stays below them, the
    # groups verify at bnb's value and survive encode and decode, each LP is
    # whole, and every report follows its schema
    text, metric = case
    folder = tmp_path_factory.mktemp("attr")
    inst_path, sol_path, lp_path = folder / "inst.txt", folder / "sol.txt", folder / "m.lp"
    inst_path.write_text(text)
    source = ("--input", str(inst_path), "--metric", metric)
    code, out, err = _call_main("solve", *source, "--solver", "bnb", "--json")
    if code == 2:
        assert metric != "gower" and "cat" in text.split()
        assert err == (f"error: {metric} distance requires an all-numeric schema; "
                       "use gower for mixed attributes\n")
        return
    assert code == 0, err
    bnb = json.loads(out)
    exact = _run_main("solve", *source, "--solver", "bruteforce", "--json")
    heuristic = _run_main("solve", *source, "--solver", "heuristic", "--restarts", "3",
                          "--seed", "0", "--json")
    for report in (bnb, exact, heuristic):
        _SOLVE.validate(report)
    inst = parse_instance(text, metric).instance
    slack = solver._rounding_slack(inst)
    assert abs(bnb["value"] - exact["value"]) <= slack
    assert heuristic["value"] <= exact["value"] + slack

    for found in (bnb, heuristic):
        sol_path.write_text(_solution_text(found["groups"]))
        checked = _run_main("verify", *source, "--solution", str(sol_path), "--json")
        _VERIFY.validate(checked)
        assert checked["feasible"] is True
        assert checked["value"] == found["value"]

    grouping = Grouping(bnb["groups"])
    assert decode_partition(encode_grouping(grouping).x, inst.n) == canonicalize(grouping)
    if inst.n > 1:
        # element n dropped: a non-partition, reported as such
        sol_path.write_text(_solution_text([[e for e in g if e != inst.n] for g in bnb["groups"]]))
        code, out, err = _call_main("verify", *source, "--solution", str(sol_path), "--json")
        assert code == 2 and err == ""
        report = json.loads(out)
        _NON_PARTITION.validate(report)
        assert report["violations"] == [f"elements not covered: [{inst.n}]"]

    for model in cli.CLI_MODELS:
        if model == "equal" and inst.n % inst.G:
            continue
        exported = _run_main("solve", *source, "--model", model, "--export-lp", str(lp_path),
                             "--json")
        _EXPORT.validate(exported)
        lp = lp_path.read_text()
        assert lp.startswith("\\ ") and lp.rstrip().endswith("End")


# the largest absolute distance sum a DIST body may have: a swap score or a
# bound adds up to four times it
_SUM_LIMIT = sys.float_info.max / 4


@st.composite
def _dist_cases(draw):
    """A DIST instance text with N <= 7 and whether its absolute sum is over
    _SUM_LIMIT. Values come from decimal ties, -0.0, 1e-300 and -2..3; in
    some bodies they are scaled so that their absolute sum lands just under
    or just over the limit, or far over it."""
    n = draw(st.integers(1, 7))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    values = [float(v) for v in draw(st.lists(st.sampled_from(_NUM_TOKENS),
                                              min_size=n * (n - 1) // 2,
                                              max_size=n * (n - 1) // 2))]
    share = None
    if n > 1 and draw(st.booleans()):
        share = draw(st.sampled_from((0.99, 1.01, 0.5, 3.0)))
        if not any(values):
            values[0] = 1.0
        total = math.fsum(map(abs, values))
        values = [v / total * (share * _SUM_LIMIT) for v in values]
    rows, k = [], 0
    for i in range(1, n):
        rows.append(" ".join(map(repr, values[k:k + n - i])))
        k += n - i
    over = share is not None and share > 1
    return "\n".join([f"{n} {G} {a} {b}", "DIST", *rows]) + "\n", over


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(_dist_cases())
def test_dist_edge_values_solve_export_and_verify(tmp_path_factory, case):
    # a DIST body of tied, signed, tiny or near-overflow values through every
    # command: one over the sum limit is refused with exit 2, any other
    # solves without a numpy warning (raised as an error here), the exact solvers agree within rounding, the
    # heuristic stays below them, bnb's groups verify at its value, each LP
    # is whole, and every report follows its schema
    text, over = case
    folder = tmp_path_factory.mktemp("dist-edge")
    inst_path, sol_path, lp_path = folder / "inst.txt", folder / "sol.txt", folder / "m.lp"
    inst_path.write_text(text)
    source = ("--input", str(inst_path))
    runs = {name: _call_main("solve", *source, "--solver", name, *flags, "--json")
            for name, flags in (("bnb", ()), ("bruteforce", ()),
                                ("heuristic", ("--restarts", "3", "--seed", "0")))}
    for code, out, err in runs.values():
        assert code in (0, 2, 3)
        assert "Warning" not in err
    if over:
        for code, out, err in runs.values():
            assert code == 2 and out == ""
            assert err.startswith("error: line 2: ") and "too large" in err
        return
    bnb, exact, heuristic = (json.loads(out) for code, out, err in runs.values())
    for (code, out, err), report in zip(runs.values(), (bnb, exact, heuristic)):
        assert code == 0, err
        _SOLVE.validate(report)
    inst = parse_instance(text).instance
    slack = solver._rounding_slack(inst)
    assert abs(bnb["value"] - exact["value"]) <= slack
    assert heuristic["value"] <= exact["value"] + slack

    sol_path.write_text(_solution_text(bnb["groups"]))
    checked = _run_main("verify", *source, "--solution", str(sol_path), "--json")
    _VERIFY.validate(checked)
    assert checked["feasible"] is True
    assert checked["value"] == bnb["value"]

    for model in cli.CLI_MODELS:
        if model == "equal" and inst.n % inst.G:
            continue
        code, out, err = _call_main("solve", *source, "--model", model, "--export-lp",
                                    str(lp_path), "--json")
        assert code == 0 and "Warning" not in err, err
        _EXPORT.validate(json.loads(out))
        lp = lp_path.read_text()
        assert lp.startswith("\\ ") and lp.rstrip().endswith("End")


# ---------------------------------------------------------------------------
# exact reports: stdout, stderr and exit code, elapsed times masked
# ---------------------------------------------------------------------------

def _mod_seven_file(n, g, a, b):
    """DIST instance text with d(i, j) = i*j mod 7 + 1."""
    return f"{n} {g} {a} {b}\nDIST\n" + "".join(
        " ".join(str(i * j % 7 + 1) for j in range(i + 1, n + 1)) + "\n" for i in range(1, n)
    )


N12_FILE = _mod_seven_file(12, 3, 3, 5)
N13_FILE = _mod_seven_file(13, 3, 4, 5)


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
        "nodes: 0\n"
        "elapsed: 0.0 ms\n",
        "",
    ),
    "solve-bruteforce-text": (
        ["solve", "--input", "{worked}", "--solver", "bruteforce"],
        0,
        "instance: n=6 G=3 a=2 b=3\n"
        "solver: bruteforce\n"
        "value: 9\n"
        "groups: {1,4} {2,5} {3,6}\n"
        "proven: yes\n"
        "nodes: 15\n"
        "elapsed: 0.0 ms\n",
        "",
    ),
    "solve-model-equal": (
        ["solve", "--input", "{worked}", "--model", "equal", "--json"],
        0,
        _json_text(_worked_report(2, 2, nodes=0)),
        "",
    ),
    "export-and-solve": (
        ["solve", "--input", "{worked}", "--export-lp", "{lp}", "--solver", "bnb", "--json"],
        0,
        _json_text(_worked_report(2, 3, nodes=0)),
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
    "export-only-text": (
        ["solve", "--input", "{worked}", "--export-lp", "{lp}"],
        0,
        "exported unequal model (6 elements) to {lp}\n",
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
    "heuristic-gap-text": (
        ["solve", "--input", "{n12}", "--solver", "heuristic", "--seed", "2", "--restarts", "1"],
        0,
        "instance: n=12 G=3 a=3 b=5\n"
        "solver: heuristic\n"
        "value: 101\n"
        "groups: {1,4,5,12} {2,3,6,9,10} {7,8,11}\n"
        "proven: no\n"
        "nodes: 0\n"
        "elapsed: 0.0 ms\n"
        "gap vs exact optimum: 2\n",
        "",
    ),
    "demonstrate-text": (
        ["demonstrate"],
        0,
        "worked example: six elements valued 1..6, manhattan, G=3, a=2, b=3\n"
        "correct formulation optimum: 9\n"
        "  attained by: {1,5} {2,4} {3,6}\n"
        "degree-bounds-only optimum (any group count): 16\n"
        "  attained by: {1,3,6} {2,4,5} (2 groups, not 3)\n"
        "  full-model rows violated by that encoding: lcount\n"
        "correct: 9, degree-only: 16, violated: lcount\n",
        "",
    ),
    "demonstrate-json": (
        ["demonstrate", "--json"],
        0,
        _json_text({
            "correct": {"value": 9.0, "groups": [[1, 5], [2, 4], [3, 6]]},
            "degree_only": {"value": 16.0, "groups": [[1, 3, 6], [2, 4, 5]]},
            "violated": ["lcount"],
        }),
        "",
    ),
    "verify-json": (
        ["verify", "--input", "{worked}", "--solution", "{sol}", "--json"],
        0,
        _json_text({
            "instance": {"n": 6, "G": 3, "a": 2, "b": 3},
            "solver": "verify",
            "value": 9.0,
            "groups": [[1, 5], [2, 4], [3, 6]],
            "feasible": True,
            "violations": [],
            "elapsed_ms": 0.0,
        }),
        "",
    ),
    "verify-oracle-gap-text": (
        ["verify", "--input", "{worked}", "--solution", "{pairs}", "--against-oracle"],
        0,
        "instance: n=6 G=3 a=2 b=3\n"
        "solution: {1,2} {3,4} {5,6}\n"
        "value: 3\n"
        "feasible: yes\n"
        "gap vs exact optimum: 6\n",
        "",
    ),
    "verify-violations-text": (
        ["verify", "--input", "{worked}", "--solution", "{two_groups}"],
        2,
        "instance: n=6 G=3 a=2 b=3\n"
        "solution: {1,3,6} {2,4,5}\n"
        "value: 16\n"
        "feasible: no\n"
        "  - group count 2 != G=3\n",
        "",
    ),
    "verify-violations-json": (
        ["verify", "--input", "{worked}", "--solution", "{two_groups}", "--json"],
        2,
        _json_text({
            "instance": {"n": 6, "G": 3, "a": 2, "b": 3},
            "solver": "verify",
            "value": 16.0,
            "groups": [[1, 3, 6], [2, 4, 5]],
            "feasible": False,
            "violations": ["group count 2 != G=3"],
            "elapsed_ms": 0.0,
        }),
        "",
    ),
    "gen-stdout": (
        ["gen", "--n", "5", "--g", "2", "--a", "2", "--b", "3", "--kind", "mixed:1,2",
         "--seed", "3"],
        0,
        "# generated: kind=mixed:1,2 seed=3\n"
        "5 2 2 3\n"
        "ATTR 3\n"
        "num cat cat\n"
        "11.345034 b b\n"
        "7.286674 c d\n"
        "13.514586 c c\n"
        "88.852940 a d\n"
        "48.016450 d a\n",
        "",
    ),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_cmd_exact_output(name, tmp_path, capsys):
    texts = {
        "worked": WORKED_FILE,
        "sol": "1 5\n2 4\n3 6\n",
        "two_groups": "1 3 6\n2 4 5\n",
        "pairs": "1 2\n3 4\n5 6\n",
        "n12": N12_FILE,
        "n13": N13_FILE,
        "sol13": "1 2 3 4\n5 6 7 8\n9 10 11 12 13\n",
    }
    paths = {key: tmp_path / f"{key}.txt" for key in texts}
    for key, text in texts.items():
        paths[key].write_text(text)
    paths["lp"] = tmp_path / "model.lp"
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

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "mdgp.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("argv, code", [
    (["demonstrate"], 0),
    (["solve", "--input", "/nonexistent/file.txt"], 2),
], ids=["demonstrate", "missing-input"])
def test_cli_process_exit_code(argv, code):
    proc = subprocess.run(
        [*CLI, *argv], cwd=ROOT, env=CLI_ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error:")
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{worked}", "--solver", "bruteforce", "--json"],
    ["gen", "--n", "6", "--g", "3", "--a", "2", "--b", "2", "--seed", "1"],
], ids=["solve", "gen"])
def test_cli_closed_stdout_is_not_an_error(argv, tmp_path):
    # the reader goes away before the report is written, as with `| head -c 1`:
    # the command keeps its own exit code and says nothing on stderr
    worked = tmp_path / "worked.txt"
    worked.write_text(WORKED_FILE)
    proc = subprocess.Popen(
        [*CLI, *(arg.format(worked=worked) for arg in argv)], cwd=ROOT, env=CLI_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # the child imports numpy for well over 100 ms before it writes
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0, err
    assert err == b""
