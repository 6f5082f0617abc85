"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mdgp import solve_bruteforce

import oracle
import run as bench_run
import workloads as wl

BENCH = Path(wl.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "bnb-prove": dict(n=8, g=3, a=2, b=3, kind="mixed:2,2", gen_seed=5),
    "ilp-roundtrip": dict(n=9, g=3, a=2, b=4, kind="uniformkd:2", gen_seed=7),
}


def reference(workload):
    ref, problems = wl.compute_reference(workload, TINY[workload], None, trace=True)
    assert problems == []
    return {wl.spec_key(TINY[workload]): ref}


def run_tiny(workload, refs, trace=False):
    return wl.run(workload, 0, 0.0, trace, refs, specs=[TINY[workload]])


def test_generator_is_deterministic():
    for workload in wl.WORKLOADS:
        a, b = wl.instance_specs(workload, 3), wl.instance_specs(workload, 3)
        assert a == b
        assert [wl.spec_text(s) for s in a] == [wl.spec_text(s) for s in b]
        other = wl.instance_specs(workload, 4)
        assert {s["gen_seed"] for s in a}.isdisjoint(s["gen_seed"] for s in other)


@pytest.mark.parametrize("shape", [(8, 3, 2, 3, "mixed:2,2"), (9, 2, 4, 5, "uniformkd:3"), (10, 4, 2, 3, "uniformkd:2")])
def test_enumeration_oracle_matches_bruteforce(shape):
    n, g, a, b, kind = shape
    spec = dict(n=n, g=g, a=a, b=b, kind=kind, gen_seed=11)
    value, groups = oracle.enumerate_optimum(oracle.distances(wl.spec_text(spec)), g, a, b)
    assert oracle.close(value, solve_bruteforce(wl.load(spec)).value)
    assert oracle.feasibility_errors(groups, n, g, a, b) == []


@pytest.mark.parametrize("workload", ["bnb-prove", "ilp-roundtrip"])
def test_untampered_reference_passes(workload):
    res = run_tiny(workload, reference(workload), trace=True)
    assert res["failed"] == 0, res["failures"]


def test_tampered_optimum_fails():
    refs = reference("bnb-prove")
    ref = next(iter(refs.values()))
    ref["optimum"] *= 1.0 + 1e-6
    res = run_tiny("bnb-prove", refs)
    assert res["failed"] == res["attempted"] == 1


def test_tampered_ilp_golden_fails():
    refs = reference("ilp-roundtrip")
    next(iter(refs.values()))["violated"].append("lcount")
    assert run_tiny("ilp-roundtrip", refs)["failed"] == 1


def test_negative_bound_slack_is_flagged(monkeypatch):
    real = wl.upper_bound
    monkeypatch.setattr(wl, "upper_bound", lambda state: real(state) - 1.0)
    res = run_tiny("bnb-prove", reference("bnb-prove"), trace=True)
    assert res["failed"] == 1
    assert any("not admissible" in f for f in res["failures"])


def test_exact_counts_must_repeat():
    old = {"workload": "bnb-prove", "seed": 1, "code": "c", "trace": False, "exact": {"k": {"nodes": 10}}}
    new = dict(old, exact={"k": {"nodes": 11}})
    assert bench_run.exact_mismatches(new, [old])
    assert not bench_run.exact_mismatches(old, [old])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ilp-roundtrip", "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--out", str(tmp_path / "r.jsonl")],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in group
    }


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bnb-prove", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
