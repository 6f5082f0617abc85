"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Real
comparisons use absolute tolerance 1e-9 (1e-12 where stated).
"""

import time
from itertools import combinations
from math import comb

import numpy as np

from mdgp import (
    AttributeTable,
    Grouping,
    SearchState,
    build_equal,
    build_model,
    build_unequal,
    canonicalize,
    check_assignment,
    decode_partition,
    distance_matrix,
    encode_grouping,
    iter_set_partitions,
    multistart,
    objective_value,
    partial_value,
    solve_bnb,
    solve_bruteforce,
    upper_bound,
    validate_grouping,
)
from mdgp.cli import demonstrate, worked_example_instance
from mdgp.solver import _rounding_slack
from conftest import TOL, random_instance, seeded_cases

GOWER_TOL = 1e-12

_CASES = seeded_cases(100)
_ORACLE_CACHE: dict[tuple, float] = {}


def _oracle_value(case) -> float:
    if case not in _ORACLE_CACHE:
        seed, n, G, a, b = case
        _ORACLE_CACHE[case] = solve_bruteforce(random_instance(seed, n, G, a, b)).value
    return _ORACLE_CACHE[case]


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_correct_formulation_optimum():
    inst = worked_example_instance()
    t0 = time.perf_counter()
    brute = solve_bruteforce(inst)
    bnb = solve_bnb(inst)
    elapsed = time.perf_counter() - t0
    named = Grouping([(1, 5), (2, 4), (3, 6)])
    ok = (
        brute.value == 9.0
        and bnb.value == 9.0
        and bnb.proven
        and objective_value(named, inst.dist) == 9.0
        and elapsed < 1.0
    )
    _report(1, "worked example optimum is 9 and {1,5},{2,4},{3,6} attains it", ok,
            f"{elapsed:.3f}s")


def test_criterion_02_defective_formulation_counterexample():
    t0 = time.perf_counter()
    rep = demonstrate()
    elapsed = time.perf_counter() - t0
    ok = (
        rep["degree_only"] == {"value": 16.0, "groups": [[1, 3, 6], [2, 4, 5]]}
        and rep["violated"] == ["lcount"]
        and rep["correct"]["value"] == 9.0
        and elapsed < 1.0
    )
    _report(2, "degree-only relaxation reaches 16 and violates exactly lcount", ok,
            f"{elapsed:.3f}s")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst, beyond = 0.0, 0
    for case in _CASES:
        seed, n, G, a, b = case
        inst = random_instance(seed, n, G, a, b)
        bnb = solve_bnb(inst)
        diff = abs(bnb.value - _oracle_value(case))
        worst = max(worst, diff)
        beyond += diff > _rounding_slack(inst)
        assert bnb.proven
    elapsed = time.perf_counter() - t0
    ok = beyond == 0 and elapsed < 60.0 and len(_CASES) >= 100
    _report(3, f"bnb equals brute force on {len(_CASES)} seeded instances", ok,
            f"max |diff| {worst:.2e}, {beyond} beyond the rounding slack, {elapsed:.1f}s")


def test_criterion_04_ilp_soundness_completeness():
    combos = {
        6: [(3, 2, 3), (2, 2, 4)],
        7: [(3, 2, 3), (2, 3, 4)],
        8: [(3, 2, 3), (4, 2, 2)],
    }
    t0 = time.perf_counter()
    exceptions = 0
    checked = 0
    for n, settings in combos.items():
        partitions = list(iter_set_partitions(n))
        for G, a, b in settings:
            inst = random_instance(n * 100 + G, n, G, a, b)
            model = build_unequal(inst)
            for g in partitions:
                accepted = check_assignment(model, encode_grouping(g, "unequal")).satisfied
                feasible = validate_grouping(g, inst).feasible
                checked += 1
                if accepted != feasible:
                    exceptions += 1
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and elapsed < 60.0
    _report(4, "encoded partition satisfies the full model iff feasible "
               f"({checked} partition/model pairs, N=6..8)", ok,
            f"{exceptions} exceptions, {elapsed:.1f}s")


def test_criterion_05_decode_roundtrip():
    t0 = time.perf_counter()
    exceptions = 0
    total = 0
    for n in range(1, 9):
        for g in iter_set_partitions(n):
            total += 1
            asg = encode_grouping(g, "unequal")
            if decode_partition(asg.x, n) != canonicalize(g):
                exceptions += 1
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0
    _report(5, f"decode(encode(g)) == canonicalize(g) for all {total} partitions, N<=8",
            ok, f"{elapsed:.1f}s")


def test_criterion_06_equal_size_consistency():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (4, 6, 8):
        for G in (2, 3, 4):
            if n % G != 0:
                continue
            size = n // G
            inst = random_instance(n * 10 + G, n, G, size, size)
            equal_model = build_equal(inst)
            unequal_model = build_unequal(inst)
            for g in iter_set_partitions(n):
                eq_ok = check_assignment(equal_model, encode_grouping(g, "equal")).satisfied
                un_ok = check_assignment(unequal_model, encode_grouping(g, "unequal")).satisfied
                if eq_ok != un_ok:
                    ok = False
            brute = solve_bruteforce(inst)
            bnb = solve_bnb(inst)
            if abs(brute.value - bnb.value) > _rounding_slack(inst):
                ok = False
            details.append(f"N={n},G={G}")
    elapsed = time.perf_counter() - t0
    _report(6, "equal and unequal models accept the same groupings when a=b=N/G "
               f"[{', '.join(details)}]", ok, f"{elapsed:.1f}s")


def test_criterion_07_model_size_formulas():
    ok = True
    for n in range(3, 11):
        tri = 3 * comb(n, 3)
        expected = {
            "equal": (comb(n, 2), tri + n),
            "degree_only": (comb(n, 2), tri + 2 * n),
            "unequal": (comb(n, 2) + n - 1, tri + 2 * n + comb(n, 2) + (n - 1) + 1),
        }
        for variant, (nvars, ncons) in expected.items():
            G = n if variant == "equal" else 1
            inst = random_instance(n, n, G, 1, n)
            m = build_model(inst, variant)
            if len(m.variables) != nvars or len(m.constraints) != ncons:
                ok = False
    _report(7, "variable/constraint counts match closed forms, N=3..10, all variants", ok)


def _symmetry_states(inst):
    n, G, b = inst.n, inst.G, inst.b
    states = []

    def rec(labels):
        states.append(labels)
        if len(labels) == n:
            return
        k = max(labels, default=0)
        for g in range(1, min(k + 1, G) + 1):
            if labels.count(g) < b:
                rec(labels + (g,))

    rec(())
    return states


def _best_completion(inst, labels):
    n, G, a, b = inst.n, inst.G, inst.a, inst.b
    best = None

    def rec(labels):
        nonlocal best
        if len(labels) == n:
            sizes: dict[int, int] = {}
            for lab in labels:
                sizes[lab] = sizes.get(lab, 0) + 1
            if len(sizes) == G and all(a <= s <= b for s in sizes.values()):
                groups: list[list[int]] = [[] for _ in range(len(sizes))]
                for e, lab in enumerate(labels, 1):
                    groups[lab - 1].append(e)
                v = objective_value(Grouping(groups), inst.dist)
                if best is None or v > best:
                    best = v
            return
        k = max(labels, default=0)
        for g in range(1, min(k + 1, G) + 1):
            if labels.count(g) < b:
                rec(labels + (g,))

    rec(labels)
    return best


def test_criterion_08_bound_admissibility():
    suite = [
        (40, 4, 2, 1, 3), (41, 4, 2, 2, 2), (50, 5, 2, 2, 3), (51, 5, 3, 1, 2),
        (60, 6, 2, 2, 4), (61, 6, 3, 2, 3), (70, 7, 2, 3, 4), (71, 7, 3, 2, 3),
    ]
    t0 = time.perf_counter()
    violations = 0
    states_checked = 0
    for seed, n, G, a, b in suite:
        inst = random_instance(seed, n, G, a, b)
        for labels in _symmetry_states(inst):
            best = _best_completion(inst, labels)
            if best is None:
                continue  # no feasible completion: nothing to bound
            state = SearchState(inst, labels)
            states_checked += 1
            if partial_value(state) + upper_bound(state) + TOL < best:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(8, f"bound admissible at all {states_checked} reachable nodes (N<=7)", ok,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_09_heuristic_bounding():
    t0 = time.perf_counter()
    gaps = []
    breaches = 0
    for case in _CASES:
        seed, n, G, a, b = case
        inst = random_instance(seed, n, G, a, b)
        heur = multistart(inst, restarts=20, seed=seed)
        opt = _oracle_value(case)
        if heur.value > opt + TOL:
            breaches += 1
        gaps.append(opt - heur.value)
    elapsed = time.perf_counter() - t0
    mean_gap = float(np.mean(gaps))
    mean_rel = float(
        np.mean([g / o if (o := _oracle_value(c)) > 0 else 0.0 for g, c in zip(gaps, _CASES)])
    )
    ok = breaches == 0
    # no quality threshold asserted; the observed gap is reported as data
    _report(9, f"multistart(20) never exceeds the optimum on {len(_CASES)} instances",
            ok, f"mean gap {mean_gap:.4f} (relative {mean_rel:.2%}), {elapsed:.1f}s")


def test_criterion_10_gower_properties():
    rng = np.random.default_rng(12345)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        k_num = int(rng.integers(1, 4))
        k_cat = int(rng.integers(1, 4))
        schema = ("num",) * k_num + ("cat",) * k_cat
        rows = []
        for _ in range(n):
            row = [float(v) for v in rng.uniform(-50, 50, size=k_num)]
            row += [str(lab) for lab in rng.choice(list("abcd"), size=k_cat)]
            rows.append(tuple(row))
        rows.append(rows[0])  # force an identical pair
        table = AttributeTable(rows, schema)
        d = distance_matrix(table, "gower")
        m = table.n
        for i, j in combinations(range(1, m + 1), 2):
            v = d.lookup(i, j)
            if not (-GOWER_TOL <= v <= 1.0 + GOWER_TOL):
                failures += 1
            if abs(v - d.lookup(j, i)) > GOWER_TOL:
                failures += 1
        if abs(d.lookup(1, m)) > GOWER_TOL:  # identical rows
            failures += 1
    ok = failures == 0
    _report(10, "gower distances on 50 mixed tables lie in [0,1], symmetric, "
                "zero on identical rows", ok, f"{failures} failures")
