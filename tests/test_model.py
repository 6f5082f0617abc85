import dataclasses
import hashlib
import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgp import (
    DistanceMatrix,
    Grouping,
    Instance,
    PairAssignment,
    build_degree_only,
    build_equal,
    build_model,
    build_unequal,
    check_assignment,
    encode_grouping,
    export_lp,
    greedy_construct,
    iter_set_partitions,
    objective_value,
    validate_grouping,
)
from mdgp.cli import gen_instance, parse_instance, worked_example_instance
from conftest import TOL, random_instance


# ---------------------------------------------------------------------------
# test-only LP parser for the round-trip check
# ---------------------------------------------------------------------------

def _parse_terms(expr: str, cast):
    terms = {}
    sign = 1
    coeff: str | None = None
    for tok in expr.split():
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif re.fullmatch(r"[xy]_\d+(_\d+)?", tok):
            terms[tok] = sign * cast(coeff if coeff is not None else "1")
            sign, coeff = 1, None
        else:
            coeff = tok
    return terms


def parse_lp(text: str):
    objective: dict[str, float] = {}
    constraints: list[tuple[str, dict[str, int], str, int]] = []
    binaries: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line in ("Maximize", "Subject To", "Binaries", "End"):
            section = line
            continue
        if section == "Maximize":
            _, expr = line.split(":", 1)
            objective = _parse_terms(expr, float)
        elif section == "Subject To":
            name, rest = line.split(":", 1)
            m = re.fullmatch(r"(.*?)\s*(<=|>=|=)\s*(-?\d+)", rest.strip())
            assert m, f"unparseable constraint: {line}"
            constraints.append(
                (name.strip(), _parse_terms(m.group(1), int), m.group(2), int(m.group(3)))
            )
        elif section == "Binaries":
            binaries.extend(line.split())
    return objective, constraints, binaries


def model_rows(model):
    """(name, sense, rhs, {column name: coefficient}) per row, read from the
    model's CSR arrays and row bounds."""
    rows = []
    for r, name in enumerate(model.constraints):
        lo, hi = model.lo[r], model.hi[r]
        if lo == hi:
            sense, rhs = "=", lo
        else:
            # a one-sided row: exactly one bound is infinite
            assert np.isneginf(lo) != np.isposinf(hi), name
            sense, rhs = ("<=", hi) if np.isneginf(lo) else (">=", lo)
        cols = model.indices[model.indptr[r]:model.indptr[r + 1]]
        coefs = model.coefs[model.indptr[r]:model.indptr[r + 1]]
        terms = {model.variables[k]: int(c) for k, c in zip(cols, coefs)}
        rows.append((name, sense, rhs, terms))
    return rows


# ---------------------------------------------------------------------------
# model sizes
# ---------------------------------------------------------------------------

def expected_counts(n: int, variant: str) -> tuple[int, int]:
    tri = 3 * comb(n, 3)
    if variant == "equal":
        return comb(n, 2), tri + n
    if variant == "degree_only":
        return comb(n, 2), tri + 2 * n
    return comb(n, 2) + (n - 1), tri + 2 * n + comb(n, 2) + (n - 1) + 1


def test_worked_example_unequal_counts(worked_instance):
    m = build_unequal(worked_instance)
    assert len(m.variables) == 20  # 15 pair + 5 leader
    by_prefix = {}
    for name in m.constraints:
        by_prefix.setdefault(name.split("_")[0], []).append(name)
    assert len(by_prefix["tri1"]) == len(by_prefix["tri2"]) == len(by_prefix["tri3"]) == 20
    assert len(by_prefix["dmin"]) == len(by_prefix["dmax"]) == 6
    assert len(by_prefix["lex"]) == 15
    assert len(by_prefix["lforce"]) == 5
    assert len(by_prefix["lcount"]) == 1
    assert len(m.constraints) == 93


def test_single_triple_has_three_triangle_rows():
    inst = random_instance(0, 3, 1, 2, 3)
    m = build_degree_only(inst)
    tri = [name for name in m.constraints if name.startswith("tri")]
    assert len(tri) == 3


def test_equal_model_counts(worked_instance):
    m = build_equal(worked_instance)
    assert len(m.variables) == 15
    assert len(m.constraints) == 66
    for name, sense, rhs, _ in model_rows(m):
        if name.startswith("deq"):
            assert sense == "=" and rhs == 1  # N/G - 1


def test_equal_model_degree_two():
    inst = random_instance(2, 6, 2, 3, 3)
    m = build_equal(inst)
    deq = [row for row in model_rows(m) if row[0].startswith("deq")]
    assert len(deq) == 6 and all(rhs == 2 for _, _, rhs, _ in deq)


def test_equal_model_rejects_indivisible():
    inst = random_instance(3, 5, 2, 2, 3)
    with pytest.raises(ValueError, match="equal-size formulation inapplicable"):
        build_equal(inst)


def test_degree_only_counts(worked_instance):
    m = build_degree_only(worked_instance)
    assert len(m.variables) == 15
    assert len(m.constraints) == 72


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("variant", ["equal", "unequal", "degree_only"])
def test_size_formulas(n, variant):
    G = 1 if variant != "equal" else n  # equal needs divisibility
    inst = random_instance(n, n, G, 1, n) if variant == "equal" else random_instance(n, n, 1, 1, n)
    m = build_model(inst, variant)
    nvars, ncons = expected_counts(n, variant)
    assert len(m.variables) == nvars
    assert len(m.constraints) == ncons


# ---------------------------------------------------------------------------
# encode / check
# ---------------------------------------------------------------------------

def test_encode_worked_optimum():
    asg = encode_grouping(Grouping([(1, 5), (2, 4), (3, 6)]), "unequal")
    on_pairs = {p for p, v in asg.x.items() if v == 1}
    assert on_pairs == {(1, 5), (2, 4), (3, 6)}
    assert asg.y == {2: 1, 3: 1, 4: 0, 5: 0, 6: 0}


def test_encode_singletons_and_one_group():
    singles = Grouping([(i,) for i in range(1, 5)])
    asg = encode_grouping(singles, "unequal")
    assert all(v == 0 for v in asg.x.values())
    assert all(v == 1 for v in asg.y.values())

    whole = Grouping([tuple(range(1, 5))])
    asg = encode_grouping(whole, "unequal")
    assert all(v == 1 for v in asg.x.values())
    assert all(v == 0 for v in asg.y.values())


def test_encode_equal_variant_has_no_leaders():
    asg = encode_grouping(Grouping([(1, 2), (3, 4)]), "equal")
    assert asg.y is None


def test_check_worked_optimal_encoding(worked_instance):
    m = build_unequal(worked_instance)
    asg = encode_grouping(Grouping([(1, 5), (2, 4), (3, 6)]), "unequal")
    report = check_assignment(m, asg)
    assert report.objective == 9.0
    assert report.violations == ()
    assert report.satisfied


def test_check_degree_only_counterexample(worked_instance):
    bad = Grouping([(1, 3, 6), (2, 4, 5)])
    deg_model = build_degree_only(worked_instance)
    deg_report = check_assignment(deg_model, encode_grouping(bad, "degree_only"))
    assert deg_report.satisfied
    assert deg_report.objective == 16.0

    full_report = check_assignment(
        build_unequal(worked_instance), encode_grouping(bad, "unequal")
    )
    assert full_report.objective == 16.0
    assert full_report.violations == ("lcount",)


def test_check_all_zero_violates_degree_lower_bounds(worked_instance):
    m = build_unequal(worked_instance)
    x = {(i, j): 0 for i, j in combinations(range(1, 7), 2)}
    y = {j: 0 for j in range(2, 7)}
    report = check_assignment(m, PairAssignment(x=x, y=y))
    for i in range(1, 7):
        assert f"dmin_{i}" in report.violations


def test_check_rejects_variable_mismatch(worked_instance):
    m = build_unequal(worked_instance)
    asg = encode_grouping(Grouping([(1, 2), (3, 4)]), "unequal")  # wrong n
    with pytest.raises(ValueError):
        check_assignment(m, asg)
    optimum = Grouping([(1, 5), (2, 4), (3, 6)])
    with pytest.raises(ValueError, match="leader"):
        check_assignment(m, encode_grouping(optimum, "equal"))  # no leaders
    with pytest.raises(ValueError, match="leader"):
        check_assignment(build_equal(worked_instance), encode_grouping(optimum, "unequal"))
    # as many keys as the model has, one of them foreign
    asg = encode_grouping(optimum, "unequal")
    x = dict(asg.x)
    del x[(1, 2)]
    x[(1, 7)] = 0
    with pytest.raises(ValueError, match="^assignment pair variables do not match the model$"):
        check_assignment(m, PairAssignment(x=x, y=asg.y))
    y = dict(asg.y)
    del y[2]
    y[7] = 0
    with pytest.raises(ValueError, match="^assignment leader variables do not match the model$"):
        check_assignment(m, PairAssignment(x=asg.x, y=y))


def test_rows_never_repeat_a_column():
    for n in range(1, 9):
        # equal needs N divisible by G: singleton groups
        shapes = {"equal": (n, 1, 1), "degree_only": (1, 1, n), "unequal": (1, 1, n)}
        for variant, (G, a, b) in shapes.items():
            m = build_model(random_instance(n, n, G, a, b), variant)
            assert len(m.indptr) == len(m.constraints) + 1
            # export_lp writes a row term as its sign and column name
            assert set(np.unique(m.coefs)) <= {-1, 1}
            for r, name in enumerate(m.constraints):
                cols = m.indices[m.indptr[r]:m.indptr[r + 1]].tolist()
                assert len(cols) == len(set(cols)), f"{variant} n={n}: {name} repeats a column"
                assert all(0 <= k < len(m.variables) for k in cols)


@st.composite
def _assignments(draw):
    """A model of any variant at N <= 7 and random 0/1 values for its columns."""
    n = draw(st.integers(1, 7))
    variant = draw(st.sampled_from(["equal", "degree_only", "unequal"]))
    if variant == "equal":
        G = draw(st.sampled_from([g for g in range(1, n + 1) if n % g == 0]))
        a = b = n // G
    else:
        G = draw(st.integers(1, n))
        a = draw(st.integers(1, n // G))
        b = draw(st.integers(-(-n // G), n))
    inst = random_instance(draw(st.integers(0, 2**16)), n, G, a, b, low=-100.0)
    pairs = list(combinations(range(1, n + 1), 2))

    def bits(k):
        return draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))

    x = dict(zip(pairs, bits(len(pairs))))
    y = dict(zip(range(2, n + 1), bits(n - 1))) if variant == "unequal" else None
    return build_model(inst, variant), PairAssignment(x=x, y=y)


@settings(max_examples=200, deadline=None)
@given(_assignments())
def test_check_matches_rows_evaluated_from_lp_text(case):
    model, asg = case
    objective, constraints, _ = parse_lp(export_lp(model))
    values = {f"x_{i}_{j}": v for (i, j), v in asg.x.items()}
    values.update({f"y_{j}": v for j, v in (asg.y or {}).items()})
    violated = []
    for name, terms, sense, rhs in constraints:
        lhs = sum(c * values[v] for v, c in terms.items())
        ok = lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs
        if not ok:
            violated.append(name)
    report = check_assignment(model, asg)
    assert report.violations == tuple(violated)
    assert report.objective == pytest.approx(
        sum(c * values[v] for v, c in objective.items()), abs=TOL
    )


# ---------------------------------------------------------------------------
# soundness / completeness at small scale (the acceptance suite goes bigger)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,G,a,b", [(5, 2, 2, 3), (6, 3, 2, 3), (6, 2, 2, 4)])
def test_unequal_accepts_exactly_the_feasible_partitions(n, G, a, b):
    inst = random_instance(n, n, G, a, b)
    m = build_unequal(inst)
    for g in iter_set_partitions(n):
        ok = check_assignment(m, encode_grouping(g, "unequal")).satisfied
        assert ok == validate_grouping(g, inst).feasible


@pytest.mark.parametrize("n,G,a,b", [(5, 2, 2, 3), (6, 3, 2, 3), (7, 3, 2, 3), (8, 2, 2, 4)])
def test_encoding_objective_matches_grouping_objective(n, G, a, b):
    for low in (0.0, -100.0):
        inst = random_instance(n + 17, n, G, a, b, low=low)
        m = build_unequal(inst)
        for g in iter_set_partitions(n):
            report = check_assignment(m, encode_grouping(g, "unequal"))
            assert report.objective == objective_value(g, inst.dist)


# ---------------------------------------------------------------------------
# LP export
# ---------------------------------------------------------------------------

def test_export_names_n3():
    inst = random_instance(5, 3, 1, 3, 3)
    lp = export_lp(build_equal(inst))
    _, _, binaries = parse_lp(lp)
    assert binaries == ["x_1_2", "x_1_3", "x_2_3"]


def test_export_contains_leader_count_row(worked_instance):
    lp = export_lp(build_unequal(worked_instance))
    assert " lcount: y_2 + y_3 + y_4 + y_5 + y_6 = 2" in lp.splitlines()


def _export_grid(variant):
    """The worked instance, then N = 1..9 with nonnegative and signed distances."""
    yield worked_example_instance()
    for n in range(1, 10):
        for seed, low in ((n, 0.0), (100 + n, -100.0)):
            if variant == "equal":
                G = next(g for g in (3, 2, 1) if n % g == 0)
                a = b = n // G
            else:
                G, a, b = min(3, n), 1, n
            yield random_instance(seed, n, G, a, b, low=low)


@pytest.mark.parametrize("variant", ["equal", "unequal", "degree_only"])
def test_export_roundtrip(variant):
    for inst in _export_grid(variant):
        model = build_model(inst, variant)
        objective, constraints, binaries = parse_lp(export_lp(model))

        assert binaries == list(model.variables)
        assert objective == dict(zip(model.variables, model.objective.tolist()))

        assert len(constraints) == len(model.constraints)
        for got, want in zip(constraints, model_rows(model)):
            name, terms, sense, rhs = got
            assert name == want[0]
            assert sense == want[1]
            assert rhs == want[2]
            assert terms == want[3]


# sha256 of export_lp; the LP text is part of the interface, so it stays byte-identical.
# n1 has rows with no terms and an empty objective; n2g1 and n2g2 have one pair
PINNED_INSTANCES = {
    "worked": worked_example_instance,
    "signed9": lambda: random_instance(9, 9, 3, 2, 4, low=-100.0),
    "n1": lambda: random_instance(1, 1, 1, 1, 1),
    "n2g1": lambda: random_instance(2, 2, 1, 1, 2, low=-100.0),
    "n2g2": lambda: random_instance(2, 2, 2, 1, 1),
    "mixed12": lambda: parse_instance(
        gen_instance(12, 3, 3, 5, "mixed:2,2", seed=1), "gower"
    ).instance,
}
LP_SHA256 = {
    ("worked", "equal"): "e3bae71032f40af9a9feb4b81d0dc5409bad8365ee01d608356528e3eb2174c7",
    ("worked", "degree_only"): "2fb9cdde612141bc47b33966c790f4aad0e04b9fa6880c52399a961c87008669",
    ("worked", "unequal"): "e811ef0239762c58923da9eb4f5110fa187d09b5df8858173c7b4c278f2e7bb7",
    ("signed9", "equal"): "c7c32c103e21ad3d74886f708b25c234261fd3d05cacc1ba98538e80f552c13e",
    ("signed9", "degree_only"): "2685136813fcc62c913da30cfee9fc74fe08808d40d527d9eb7352dfcd446ed6",
    ("signed9", "unequal"): "650f338eaa4d792d3120e557153c582889acb6af266c7020d49e21f0acc0c32b",
    ("n1", "equal"): "295dd37f0f85ccc300bc3853ae0983dce2a90646e92e7849ef5f3222f86bf4d6",
    ("n1", "degree_only"): "1b814543c4edf6a875e0092ffa7639c1ca439da5e5ccf2cf6deb79691687c357",
    ("n1", "unequal"): "1f4accf85643e3f7a4d702b29a5373ce4eaa17a6bba7f535f85f76ab93628c72",
    ("n2g1", "equal"): "4a40ff80a9d5a115ffca835f560e5dee7bba93f6ddb47f776c6d63f2c3ec78ed",
    ("n2g1", "degree_only"): "aca3d658e094796e921fa5acaa442a08bf822603119c8315e841cd87c5f78e6d",
    ("n2g1", "unequal"): "12615b4f6059c5e78155a1ed19e3bd82064abcd1fcec152206f90b9c3ff307e8",
    ("n2g2", "equal"): "ee221e639d17153b654b513dec80b1055ba59e772032e282effa05152db45f25",
    ("n2g2", "degree_only"): "36ff58303819a0f55d8ed94e10b14c94479863be69fcb534416879277185033d",
    ("n2g2", "unequal"): "4501bcfe0e47a2aa52ea6ecca13fe2682fcf5dc80ea821de56fab7254af8b496",
    ("mixed12", "equal"): "a630334ff5009e7515843b5f61dd28bf81fe2fe6ff1c2d879a183935bc21ca17",
    ("mixed12", "degree_only"): "6972a3dc4d119949dc16f44156ec2cdb1ed1e4772da1ee62056f9b909b501a7f",
    ("mixed12", "unequal"): "c7974ab86bec654a7b978e52fe8a5ef0d7283c18548e0ed5ae85f4666a8282d1",
}


@pytest.mark.parametrize("which,variant", sorted(LP_SHA256))
def test_export_bytes_pinned(which, variant):
    text = export_lp(build_model(PINNED_INSTANCES[which](), variant))
    assert hashlib.sha256(text.encode()).hexdigest() == LP_SHA256[which, variant]


# ---------------------------------------------------------------------------
# LP export against a plain per-row writer, and the rows it refuses
# ---------------------------------------------------------------------------

def reference_lp(model) -> str:
    """The LP text written line by line from the model's fields."""

    def terms(pairs):
        # [(coefficient, body)] -> "a - b + c"; a negative first term reads "- a"
        out = []
        for k, (c, body) in enumerate(pairs):
            if k == 0:
                out.append(f"- {body}" if c < 0 else body)
            else:
                out.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(out)

    lines = [f"\\ {model.variant} variant, n={model.n}", "Maximize"]
    obj = [(c, f"{abs(c)!r} {name}") for c, name in zip(model.objective.tolist(), model.variables)]
    lines.append(f" obj: {terms(obj)}")
    lines.append("Subject To")
    for r, name in enumerate(model.constraints):
        lo, hi = model.lo[r], model.hi[r]
        sense, rhs = ("=", lo) if lo == hi else ("<=", hi) if lo == -np.inf else (">=", lo)
        span = range(model.indptr[r], model.indptr[r + 1])
        row = [(int(model.coefs[k]), model.variables[model.indices[k]]) for k in span]
        lines.append(f" {name}: {terms(row)} {sense} {int(rhs)}")
    lines += ["Binaries", " " + " ".join(model.variables), "End"]
    return "\n".join(lines) + "\n"


# distances whose shortest decimal is long, a tie or signed zero
DECIMAL_TIES = [0.1, 0.2, 0.30000000000000004, 2.675, 0.125, 1e-05, 1e16, 2.5, -0.0, 1.15]


def _writer_grid():
    """N = 1..9 with nonnegative, signed, all-zero and decimal-tie distances."""
    for n in range(1, 10):
        m = n * (n - 1) // 2
        rng = np.random.default_rng(n)
        yield n, rng.uniform(0, 100, m)
        yield n, rng.uniform(-100, 100, m)
        yield n, np.zeros(m)
        yield n, np.resize(DECIMAL_TIES, m)


def _grid_shape(n, variant):
    """(G, a, b) for N elements: equal-size groups for `equal`, else G <= 3 and sizes 1..N."""
    if variant == "equal":
        G = next(g for g in (3, 2, 1) if n % g == 0)
        return G, n // G, n // G
    return min(3, n), 1, n


@pytest.mark.parametrize("variant", ["equal", "unequal", "degree_only"])
def test_export_matches_a_per_row_writer(variant):
    for n, cond in _writer_grid():
        model = build_model(Instance(DistanceMatrix(n, cond), *_grid_shape(n, variant)), variant)
        assert export_lp(model) == reference_lp(model), (n, cond.tolist())


# the shapes of the benchmark's ilp-roundtrip workload, generated with seed 1
BENCH_SHAPES = [(30, 5, 6, 6, "uniformkd:2"), (40, 6, 5, 8, "uniformkd:3"),
                (40, 4, 8, 12, "uniformkd:2"), (48, 6, 8, 8, "mixed:2,2")]


@pytest.mark.parametrize("n,G,a,b,kind", BENCH_SHAPES)
def test_export_matches_a_per_row_writer_at_bench_sizes(n, G, a, b, kind):
    metric = "gower" if kind.startswith("mixed") else "manhattan"
    inst = parse_instance(gen_instance(n, G, a, b, kind, seed=1), metric).instance
    variants = (["equal"] if n % G == 0 else []) + ["unequal", "degree_only"]
    for variant in variants:
        model = build_model(inst, variant)
        assert export_lp(model) == reference_lp(model), variant


def _replaced(model, field, r, value):
    arr = getattr(model, field).copy()
    arr[r] = value
    return dataclasses.replace(model, **{field: arr})


@pytest.mark.parametrize("changes, message", [
    ([("coefs", 4, 2)], "row tri2_1_2_3 as LP text: coefficient 2 is not +1 or -1"),
    ([("hi", 0, 0.5)], "row tri1_1_2_3 as LP text: bound 0.5 is not an integer"),
    ([("lo", 7, 0.0)], "row tri2_1_2_5 as LP text: it is ranged: 0.0 <= row <= 1.0"),
    ([("lo", 62, -np.inf), ("hi", 62, np.inf)], "row deq_3 as LP text: it is free"),
])
def test_export_refuses_rows_the_text_cannot_hold(worked_instance, changes, message):
    model = build_equal(worked_instance)
    for field, r, value in changes:
        model = _replaced(model, field, r, value)
    with pytest.raises(ValueError, match=re.escape(f"cannot write {message}")):
        export_lp(model)


# ---------------------------------------------------------------------------
# check_assignment against a per-row loop
# ---------------------------------------------------------------------------

def loop_check(model, values):
    """Violated row names, in row order, and the objective, one row at a time."""
    violated = []
    for r, name in enumerate(model.constraints):
        lhs = sum(int(model.coefs[k]) * values[model.indices[k]]
                  for k in range(model.indptr[r], model.indptr[r + 1]))
        if not model.lo[r] <= lhs <= model.hi[r]:
            violated.append(name)
    objective = sum(c for c, v in zip(model.objective.tolist(), values) if v == 1)
    return tuple(violated), objective


def _check_both(model, asg):
    values = [asg.x[p] for p in combinations(range(1, model.n + 1), 2)]
    values += [asg.y[j] for j in range(2, model.n + 1)] if asg.y is not None else []
    report = check_assignment(model, asg)
    violated, objective = loop_check(model, values)
    assert report.violations == violated
    assert report.objective == pytest.approx(objective, rel=1e-12, abs=TOL)


@pytest.mark.parametrize("variant", ["equal", "unequal", "degree_only"])
def test_check_row_sums_match_a_per_row_loop(variant):
    for n in range(1, 10):
        model = build_model(random_instance(n, n, *_grid_shape(n, variant), low=-100.0), variant)
        pairs = list(combinations(range(1, n + 1), 2))
        rng = np.random.default_rng(1000 + n)
        for _ in range(8):
            x = dict(zip(pairs, rng.integers(0, 2, len(pairs)).tolist()))
            y = dict(zip(range(2, n + 1), rng.integers(0, 2, n - 1).tolist()))
            _check_both(model, PairAssignment(x=x, y=y if variant == "unequal" else None))


def test_check_row_sums_match_a_per_row_loop_on_a_flipped_pair():
    # the benchmark's case: a greedy grouping's encoding with its
    # lexicographically first grouped pair set to 0
    inst = parse_instance(gen_instance(30, 5, 6, 6, "uniformkd:2", seed=1), "manhattan").instance
    model = build_unequal(inst)
    grouping = greedy_construct(inst, 1)
    asg = encode_grouping(grouping, "unequal")
    i, j = min((g[0], g[1]) for g in grouping.groups if len(g) > 1)
    _check_both(model, asg)
    flipped = PairAssignment(x={**asg.x, (i, j): 0}, y=asg.y)
    _check_both(model, flipped)
    assert check_assignment(model, flipped).violations
