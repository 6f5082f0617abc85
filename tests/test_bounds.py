import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgp import (
    column_bound,
    objective_value,
    solve_bnb,
    solve_bruteforce,
    solve_columns,
    validate_grouping,
)
from mdgp import bounds, solver
from mdgp.cli import gen_instance, parse_instance

# decimal values that tie in exact arithmetic but not always in floats,
# signed zeros among them
DECIMALS = ["0.1", "0.2", "0.3", "0.7", "-0.0", "0", "1.5", "-2.5"]


def attr_text(n, G, a, b, schema, rows) -> str:
    lines = [f"{n} {G} {a} {b}", f"ATTR {len(schema)}", " ".join(schema)]
    return "\n".join(lines + [" ".join(row) for row in rows]) + "\n"


@st.composite
def sizes(draw, equal=False):
    n = draw(st.integers(4, 10))
    if equal:
        G = draw(st.sampled_from([g for g in range(1, min(4, n) + 1) if n % g == 0]))
        return n, G, n // G, n // G
    G = draw(st.integers(1, min(4, n)))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    return n, G, a, b


@st.composite
def columns(draw, n, kind):
    """One column's n tokens: decimals with ties, floats, or one value
    repeated (a zero-range column); categories from three letters."""
    if kind == "cat":
        return [draw(st.sampled_from("abc")) for _ in range(n)]
    style = draw(st.sampled_from(["decimal", "float", "constant"]))
    if style == "constant":
        return [draw(st.sampled_from(DECIMALS))] * n
    if style == "decimal":
        return [draw(st.sampled_from(DECIMALS)) for _ in range(n)]
    return [repr(draw(st.floats(-100.0, 100.0))) for _ in range(n)]


@st.composite
def attr_instances(draw, kinds=None, equal=False):
    n, G, a, b = draw(sizes(equal=equal))
    metric = draw(st.sampled_from(["manhattan", "gower"]))
    if kinds is None:
        pool = ["num", "cat"] if metric == "gower" else ["num"]
        kinds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    cols = [draw(columns(n, kind)) for kind in kinds]
    text = attr_text(n, G, a, b, kinds, zip(*cols))
    return parse_instance(text, metric).instance


def test_size_vectors_are_counted_and_listed_exactly():
    for n in range(1, 12):
        for G, a in itertools.product(range(1, n + 1), repeat=2):
            for b in range(a, n + 1):
                if not G * a <= n <= G * b:
                    continue
                want = [v for v in itertools.combinations_with_replacement(range(a, b + 1), G)
                        if sum(v) == n]
                got = sorted(tuple(sorted(np.repeat(*np.array(vec).T).tolist()))
                             for vec in bounds._size_vectors(n, G, a, b))
                assert got == want, (n, G, a, b)
                assert bounds._size_vector_count(n, G, a, b) == len(want), (n, G, a, b)


@settings(max_examples=80, deadline=None)
@given(attr_instances())
def test_column_bound_is_at_least_the_optimum(inst):
    exact = solve_bruteforce(inst)
    slack = solver._rounding_slack(inst)
    assert column_bound(inst) >= exact.value - slack
    # and the certificate it gives the search never proves a wrong value
    found = solve_bnb(inst)
    assert found.proven
    assert abs(found.value - exact.value) <= slack
    assert objective_value(found.grouping, inst.dist) == found.value
    assert validate_grouping(found.grouping, inst).feasible


@pytest.mark.parametrize("metric", ["manhattan", "gower"])
def test_column_bound_on_ties_signed_zeros_and_unequal_sizes(metric):
    # decimal ties, -0.0, a zero-range column and a < b, written out
    num = [["0.1", "0.2", "0.3", "0.7", "-0.0", "0.3", "0.1", "1.5", "0.7"],
           ["-0.0"] * 9,
           ["0.3", "0.1", "0.2", "0.1", "0.7", "0.7", "-2.5", "0", "0.2"]]
    cat = [list("abcabcaab")]
    schemas = [("num",), ("num", "num"), ("num", "num", "num")]
    if metric == "gower":
        schemas += [("num", "cat"), ("cat",), ("num", "num", "cat")]
    for schema in schemas:
        cols = num[: schema.count("num")] + cat * schema.count("cat")
        for G, a, b in (3, 3, 3), (3, 2, 4), (2, 1, 8), (4, 2, 3):
            inst = parse_instance(attr_text(9, G, a, b, schema, zip(*cols)), metric).instance
            exact = solve_bruteforce(inst)
            slack = solver._rounding_slack(inst)
            assert column_bound(inst) >= exact.value - slack, (schema, G, a, b)
            assert abs(solve_bnb(inst).value - exact.value) <= slack, (schema, G, a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(attr_instances(kinds=["num"]),
                 attr_instances(kinds=["num", "num"], equal=True)))
def test_closed_forms_equal_the_oracle(inst):
    exact = solve_bruteforce(inst)
    slack = solver._rounding_slack(inst)
    found = solve_columns(inst)
    assert found.proven and found.nodes_explored == 0
    assert abs(found.value - exact.value) <= slack
    assert objective_value(found.grouping, inst.dist) == found.value
    assert validate_grouping(found.grouping, inst).feasible
    # a closed form meets the bound: that is what certifies it
    assert found.value >= column_bound(inst) - slack


def test_worked_example_closed_form(worked_instance):
    found = solve_columns(worked_instance)
    assert (found.value, found.proven, found.nodes_explored) == (9.0, True, 0)
    assert column_bound(worked_instance) == 9.0


@pytest.mark.parametrize("text, metric", [
    (attr_text(6, 2, 3, 3, ("num",) * 3, [("1", "2", "3")] * 3 + [("4", "0", "1")] * 3),
     "manhattan"),
    (attr_text(6, 2, 3, 3, ("num", "cat"), [("1", "a"), ("2", "b")] * 3), "gower"),
    (attr_text(6, 2, 3, 3, ("cat",), [("a",), ("b",), ("c",)] * 2), "gower"),
    (attr_text(6, 2, 2, 4, ("num", "num"), [("1", "5"), ("2", "3"), ("4", "4")] * 2),
     "manhattan"),
    (attr_text(6, 2, 3, 3, ("num", "num"), [("1", "5"), ("2", "3"), ("4", "4")] * 2),
     "euclidean"),
    ("4 2 2 2\nDIST\n1 2 3\n4 5\n6\n", "manhattan"),
], ids=["three-numeric", "categorical", "only-categorical", "two-unequal", "euclidean",
        "dist"])
def test_solve_columns_refuses_instances_without_a_closed_form(text, metric):
    inst = parse_instance(text, metric).instance
    with pytest.raises(ValueError, match="no closed form"):
        solve_columns(inst)


@pytest.mark.parametrize("n, G, size", [(200, 20, 10), (1000, 10, 100)])
def test_koenig_meets_the_bound_at_scale(n, G, size):
    inst = parse_instance(gen_instance(n, G, size, size, "uniformkd:2", seed=1)).instance
    found = solve_columns(inst)
    assert abs(found.value - column_bound(inst)) <= solver._rounding_slack(inst)
    assert validate_grouping(found.grouping, inst).feasible
    assert objective_value(found.grouping, inst.dist) == found.value


def test_too_many_size_vectors_give_no_bound_quickly():
    # millions of size vectors: counted, never made, and given up on
    inst = parse_instance(gen_instance(1000, 10, 50, 150, "uniformkd:2", seed=1)).instance
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        assert column_bound(inst) is None
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01
    one = parse_instance(gen_instance(1000, 10, 50, 150, "uniform1d", seed=1)).instance
    with pytest.raises(ValueError, match="no closed form"):
        solve_columns(one)
