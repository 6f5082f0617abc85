import copy
import math
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgp import (
    AttributeTable,
    DistanceMatrix,
    Grouping,
    Instance,
    SchemaError,
    canonicalize,
    distance_matrix,
    iter_set_partitions,
    objective_value,
    validate_grouping,
)
from mdgp.core import _pair_index
from conftest import TOL, random_instance


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def numeric_tables(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(finite, min_size=k, max_size=k), min_size=n, max_size=n
        )
    )
    return AttributeTable(rows, ("num",) * k)


@st.composite
def mixed_tables(draw):
    n = draw(st.integers(2, 7))
    schema = tuple(draw(st.lists(st.sampled_from(["num", "cat"]), min_size=1, max_size=4)))
    rows = []
    for _ in range(n):
        row = []
        for kind in schema:
            if kind == "num":
                row.append(draw(finite))
            else:
                row.append(draw(st.sampled_from("abcd")))
        rows.append(tuple(row))
    return AttributeTable(rows, schema)


@st.composite
def groupings(draw):
    n = draw(st.integers(1, 9))
    raw = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    # normalize to first-appearance labels so any int list is a partition
    relabel: dict[int, int] = {}
    groups: list[list[int]] = []
    for e, lab in enumerate(raw, 1):
        if lab not in relabel:
            relabel[lab] = len(groups)
            groups.append([])
        groups[relabel[lab]].append(e)
    return Grouping(groups)


# ---------------------------------------------------------------------------
# distance_matrix
# ---------------------------------------------------------------------------

def test_worked_example_manhattan_distances():
    table = AttributeTable([(float(v),) for v in range(1, 7)], ("num",))
    d = distance_matrix(table, "manhattan")
    assert d.lookup(1, 5) == 4.0
    assert d.lookup(2, 4) == 2.0
    assert d.lookup(3, 6) == 3.0


def test_identical_rows_have_zero_distance():
    table = AttributeTable([(1.0, 2.0), (1.0, 2.0), (3.0, 0.0)], ("num", "num"))
    for metric in ("manhattan", "euclidean"):
        assert distance_matrix(table, metric).lookup(1, 2) == 0.0
    mixed = AttributeTable([(1.0, "x"), (1.0, "x")], ("num", "cat"))
    assert distance_matrix(mixed, "gower").lookup(1, 2) == 0.0


def test_gower_two_attribute_example():
    # numeric column spans [0, 10], categorical differs: (10/10 + 1) / 2 = 1
    table = AttributeTable([(0.0, "x"), (10.0, "y")], ("num", "cat"))
    d = distance_matrix(table, "gower")
    assert d.lookup(1, 2) == pytest.approx(1.0, abs=TOL)


def test_gower_zero_range_column_contributes_zero():
    table = AttributeTable(
        [(0.0, "x", 5.0), (10.0, "x", 5.0)], ("num", "cat", "num")
    )
    d = distance_matrix(table, "gower")
    assert d.lookup(1, 2) == pytest.approx(1.0 / 3.0, abs=TOL)


def test_manhattan_rejects_categorical_schema():
    table = AttributeTable([(1.0, "x"), (2.0, "y")], ("num", "cat"))
    with pytest.raises(SchemaError):
        distance_matrix(table, "manhattan")
    with pytest.raises(SchemaError):
        distance_matrix(table, "euclidean")


def reference_distances(table, metric):
    """Per-pair loop over the columns: s = 0.0, one term per column in schema
    order, then one square root (euclidean) or one division by K (gower)."""
    cols = list(zip(*table.rows))
    ranges = [max(c) - min(c) if kind == "num" else None
              for kind, c in zip(table.schema, cols)]
    out = []
    for i, j in combinations(range(table.n), 2):
        s = 0.0
        for kind, rng, x, y in zip(table.schema, ranges, table.rows[i], table.rows[j]):
            if kind == "cat":
                s += float(x != y)
                continue
            d = abs(x - y)
            if metric == "manhattan":
                s += d
            elif metric == "euclidean":
                s += d * d
            elif rng > 0:
                s += d / rng
        if metric == "euclidean":
            s = math.sqrt(s)
        elif metric == "gower":
            s /= table.k
        out.append(s)
    return out


def test_distances_match_reference_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    for case in range(240):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, 13))
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 6)
        if case % 2:
            x = np.round(x, int(rng.integers(0, 3)))
        rows = x.tolist()
        numeric = AttributeTable(rows, ("num",) * k)
        for metric in ("manhattan", "euclidean", "gower"):
            got = distance_matrix(numeric, metric).condensed().tolist()
            assert got == reference_distances(numeric, metric), (case, metric)
        # gower with categorical and zero-range numeric columns
        kinds = rng.choice(["num", "cat", "const"], size=k)
        mixed_rows = [
            [v if kind == "num" else 2.5 if kind == "const" else "abc"[int(abs(v)) % 3]
             for kind, v in zip(kinds, row)]
            for row in rows
        ]
        mixed = AttributeTable(mixed_rows, ["cat" if kind == "cat" else "num" for kind in kinds])
        got = distance_matrix(mixed, "gower").condensed().tolist()
        assert got == reference_distances(mixed, "gower"), case


def test_attribute_table_rejects_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match="row 1"):
        AttributeTable([(10**400,)], ("num",))


@settings(max_examples=60, deadline=None)
@given(numeric_tables(), st.sampled_from(["manhattan", "euclidean"]))
def test_metric_axioms_numeric(table, metric):
    d = distance_matrix(table, metric)
    for i in range(1, table.n + 1):
        assert d.lookup(i, i) == 0.0
        for j in range(i + 1, table.n + 1):
            assert d.lookup(i, j) >= 0.0
            assert d.lookup(i, j) == d.lookup(j, i)


@settings(max_examples=60, deadline=None)
@given(mixed_tables())
def test_gower_axioms_and_range(table):
    d = distance_matrix(table, "gower")
    for i in range(1, table.n + 1):
        assert d.lookup(i, i) == 0.0
        for j in range(i + 1, table.n + 1):
            v = d.lookup(i, j)
            assert v == d.lookup(j, i)
            assert -TOL <= v <= 1.0 + TOL


# ---------------------------------------------------------------------------
# objective_value
# ---------------------------------------------------------------------------

def test_worked_example_objectives(worked_instance):
    dist = worked_instance.dist
    assert objective_value(Grouping([(1, 5), (2, 4), (3, 6)]), dist) == 9.0
    assert objective_value(Grouping([(1, 3, 6), (2, 4, 5)]), dist) == 16.0


def test_singletons_score_zero(worked_instance):
    g = Grouping([(i,) for i in range(1, 7)])
    assert objective_value(g, worked_instance.dist) == 0.0


def _iqp_objective(grouping: Grouping, dist) -> float:
    # independent evaluation through the x_ig indicator encoding
    n = grouping.n
    G = grouping.group_count
    x = [[0] * G for _ in range(n + 1)]
    for g, members in enumerate(grouping.groups):
        for e in members:
            x[e][g] = 1
    total = 0.0
    for g in range(G):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                total += dist.lookup(i, j) * x[i][g] * x[j][g]
    return total


@settings(max_examples=60, deadline=None)
@given(groupings(), st.integers(0, 10_000))
def test_objective_matches_indicator_form(grouping, seed):
    n = grouping.n
    rng = np.random.default_rng(seed)
    dist = DistanceMatrix(n, rng.uniform(0, 50, size=n * (n - 1) // 2))
    assert objective_value(grouping, dist) == pytest.approx(
        _iqp_objective(grouping, dist), abs=TOL
    )


@settings(max_examples=60, deadline=None)
@given(groupings(), st.integers(0, 10_000))
def test_same_label_sum_equals_objective_on_signed_distances(grouping, seed):
    n = grouping.n
    rng = np.random.default_rng(seed)
    dist = DistanceMatrix(n, rng.uniform(-100, 100, size=n * (n - 1) // 2))
    labels = [0] * n
    for g, members in enumerate(grouping.groups):
        for e in members:
            labels[e - 1] = g
    assert dist.same_label_sum(labels) == objective_value(grouping, dist)
    # any relabelling of the same partition gives the same bits
    assert dist.same_label_sum([7 - 3 * lab for lab in labels]) == objective_value(grouping, dist)


def test_grouping_from_labels_round_trips_every_partition():
    for n in range(1, 7):
        for g in iter_set_partitions(n):
            labels = [0] * n
            for k, members in enumerate(g.groups):
                for e in members:
                    labels[e - 1] = k
            assert Grouping.from_labels(labels) == g


def test_grouping_from_labels_orders_groups_by_label():
    assert Grouping.from_labels([5, -2, 5, 40, -2]).groups == ((2, 5), (1, 3), (4,))
    assert Grouping.from_labels(np.array([3, 1, 3, 0])).groups == ((4,), (2,), (1, 3))


def test_same_label_sum_rejects_a_wrong_label_count():
    d = DistanceMatrix(3, [1.0, 2.0, 3.0])
    for labels in ([0, 0], [0, 0, 0, 0]):
        with pytest.raises(ValueError, match="expected 3 labels"):
            d.same_label_sum(labels)


def test_objective_rejects_size_mismatch(worked_instance):
    with pytest.raises(ValueError):
        objective_value(Grouping([(1, 2), (3,)]), worked_instance.dist)


# ---------------------------------------------------------------------------
# validate_grouping
# ---------------------------------------------------------------------------

def test_validate_worked_example(worked_instance):
    ok = validate_grouping(Grouping([(1, 5), (2, 4), (3, 6)]), worked_instance)
    assert ok.feasible and not ok.violations

    bad = validate_grouping(Grouping([(1, 3, 6), (2, 4, 5)]), worked_instance)
    assert not bad.feasible
    assert any("group count 2" in v for v in bad.violations)


def test_validate_singletons():
    inst = random_instance(0, 5, 5, 1, 1)
    report = validate_grouping(Grouping([(i,) for i in range(1, 6)]), inst)
    assert report.feasible


def test_validate_names_offending_group():
    inst = random_instance(1, 6, 3, 2, 3)
    report = validate_grouping(Grouping([(1, 2, 3, 4), (5,), (6,)]), inst)
    assert not report.feasible
    assert any("group 1" in v and "> b=3" in v for v in report.violations)
    assert any("< a=2" in v for v in report.violations)


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_reorders_groups():
    g = Grouping([(3, 6), (1, 5), (2, 4)])
    assert canonicalize(g).groups == ((1, 5), (2, 4), (3, 6))


def test_canonicalize_sorts_members():
    assert Grouping([(2, 1)]).groups == ((1, 2),)


@settings(max_examples=60, deadline=None)
@given(groupings(), st.integers(0, 10_000))
def test_canonicalize_idempotent_and_value_preserving(grouping, seed):
    canon = canonicalize(grouping)
    assert canonicalize(canon) == canon
    n = grouping.n
    rng = np.random.default_rng(seed)
    dist = DistanceMatrix(n, rng.uniform(0, 50, size=n * (n - 1) // 2))
    # identical pair mask, identical summation order: bit-equal values
    assert objective_value(canon, dist) == objective_value(grouping, dist)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_grouping_rejects_duplicates_and_gaps():
    with pytest.raises(ValueError):
        Grouping([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Grouping([(1, 3)])  # element 2 missing
    with pytest.raises(ValueError):
        Grouping([(1,), ()])


def test_distance_matrix_requires_finite_entries():
    with pytest.raises(ValueError):
        DistanceMatrix(3, [1.0, math.inf, 2.0])
    with pytest.raises(ValueError):
        DistanceMatrix(3, [1.0, 2.0])  # wrong length


def test_distance_matrix_rejects_overflowing_sum():
    # each entry is finite, but an objective over these pairs would overflow
    with pytest.raises(ValueError, match="absolute sum overflows"):
        DistanceMatrix(4, [1e308] * 6)
    with pytest.raises(ValueError, match="absolute sum overflows"):
        DistanceMatrix(3, [1e308, -1e308, 0.0])
    assert DistanceMatrix(3, [1e307, -1e307, 1e307]).n == 3


def test_distance_matrix_bounds_four_times_the_absolute_sum():
    # a swap score or a bound adds up to 4·sum|d|, which must stay finite
    limit = np.finfo(float).max / 4
    assert DistanceMatrix(3, [0.5 * limit, -0.25 * limit, 0.2 * limit]).n == 3
    with pytest.raises(ValueError, match="absolute sum overflows"):
        DistanceMatrix(3, [0.5 * limit, -0.25 * limit, 0.3 * limit])


def test_distance_matrix_copies_its_input():
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    d = DistanceMatrix(4, base.view())
    assert base.flags.writeable
    base[0] = 1000.0
    assert d.condensed().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert d.lookup(1, 2) == 1.0
    assert not d.condensed().flags.writeable


def test_distance_matrix_from_square_reports_non_finite_entries():
    # NaN != NaN: checked for symmetry first, a NaN read as an asymmetric matrix
    nan, inf = math.nan, math.inf
    for matrix in ([[nan]], [[0.0, nan], [nan, 0.0]], [[0.0, inf], [inf, 0.0]]):
        with pytest.raises(ValueError, match="all distances must be finite"):
            DistanceMatrix.from_square(matrix)


def test_distance_matrix_from_square_checks_symmetry():
    with pytest.raises(ValueError):
        DistanceMatrix.from_square([[0.0, 1.0], [2.0, 0.0]])
    d = DistanceMatrix.from_square([[0.0, 1.5], [1.5, 0.0]])
    assert d.lookup(1, 2) == 1.5
    assert np.array_equal(d.as_square(), np.array([[0.0, 1.5], [1.5, 0.0]]))


def test_instance_rejects_infeasible_bounds():
    d = DistanceMatrix(6, np.zeros(15))
    with pytest.raises(ValueError):
        Instance(d, G=3, a=3, b=3)  # G*a = 9 > 6
    with pytest.raises(ValueError):
        Instance(d, G=3, a=2, b=1)  # a > b
    with pytest.raises(ValueError):
        Instance(d, G=7, a=1, b=1)  # G*b < N is fine but G*a = 7 > 6


def test_negative_distances_are_allowed():
    d = DistanceMatrix(3, [-1.0, 2.0, 0.5])
    inst = Instance(d, G=1, a=3, b=3)
    assert objective_value(Grouping([(1, 2, 3)]), inst.dist) == pytest.approx(1.5, abs=TOL)


def test_condensed_pair_order():
    d = DistanceMatrix(4, [12.0, 13.0, 14.0, 23.0, 24.0, 34.0])
    assert [d.lookup(i, j) for i, j in combinations(range(1, 5), 2)] == [
        12.0, 13.0, 14.0, 23.0, 24.0, 34.0,
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_as_square_is_stored_once_and_read_only(n):
    rng = np.random.default_rng(n)
    cond = rng.uniform(-100.0, 100.0, n * (n - 1) // 2)
    zero = rng.integers(len(cond)) if len(cond) else None  # n=1 has no pair
    if zero is not None:
        cond[zero] = -0.0
    d = DistanceMatrix(n, cond)
    square = d.as_square()
    assert d.as_square() is square
    assert not square.flags.writeable
    with pytest.raises(ValueError):
        square[0, 0] = 1.0
    m = np.zeros((n, n))
    m[_pair_index(n)] = cond
    assert square.tobytes() == (m + m.T).tobytes()
    looked_up = [[d.lookup(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert np.array(looked_up).tobytes() == square.tobytes()
    if zero is not None:
        # the square adds +0.0 to the stored -0.0: both read it as 0.0
        i, j = (int(idx[zero]) + 1 for idx in _pair_index(n))
        assert math.copysign(1.0, d.lookup(i, j)) == math.copysign(1.0, d.lookup(j, i)) == 1.0


@pytest.mark.parametrize("how", [*range(pickle.HIGHEST_PROTOCOL + 1), "deepcopy"])
def test_copies_keep_the_distances_read_only(how):
    # pickling and deepcopy rebuild the matrix through its constructor, so
    # the copy's condensed vector and square are read-only, as the original's
    def dup(obj):
        return copy.deepcopy(obj) if how == "deepcopy" else pickle.loads(pickle.dumps(obj, how))

    d = DistanceMatrix(6, np.random.default_rng(6).uniform(-10.0, 10.0, 15))
    inst = Instance(d, 2, 2, 4)
    inst_copy = dup(inst)
    assert inst_copy == inst
    for copied in (dup(d), inst_copy.dist):
        assert copied == d
        assert copied.as_square().tobytes() == d.as_square().tobytes()
        for array in (copied.condensed(), copied.as_square()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
