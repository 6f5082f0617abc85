import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgp import (
    DistanceMatrix,
    Grouping,
    Instance,
    SearchState,
    SolveOptions,
    build_unequal,
    canonicalize,
    check_assignment,
    count_feasible_partitions,
    encode_grouping,
    iter_feasible_partitions,
    iter_set_partitions,
    objective_value,
    partial_value,
    solve_bnb,
    solve_bruteforce,
    upper_bound,
    validate_grouping,
)
from conftest import TOL, random_instance, seeded_cases


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_set_partition_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, expected in bell.items():
        assert sum(1 for _ in iter_set_partitions(n)) == expected


def _filtered_label_tuples(n, G, a, b):
    """Reference enumeration: every label tuple in lexicographic order, kept
    when it is a restricted-growth string (each label at most one above the
    largest before it) and each of the G labels is used a..b times; returned
    as groups ordered by label."""
    kept = []
    for labels in itertools.product(range(G), repeat=n):
        if all(lab <= 1 + max(labels[:t], default=-1) for t, lab in enumerate(labels)) and all(
            a <= labels.count(g) <= b for g in range(G)
        ):
            top = max(labels)
            kept.append(tuple(
                tuple(e + 1 for e in range(n) if labels[e] == g) for g in range(top + 1)
            ))
    return kept


def test_feasible_enumeration_matches_filtered_partitions():
    for n in range(1, 8):
        for G in range(1, min(n, 4) + 1):
            lo, hi = n // G, -(-n // G)
            for a, b in sorted({(1, n), (1, hi), (lo, hi), (lo, n), (lo, lo)}):
                if a > b or not G * a <= n <= G * b:
                    continue
                inst = random_instance(n, n, G, a, b)
                got = [g.groups for g in iter_feasible_partitions(inst)]
                assert got == _filtered_label_tuples(n, G, a, b), (n, G, a, b)


def test_set_partitions_match_filtered_label_tuples():
    for n in range(1, 7):
        got = [g.groups for g in iter_set_partitions(n)]
        assert got == _filtered_label_tuples(n, n, 0, n)


def test_count_worked_example(worked_instance):
    assert count_feasible_partitions(worked_instance) == 15


def test_count_derived_example():
    inst = random_instance(0, 4, 2, 1, 3)
    assert count_feasible_partitions(inst) == 7


def test_count_single_group():
    inst = random_instance(0, 5, 1, 5, 5)
    assert count_feasible_partitions(inst) == 1


def test_enumeration_cap_refusal():
    inst = random_instance(0, 13, 2, 1, 13)
    with pytest.raises(ValueError, match="solve_bnb"):
        solve_bruteforce(inst)
    with pytest.raises(ValueError, match="cap"):
        count_feasible_partitions(inst)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def test_bruteforce_worked_example(worked_instance):
    result = solve_bruteforce(worked_instance)
    assert result.value == 9.0
    assert result.proven
    # the named optimum is one of several ties; the oracle returns the
    # lexicographically smallest canonical optimizer
    assert objective_value(Grouping([(1, 5), (2, 4), (3, 6)]), worked_instance.dist) == 9.0
    assert objective_value(result.grouping, worked_instance.dist) == result.value
    assert result.grouping.groups == ((1, 4), (2, 5), (3, 6))


def test_bruteforce_single_group():
    inst = random_instance(9, 6, 1, 6, 6)
    result = solve_bruteforce(inst)
    assert result.value == pytest.approx(float(inst.dist.condensed().sum()), abs=TOL)
    assert result.grouping.groups == ((1, 2, 3, 4, 5, 6),)


def test_bruteforce_all_singletons():
    inst = random_instance(10, 6, 6, 1, 1)
    result = solve_bruteforce(inst)
    assert result.value == 0.0
    assert result.grouping.group_count == 6


def test_bruteforce_result_is_feasible_and_consistent():
    for seed, n, G, a, b in seeded_cases(12):
        inst = random_instance(seed, n, G, a, b)
        result = solve_bruteforce(inst)
        assert validate_grouping(result.grouping, inst).feasible
        assert objective_value(result.grouping, inst.dist) == result.value


def _oracle_reference(inst):
    """The oracle's contract written as a plain loop: the best objective_value
    over iter_feasible_partitions, ties to the lexicographically smallest
    groups, and the number of partitions scored."""
    best, best_value, count = None, float("-inf"), 0
    for g in iter_feasible_partitions(inst):
        count += 1
        v = objective_value(g, inst.dist)
        if v > best_value or (v == best_value and g.groups < best.groups):
            best, best_value = g, v
    return best_value, best.groups, count


def test_bruteforce_matches_reference_loop_on_ties():
    # distances in {0, 1} or {-2, ..., 1} make the optimum tie exactly in 38
    # of the 76 cases with more than one group
    rng = np.random.default_rng(8)
    for seed, n, G, a, b in seeded_cases(100, n_range=(3, 8), groups=(1, 2, 3)):
        low = -2 if seed % 2 else 0
        dist = DistanceMatrix(n, rng.integers(low, 2, size=n * (n - 1) // 2))
        inst = Instance(dist, G, a, b)
        result = solve_bruteforce(inst)
        got = (result.value, result.grouping.groups, result.nodes_explored)
        assert got == _oracle_reference(inst), (seed, n, G, a, b)


# ---------------------------------------------------------------------------
# upper bound
# ---------------------------------------------------------------------------

def test_bound_zero_when_fully_assigned(worked_instance):
    state = SearchState(worked_instance, (1, 1, 2, 2, 3, 3))
    assert upper_bound(state) == 0.0


def test_bound_at_root_dominates_optimum(worked_instance):
    root = SearchState(worked_instance, ())
    assert upper_bound(root) + TOL >= solve_bruteforce(worked_instance).value


def test_bound_along_optimal_prefixes():
    for seed, n, G, a, b in seeded_cases(8, n_range=(5, 7)):
        inst = random_instance(seed, n, G, a, b)
        opt = solve_bruteforce(inst)
        prefix = tuple((opt.grouping.label_array() + 1).tolist())
        for t in range(n + 1):
            state = SearchState(inst, prefix[:t])
            assert partial_value(state) + upper_bound(state) + TOL >= opt.value


def test_partial_value_matches_pair_sums():
    for low in (0.0, -100.0):
        inst = random_instance(31, 9, 3, 2, 4, low=low)
        best = solve_bnb(inst).grouping
        labels = [0] * inst.n
        for g, members in enumerate(best.groups, 1):
            for e in members:
                labels[e - 1] = g
        # the full state sums the same pairs in the same order as the objective
        assert partial_value(SearchState(inst, labels)) == objective_value(best, inst.dist)
        for t in range(inst.n):
            expected = sum(
                inst.dist.lookup(i + 1, j + 1)
                for i in range(t) for j in range(i + 1, t) if labels[i] == labels[j]
            )
            assert partial_value(SearchState(inst, labels[:t])) == pytest.approx(expected, abs=TOL)


def test_search_state_validation(worked_instance):
    with pytest.raises(ValueError, match="symmetry"):
        SearchState(worked_instance, (1, 3))  # label 3 opens out of order
    with pytest.raises(ValueError):
        SearchState(worked_instance, (1, 1, 1, 1))  # exceeds b=3
    with pytest.raises(ValueError):
        SearchState(worked_instance, (0,))


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

def test_bnb_worked_example(worked_instance):
    result = solve_bnb(worked_instance)
    assert result.value == 9.0
    assert result.proven
    assert validate_grouping(result.grouping, worked_instance).feasible


def test_bnb_matches_oracle_on_random_instances():
    for seed, n, G, a, b in seeded_cases(30):
        inst = random_instance(seed, n, G, a, b)
        exact = solve_bruteforce(inst)
        bnb = solve_bnb(inst)
        assert bnb.proven
        assert bnb.value == pytest.approx(exact.value, abs=TOL)
        assert validate_grouping(bnb.grouping, inst).feasible
        assert objective_value(bnb.grouping, inst.dist) == bnb.value


def test_bnb_node_budget_semantics():
    inst = random_instance(3, 9, 3, 2, 4)
    limited = solve_bnb(inst, SolveOptions(node_budget=1))
    assert not limited.proven
    assert limited.value <= solve_bruteforce(inst).value + TOL
    assert validate_grouping(limited.grouping, inst).feasible
    # a node budget makes the cut-off point, and so the answer, deterministic
    runs = [solve_bnb(inst, SolveOptions(node_budget=40)) for _ in range(2)]
    assert not runs[0].proven
    assert runs[0].value == runs[1].value
    assert runs[0].grouping.groups == runs[1].grouping.groups
    assert runs[0].nodes_explored == runs[1].nodes_explored == 40


def test_bnb_signed_distances_regression():
    # negative entries made the completion bound inadmissible: B&B pruned the
    # optimum (312.7213) and reported 311.1236 as proven
    rng = np.random.default_rng(88)
    inst = Instance(DistanceMatrix(8, rng.uniform(-100, 100, 28)), 3, 1, 6)
    exact = solve_bruteforce(inst)
    bnb = solve_bnb(inst)
    assert bnb.proven
    assert bnb.value == pytest.approx(exact.value, abs=TOL)
    assert bnb.value == pytest.approx(312.7213, abs=1e-4)


@st.composite
def _signed_instances(draw):
    n = draw(st.integers(2, 8))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_instance(seed, n, G, a, b, low=-100.0)


@settings(max_examples=150, deadline=None)
@given(_signed_instances())
def test_bnb_matches_oracle_on_signed_distances(inst):
    exact = solve_bruteforce(inst)
    bnb = solve_bnb(inst)
    assert bnb.proven
    assert bnb.value == pytest.approx(exact.value, abs=TOL)
    assert validate_grouping(bnb.grouping, inst).feasible
    assert objective_value(bnb.grouping, inst.dist) == bnb.value


@settings(max_examples=150, deadline=None)
@given(_signed_instances())
def test_bound_along_optimal_prefixes_signed(inst):
    # with negative entries an element may gain most from as few partners as
    # the lower size bound allows, so the bound must not assume b-1 of them
    opt = solve_bruteforce(inst)
    prefix = tuple((opt.grouping.label_array() + 1).tolist())
    for t in range(inst.n + 1):
        state = SearchState(inst, prefix[:t])
        assert partial_value(state) + upper_bound(state) + TOL >= opt.value


def test_bnb_bound_tightness_regression():
    # the bound that pooled an element's partners across groups needed
    # 60,184 nodes to prove this optimum
    rng = np.random.default_rng(1)
    inst = Instance(DistanceMatrix(16, rng.uniform(0, 100, 120)), 4, 4, 4)
    result = solve_bnb(inst, SolveOptions(node_budget=10_000))
    assert result.proven
    assert result.value == pytest.approx(1788.1898, abs=1e-4)


def test_bnb_result_satisfies_full_model():
    inst = random_instance(21, 8, 3, 2, 3)
    result = solve_bnb(inst)
    model = build_unequal(inst)
    report = check_assignment(model, encode_grouping(canonicalize(result.grouping), "unequal"))
    assert report.satisfied
    assert report.objective == pytest.approx(result.value, abs=TOL)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(node_budget=0)
    with pytest.raises(ValueError):
        SolveOptions(time_budget=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(time_budget=float("nan"))
