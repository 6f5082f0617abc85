import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from mdgp import solver
from mdgp.cli import gen_instance, parse_instance
from mdgp.core import _pair_index
from mdgp.heuristic import HeuristicResult, multistart
from conftest import TOL, random_instance, seeded_cases


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_set_partition_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, expected in bell.items():
        assert sum(1 for _ in iter_set_partitions(n)) == expected


@functools.lru_cache(maxsize=None)
def _restricted_growth_tuples(n, G):
    """Every label tuple of n elements over G labels, in lexicographic order,
    kept when each label is at most one above the largest before it."""
    kept = []
    for labels in itertools.product(range(G), repeat=n):
        if all(lab <= 1 + max(labels[:t], default=-1) for t, lab in enumerate(labels)):
            kept.append(labels)
    return kept


def _filtered_label_tuples(n, G, a, b):
    """Reference enumeration: the restricted-growth tuples of n elements in
    lexicographic order, kept when each of the G labels is used a..b times."""
    return [
        labels for labels in _restricted_growth_tuples(n, G)
        if all(a <= labels.count(g) <= b for g in range(G))
    ]


def _groups_of(labels):
    """The 1-based groups of a label tuple, ordered by label."""
    return tuple(
        tuple(e + 1 for e, lab in enumerate(labels) if lab == g) for g in range(max(labels) + 1)
    )


def test_feasible_enumeration_matches_filtered_partitions():
    for n in range(1, 9):
        for G in range(1, min(n, 4 if n < 8 else 3) + 1):
            lo, hi = n // G, -(-n // G)
            for a, b in sorted({(1, n), (1, hi), (lo, hi), (lo, n), (lo, lo)}):
                if a > b or not G * a <= n <= G * b:
                    continue
                inst = random_instance(n, n, G, a, b)
                got = [g.groups for g in iter_feasible_partitions(inst)]
                expected = [_groups_of(x) for x in _filtered_label_tuples(n, G, a, b)]
                assert got == expected, (n, G, a, b)
                assert count_feasible_partitions(inst) == len(expected), (n, G, a, b)


def test_set_partitions_match_filtered_label_tuples():
    for n in range(1, 7):
        got = [g.groups for g in iter_set_partitions(n)]
        assert got == [_groups_of(x) for x in _filtered_label_tuples(n, n, 0, n)]


def test_enumeration_does_not_depend_on_the_batch_size(monkeypatch):
    # a pass of the enumerator expands at most _BATCH_FLOATS // (k*G*(k+G))
    # nodes and leaves the rest of its batch pending. At the default size no
    # walk above is split, so smaller sizes check that a split keeps the
    # lexicographic order: one node per pass, and a handful
    cases = [(7, 3, 2, 3), (8, 2, 1, 7), (8, 3, 2, 4), (6, 4, 1, 3)]
    tails = [(6, 1, 5, (0, 0)), (4, 1, 3, (1, 0, 0)), (3, 2, 4, (2, 1, 0, 0))]
    expected_tails = [solver._completions.__wrapped__(*key) for key in tails]
    for floats in (1, 2000):
        monkeypatch.setattr(solver, "_BATCH_FLOATS", floats)
        for n, G, a, b in cases:
            inst = random_instance(n, n, G, a, b)
            expected = [_groups_of(x) for x in _filtered_label_tuples(n, G, a, b)]
            assert [g.groups for g in iter_feasible_partitions(inst)] == expected
            assert count_feasible_partitions(inst) == len(expected)
            result = solve_bruteforce(inst)
            got = (result.value, result.grouping.groups, result.nodes_explored)
            assert got == _oracle_reference(inst), (floats, n, G, a, b)
        got = [g.groups for g in iter_set_partitions(6)]
        assert got == [_groups_of(x) for x in _filtered_label_tuples(6, 6, 0, 6)]
        for key, (idx, onehot) in zip(tails, expected_tails):
            got_idx, got_onehot = solver._completions.__wrapped__(*key)
            assert got_idx.tobytes() == idx.tobytes() and got_onehot.tobytes() == onehot.tobytes()


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


def test_bruteforce_matches_reference_loop_on_rounded_ties():
    # decimal distances tie in exact arithmetic but not always in floats, and
    # summing the same pairs in another order moves a sum by an ulp; the chunk
    # scoring must still pick the value and tie of the per-partition loop. With
    # G = 2 and n = 9 the branch-and-bound's root is its exact tail, so it
    # too must reach that value bit for bit.
    rng = np.random.default_rng(2)
    for _ in range(100):
        n, G = 9, 2
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        inst = Instance(DistanceMatrix(n, rng.choice([0.1, 0.2, 0.3, 0.7], size=36)), G, a, b)
        result = solve_bruteforce(inst)
        expected = _oracle_reference(inst)
        assert (result.value, result.grouping.groups, result.nodes_explored) == expected
        assert solve_bnb(inst).value == expected[0]


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


def test_search_state_accepts_exactly_the_feasible_prefixes(worked_instance):
    # SearchState replays the branching rule, so it accepts a prefix exactly
    # when some feasible label tuple extends it, and the bound answers only
    # for such prefixes. Every one-label extension of an accepted prefix is
    # tried; a longer tuple with a refused prefix is refused at that label
    for n in range(1, 8):
        for G in range(1, min(n, 3) + 1):
            lo, hi = n // G, -(-n // G)
            for a, b in sorted({(1, n), (1, hi), (lo, hi), (lo, n), (lo, lo)}):
                if a > b or not G * a <= n <= G * b:
                    continue
                inst = random_instance(n, n, G, a, b, low=-100.0 if n % 2 else 0.0)
                best = {}
                for labels in _filtered_label_tuples(n, G, a, b):
                    value = inst.dist.same_label_sum(labels)
                    for t in range(n + 1):
                        prefix = tuple(lab + 1 for lab in labels[:t])
                        best[prefix] = max(best.get(prefix, -math.inf), value)
                accepted, frontier = set(), [SearchState(inst, ())]
                while frontier:
                    state = frontier.pop()
                    accepted.add(state.labels)
                    assert partial_value(state) + upper_bound(state) + TOL >= best[state.labels]
                    for lab in range(1, G + 1) if state.n_assigned < n else ():
                        child = state.labels + (lab,)
                        try:
                            frontier.append(SearchState(inst, child))
                        except ValueError:
                            assert child not in best, (n, G, a, b, child)
                        else:
                            assert child in best, (n, G, a, b, child)
                assert accepted == best.keys(), (n, G, a, b)
    # no feasible grouping of the worked example starts this way
    for labels in (1, 1, 1, 2, 2), (1, 2, 2, 2):
        with pytest.raises(ValueError, match="branching rule"):
            SearchState(worked_instance, labels)


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
        assert abs(bnb.value - exact.value) <= solver._rounding_slack(inst)
        assert validate_grouping(bnb.grouping, inst).feasible
        assert objective_value(bnb.grouping, inst.dist) == bnb.value


def test_bnb_node_budget_semantics():
    inst = random_instance(3, 9, 3, 2, 4)
    limited = solve_bnb(inst, SolveOptions(node_budget=1))
    assert not limited.proven
    assert limited.value <= solve_bruteforce(inst).value + TOL
    assert validate_grouping(limited.grouping, inst).feasible
    # a node budget makes the cut-off point, and so the answer, deterministic
    # (the full search proves this instance in 9 nodes)
    runs = [solve_bnb(inst, SolveOptions(node_budget=5)) for _ in range(2)]
    assert not runs[0].proven
    assert runs[0].value == runs[1].value
    assert runs[0].grouping.groups == runs[1].grouping.groups
    assert runs[0].nodes_explored == runs[1].nodes_explored == 5


def _first_feasible(instance, restarts, seed):
    """A weak stand-in for the seed heuristic: the first feasible partition
    in restricted-growth order, so the search itself must find the optimum."""
    grouping = next(iter_feasible_partitions(instance))
    value = objective_value(grouping, instance.dist)
    return HeuristicResult(grouping, value, 1, 0, (value,))


def test_bnb_budget_truncates_batches(monkeypatch):
    # from a weak seed the full search takes K = 63 nodes in batches at six
    # depths, raising the incumbent on the way; any smaller budget stops after
    # exactly that many nodes, most of them inside a batch
    monkeypatch.setattr(solver, "multistart", _first_feasible)
    inst = random_instance(2, 11, 3, 3, 4)
    full = solve_bnb(inst)
    K = full.nodes_explored
    assert full.proven and K == 63
    assert full.value > _first_feasible(inst, 1, 0).value
    for budget in range(1, K):
        runs = [solve_bnb(inst, SolveOptions(node_budget=budget)) for _ in range(2)]
        assert [r.nodes_explored for r in runs] == [budget, budget]
        assert not runs[0].proven and not runs[1].proven
        assert validate_grouping(runs[0].grouping, inst).feasible
        assert objective_value(runs[0].grouping, inst.dist) == runs[0].value
        assert (runs[0].value, runs[0].grouping) == (runs[1].value, runs[1].grouping)
    for budget in (K, K + 1, 10 * K):
        result = solve_bnb(inst, SolveOptions(node_budget=budget))
        assert result.proven and result.nodes_explored == K
        assert (result.value, result.grouping) == (full.value, full.grouping)
    timed = solve_bnb(inst, SolveOptions(time_budget=1e-9))
    seed = _first_feasible(inst, 1, 0)
    assert not timed.proven and timed.nodes_explored == 0
    assert (timed.value, timed.grouping) == (seed.value, canonicalize(seed.grouping))


def test_bnb_does_not_depend_on_the_batch_size(monkeypatch):
    # passes sized from _BATCH_FLOATS split batches in different places, and
    # the incumbent rises between passes, so node counts may move; value,
    # grouping and proof may not. One-node passes also pop batches that the
    # incumbent has wholly overtaken since they were bounded. Integer
    # distances in 0..3 tie many labellings exactly, so the tail's rescoring
    # in batch order is what keeps the grouping fixed
    rng = np.random.default_rng(15)
    cases = []
    for k in range(12):
        n, G = int(rng.integers(7, 12)), int(rng.integers(3, 5))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        cases.append(random_instance(100 + k, n, G, a, b, low=-100.0 * (k % 2)))
    for k in range(8):
        n, G = int(rng.integers(8, 13)), int(rng.integers(3, 5))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        cond = rng.integers(0, 4, size=n * (n - 1) // 2)
        cases.append(Instance(DistanceMatrix(n, cond), G, a, b))
    default = solver._BATCH_FLOATS
    for seed in (solver.multistart, _first_feasible):
        monkeypatch.setattr(solver, "multistart", seed)
        monkeypatch.setattr(solver, "_BATCH_FLOATS", default)
        expected = [solve_bnb(inst) for inst in cases]
        for floats in (1, 64, 4096):
            monkeypatch.setattr(solver, "_BATCH_FLOATS", floats)
            for inst, want in zip(cases, expected):
                got = solve_bnb(inst)
                assert (got.value.hex(), got.grouping, got.proven) == (
                    want.value.hex(), want.grouping, want.proven), (seed, floats)


def test_bnb_returns_the_first_optimum_in_enumeration_order(monkeypatch):
    # the search visits every depth in lexicographic order of its labels and
    # replaces the incumbent only by a strictly higher exact sum, so from a
    # seed that is not optimal it returns the first optimum that
    # iter_feasible_partitions yields, value and groups. 0/1 distances tie
    # many labellings exactly, and at s = 2 a search that visits children
    # in another order can meet a later tie first. Fewer seeds run at the
    # small pass size, which splits batches in more places and is slower
    monkeypatch.setattr(solver, "multistart", _first_feasible)
    n, G, a, b = 12, 4, 2, 4
    labels = np.concatenate(list(solver._leaves(n, a, b, (0,) * G)))
    iu, ju = _pair_index(n)
    same = labels[:, iu] == labels[:, ju]
    for floats, seeds in ((solver._BATCH_FLOATS, range(20)), (4096, (0, 1, 2, 3, 4, 5))):
        monkeypatch.setattr(solver, "_BATCH_FLOATS", floats)
        for s in seeds:
            d = np.random.default_rng(s).integers(0, 2, 66).astype(float)
            # summed in parts: the whole (labellings, pairs) float array is 109 MB
            sums = np.concatenate([np.where(part, d, 0.0).sum(axis=1)
                                   for part in np.array_split(same, 16)])
            first = int(np.argmax(sums))
            result = solve_bnb(Instance(DistanceMatrix(n, d), G, a, b))
            assert result.proven
            assert (result.value, result.grouping.groups) == (
                sums[first], Grouping.from_labels(labels[first].tolist()).groups), (floats, s)


def test_time_budget_covers_the_seed(monkeypatch):
    # the deadline is taken on entry, so a seed that outlasts the budget
    # leaves no time to search: no node is visited and the seed is returned
    def slow_seed(instance, restarts, seed):
        time.sleep(0.2)
        return _first_feasible(instance, restarts, seed)

    monkeypatch.setattr(solver, "multistart", slow_seed)
    inst = random_instance(2, 11, 3, 3, 4)
    result = solve_bnb(inst, SolveOptions(time_budget=0.1))
    seed = _first_feasible(inst, 1, 0)
    assert not result.proven and result.nodes_explored == 0
    assert (result.value, result.grouping) == (seed.value, canonicalize(seed.grouping))


def _counted_multistart(monkeypatch):
    """Patch the solver's seed heuristic to record each call's result."""
    runs = []

    def counted(instance, restarts, seed):
        runs.append(multistart(instance, restarts, seed))
        return runs[-1]

    monkeypatch.setattr(solver, "multistart", counted)
    return runs


def test_seed_is_one_restart(monkeypatch):
    # unbudgeted, the seed is one call of the heuristic: one restart of
    # _SEED_SEED, the same restart multistart itself makes first
    inst = parse_instance(gen_instance(14, 3, 4, 5, "uniformkd:2", seed=2)).instance
    runs = _counted_multistart(monkeypatch)
    solve_bnb(inst)
    assert [r.restarts_used for r in runs] == [1]
    assert runs[0].restart_values == multistart(inst, 1, solver._SEED_SEED).restart_values


def test_time_budget_shorter_than_one_restart(monkeypatch):
    # the first seed restart always runs and no other starts after the
    # deadline, so the search returns that restart's grouping, unproven
    inst = parse_instance(gen_instance(40, 5, 8, 8, "uniformkd:2", seed=1)).instance
    runs = _counted_multistart(monkeypatch)
    result = solve_bnb(inst, SolveOptions(time_budget=1e-9))
    assert [r.restarts_used for r in runs] == [1]
    assert not result.proven and result.nodes_explored == 0
    assert validate_grouping(result.grouping, inst).feasible
    assert result.grouping == canonicalize(runs[0].grouping)
    assert result.value == runs[0].value == objective_value(result.grouping, inst.dist)


def test_bnb_meets_rounded_ties_with_a_weak_seed(monkeypatch):
    # decimal distances tie in exact arithmetic but not always in floats; from
    # a weak seed the tails themselves meet those ties, and one that rescored
    # only its fastest-summed labelling could stop an ulp below the oracle.
    # G = 2 makes the root the tail, G = 3 and 4 branch above it.
    monkeypatch.setattr(solver, "multistart", _first_feasible)
    rng = np.random.default_rng(3)
    for _ in range(60):
        n, G = 9, int(rng.integers(2, 5))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        inst = Instance(DistanceMatrix(n, rng.choice([0.1, 0.2, 0.3, 0.7], size=36)), G, a, b)
        result = solve_bnb(inst)
        assert result.proven
        assert result.value == solve_bruteforce(inst).value


def test_bnb_memory_stays_bounded_on_a_wide_search(monkeypatch):
    # from a weak seed this G = 12 instance keeps a wide frontier at every
    # depth. Passes are sized in floats, with a share for each depth that may
    # hold pending nodes, so the peak is about 7 MB; sizing a pass by its own
    # floats alone peaks near 71 MB, and at 4096 nodes a pass near 117 MB
    monkeypatch.setattr(solver, "multistart", _first_feasible)
    inst = random_instance(34, 34, 12, 1, 6, low=-100.0)
    tracemalloc.start()
    try:
        result = solve_bnb(inst, SolveOptions(node_budget=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.nodes_explored == 5000 and not result.proven
    assert peak < 32e6


def test_bnb_signed_distances_regression():
    # negative entries made the completion bound inadmissible: B&B pruned the
    # optimum (312.7213) and reported 311.1236 as proven
    rng = np.random.default_rng(88)
    inst = Instance(DistanceMatrix(8, rng.uniform(-100, 100, 28)), 3, 1, 6)
    exact = solve_bruteforce(inst)
    bnb = solve_bnb(inst)
    assert bnb.proven
    assert abs(bnb.value - exact.value) <= solver._rounding_slack(inst)
    assert bnb.value == pytest.approx(312.7213, abs=1e-4)


@st.composite
def _signed_instances(draw, max_n=8):
    n = draw(st.integers(2, max_n))
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
    assert abs(bnb.value - exact.value) <= solver._rounding_slack(inst)
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


def _reference_suffix_table(d, t, a, b):
    """_suffix_table as a plain loop over a list-of-lists square: for each u
    in t..n-1 and s = 0..b-1, add u's half-distances into the suffix, largest
    first, taking the a-1-s largest and then the positive ones, up to b-1-s
    in all; row b is -inf."""
    n = len(d)
    table = np.full((b + 1, n - t), -math.inf)
    for i, u in enumerate(range(t, n)):
        vals = sorted((0.5 * d[u][w] for w in range(t, n) if w != u), reverse=True)
        for s in range(b):
            q = 0.0
            for j, v in enumerate(vals[: b - 1 - s]):
                if j >= a - 1 - s and v <= 0.0:
                    break
                q += v
            table[s, i] = q
    return table


def test_suffix_table_equals_the_plain_loop(monkeypatch):
    # signed, integer-tied and decimal-tied distances, zeros among them, at
    # every depth t including the empty suffix t = n; the bits must agree,
    # since the search's node counts depend on them. upper_bound and the
    # search must both take their tables from the same routine
    rng = np.random.default_rng(13)
    draws = [
        lambda k: rng.uniform(-100, 100, k),
        lambda k: rng.integers(-2, 3, k).astype(float),
        lambda k: rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], k),
    ]
    build = solver._suffix_table
    calls = []

    def spy(square, t, a, b):
        calls.append(t)
        return build(square, t, a, b)

    for rep in range(60):
        n = int(rng.integers(1, 11))
        G = int(rng.integers(1, n + 1))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        dist = DistanceMatrix(n, draws[rep % 3](n * (n - 1) // 2))
        square = dist.as_square()
        d = square.tolist()
        for t in range(n + 1):
            got = build(square, t, a, b)
            expected = _reference_suffix_table(d, t, a, b)
            assert got.shape == expected.shape == (b + 1, n - t)
            assert got.tobytes() == expected.tobytes(), (rep, n, a, b, t)
        monkeypatch.setattr(solver, "_suffix_table", spy)
        inst = Instance(dist, G, a, b)
        prefix = tuple((next(iter_feasible_partitions(inst)).label_array() + 1).tolist())
        for t in range(n):
            calls.clear()
            upper_bound(SearchState(inst, prefix[:t]))
            assert calls == [t]
        calls.clear()
        solve_bnb(inst)
        R = max(r for r in range(1, n + 1) if r == 1 or G**r <= solver._TAIL_LABELLINGS)
        assert calls == list(range(1, n - R + 1))
        monkeypatch.setattr(solver, "_suffix_table", build)


def _reference_bound(state):
    """upper_bound as a plain loop: for each unassigned u in index order, the
    best over the groups with room of u's distance sum to the group's members
    plus its suffix-table term; a group not yet opened counts as empty."""
    inst, t = state.instance, state.n_assigned
    d = inst.dist.as_square().tolist()
    Q = _reference_suffix_table(d, t, inst.a, inst.b).tolist()
    members = [[v for v, lab in enumerate(state.labels) if lab == g] for g in range(1, inst.G + 1)]
    total = 0.0
    for u in range(t, inst.n):
        terms = [sum((d[v][u] for v in m), 0.0) + Q[len(m)][u - t] for m in members if len(m) < inst.b]
        total += max(terms, default=-math.inf)
    return total


# the search adds the bound's terms in index order; numpy's pairwise sum,
# which splits sums of eight or more terms, would move the bits and with them
# the node counts
@settings(max_examples=150, deadline=None)
@given(_signed_instances(max_n=9))
@example(random_instance(5, 9, 3, 2, 4, low=-100.0))
@example(random_instance(6, 9, 2, 1, 8, low=-100.0))
def test_bound_sums_in_index_order(inst):
    opt = solve_bruteforce(inst)
    prefix = tuple((opt.grouping.label_array() + 1).tolist())
    for t in range(inst.n + 1):
        state = SearchState(inst, prefix[:t])
        assert upper_bound(state) == _reference_bound(state)


def test_bnb_bound_tightness_regression():
    # the bound that pooled an element's partners across groups needed
    # 60,184 nodes to prove this optimum
    rng = np.random.default_rng(1)
    inst = Instance(DistanceMatrix(16, rng.uniform(0, 100, 120)), 4, 4, 4)
    result = solve_bnb(inst, SolveOptions(node_budget=10_000))
    assert result.proven
    assert result.value == pytest.approx(1788.1898, abs=1e-4)


@st.composite
def _tail_instances(draw):
    n = draw(st.integers(1, 9))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    low = draw(st.sampled_from([0.0, -100.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_instance(seed, n, G, a, b, low=low)


# the search scores the last R elements at once, R the largest r <= n with
# G**r <= 1024: for n = 9 the root is that tail when G = 2 and is not when
# G = 3 (R = 6) or G = 9 (R = 3)
@settings(max_examples=150, deadline=None)
@given(_tail_instances())
@example(random_instance(1, 9, 2, 1, 8, low=-100.0))
@example(random_instance(2, 9, 3, 2, 4))
@example(random_instance(3, 9, 9, 1, 1, low=-100.0))
@example(random_instance(4, 9, 3, 1, 5, low=-100.0))
def test_bnb_with_tail_equals_oracle(inst):
    exact = solve_bruteforce(inst)
    bnb = solve_bnb(inst)
    assert bnb.proven
    assert bnb.value == exact.value
    assert bnb.grouping.groups == exact.grouping.groups
    assert objective_value(bnb.grouping, inst.dist) == bnb.value


def test_bnb_one_element_tail():
    # 33**2 > 1024, so the tail is the last element alone; with sizes in
    # [1, 2] the optimum puts the farthest pair together
    rng = np.random.default_rng(34)
    inst = Instance(DistanceMatrix(34, rng.uniform(-100, 100, 34 * 33 // 2)), 33, 1, 2)
    result = solve_bnb(inst)
    assert result.proven
    assert result.value == inst.dist.condensed().max()
    assert objective_value(result.grouping, inst.dist) == result.value


def test_one_element_tails_equal_the_oracle(monkeypatch):
    # a one-element tail is scored by one gather instead of the product:
    # with at most 2 tail labellings every G >= 2 has R = 1, so signed and
    # integer-tied distances at small n reach that path, from a weak seed too
    monkeypatch.setattr(solver, "_TAIL_LABELLINGS", 2)
    rng = np.random.default_rng(35)
    for k in range(16):
        n, G = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), n + 1))
        k_pairs = n * (n - 1) // 2
        draws = [rng.uniform(-100, 100, k_pairs), rng.integers(-2, 3, k_pairs).astype(float)]
        inst = Instance(DistanceMatrix(n, draws[k % 2]), G, a, b)
        exact = solve_bruteforce(inst)
        for seed in (solver.multistart, _first_feasible):
            monkeypatch.setattr(solver, "multistart", seed)
            result = solve_bnb(inst)
            assert result.proven and result.value == exact.value, k
            assert objective_value(result.grouping, inst.dist) == result.value
            # integer ties leave more than one optimum to keep
            if k % 2 == 0:
                assert result.grouping.groups == exact.grouping.groups, k


def test_tail_fits_are_the_restricted_growth_completions():
    # with at most 16 tail labellings R is 2 to 4 for G = 2..4, so prefixes
    # of every reachable sizes tuple exist; each one's completions, in
    # lexicographic order, are the tails of the feasible strings it starts
    # (filtered from every label tuple, not enumerated by the search's rule):
    # row g * R + j of the one-hot marks the tails whose position j takes
    # group g, and each index is its labelling's rank among the G**R in that
    # order.
    # How the search scores them is checked end to end, against the oracle
    for n in range(1, 9):
        for G in range(1, min(n, 4) + 1):
            R = max([r for r in range(1, n + 1) if G**r <= 16], default=1)
            t = n - R
            for a in range(1, n // G + 1):
                for b in range(max(a, -(-n // G)), n + 1):
                    completions = {}
                    for labels in _filtered_label_tuples(n, G, a, b):
                        completions.setdefault(labels[:t], []).append(labels[t:])
                    for prefix, tails in completions.items():
                        sizes = tuple(np.bincount(prefix, minlength=G).tolist())
                        idx, onehot = solver._completions(R, a, b, sizes)
                        assert onehot.dtype == np.uint8
                        expected = [[int(x[j] == g) for x in tails] for g in range(G) for j in range(R)]
                        assert onehot.tolist() == expected, (n, G, a, b, prefix)
                        ranks = [sum(g * G ** (R - 1 - j) for j, g in enumerate(x)) for x in tails]
                        assert idx.tolist() == ranks


def test_tail_completions_are_shared_safely(monkeypatch):
    # completions are cached across solves by (R, a, b, sizes). With n = 6
    # and G = 2 the root is the tail (R = 6), so every solve looks up the
    # sizes tuple (0, 0); (1, 5) and (2, 5) share b, (1, 5) and (1, 3) share
    # a. Distances in [90, 100) make the most unequal sizes that a pair of
    # bounds allows its only optimum, so a completion leaked from looser
    # bounds scores above the true optimum
    solver._completions.cache_clear()
    idx, onehot = solver._completions(6, 1, 5, (0, 0))
    for cached in (idx, onehot):
        with pytest.raises(ValueError):
            cached[0] = 1
    rng = np.random.default_rng(12)
    six = DistanceMatrix(6, rng.uniform(90, 100, 15))
    four = DistanceMatrix(4, rng.uniform(90, 100, 6))
    bounds = [(1, 5), (2, 5), (1, 3)]
    for a, b in bounds:
        inst = Instance(six, 2, a, b)
        exact, result = solve_bruteforce(inst), solve_bnb(inst)
        assert (result.value, result.grouping.groups) == (exact.value, exact.grouping.groups), (a, b)
    # one entry for each pair of bounds
    assert solver._completions.cache_info().currsize == len(bounds)
    # R is in the key too: with at most 16 tail labellings R = 4, so the six
    # elements branch twice above the tail and the four-element root is a
    # tail of (0, 0) again
    monkeypatch.setattr(solver, "_TAIL_LABELLINGS", 16)
    for inst in [Instance(six, 2, a, b) for a, b in bounds] + [Instance(four, 2, 1, 3)]:
        exact, result = solve_bruteforce(inst), solve_bnb(inst)
        assert (result.value, result.grouping.groups) == (exact.value, exact.grouping.groups)


def test_tail_rounding_decides_nothing(monkeypatch):
    # the tail's fast scores only choose which labellings get an exact
    # same_label_sum, with _rounding_slack around every threshold, so a
    # product a few ulps off must give the same bits, grouping and node
    # count. Each one-hot entry is scaled by 1 + k*eps, k in -4..4, so
    # labellings tied in exact arithmetic get scores ulps apart. The grid has
    # signed, integer-tied and uniform distances, equal and unequal bounds,
    # and tails below branching. The seed is weak, so that the tails raise
    # the incumbent; from the heuristic's seed they rarely do
    monkeypatch.setattr(solver, "multistart", _first_feasible)
    rng = np.random.default_rng(21)
    cases = []
    for k in range(24):
        n, G = int(rng.integers(6, 12)), int(rng.integers(2, 5))
        a = int(rng.integers(1, n // G + 1))
        b = int(rng.integers(-(-n // G), min(n, -(-n // G) + 2) + 1))
        k_pairs = n * (n - 1) // 2
        draws = [rng.uniform(-100, 100, k_pairs), rng.integers(-2, 3, k_pairs).astype(float),
                 rng.integers(0, 4, k_pairs).astype(float), rng.uniform(0, 100, k_pairs)]
        cases.append(Instance(DistanceMatrix(n, draws[k % 4]), G, a, b))
    assert any(inst.a < inst.b for inst in cases) and any(inst.a == inst.b for inst in cases)

    def key(result):
        return result.value.hex(), result.grouping.groups, result.nodes_explored, result.proven

    expected = [key(solve_bnb(inst)) for inst in cases]
    exact = solver._completions
    eps = np.finfo(float).eps
    for seed in range(3):
        used = []

        def perturbed(R, a, b, sizes):
            idx, onehot = exact(R, a, b, sizes)
            used.append(sizes)
            ulps = np.random.default_rng([seed, *sizes]).integers(-4, 5, onehot.shape)
            return idx, onehot * (1 + ulps * eps)

        monkeypatch.setattr(solver, "_completions", perturbed)
        assert [key(solve_bnb(inst)) for inst in cases] == expected, seed
        assert used


# (N, G, a, b, kind, seed) -> (nodes_explored, value.hex()): node counts do
# not depend on the machine, so they pin the search itself. Kind "rng" is a
# DIST instance: default_rng(seed).uniform(0, 100, (N, N)), its upper
# triangle kept and mirrored
NODE_GATE = {
    (12, 3, 4, 4, "uniformkd:2", 1): (177, "0x1.3cf8cce1c5826p+10"),
    (12, 4, 2, 4, "mixed:2,2", 2): (919, "0x1.30f629506f257p+3"),
    (13, 3, 3, 5, "uniformkd:2", 3): (542, "0x1.af87a8d64d7f2p+10"),
    (14, 2, 7, 7, "uniformkd:3", 4): (16, "0x1.1dff852d666aap+12"),
    (11, 4, 2, 3, "uniform1d", 5): (203, "0x1.794f4aba38759p+8"),
    (14, 3, 4, 5, "mixed:2,2", 7): (1556, "0x1.14ad618d2fadbp+4"),
    (15, 4, 3, 5, "rng", 1): (40779, "0x1.aad137bc975b2p+10"),
    (16, 4, 4, 4, "rng", 1): (5485, "0x1.b365eb471b6e8p+10"),
    (15, 4, 3, 5, "rng", 2): (37042, "0x1.a11c62526d42bp+10"),
}


def test_bnb_node_counts_are_pinned():
    got = {}
    for n, G, a, b, kind, seed in NODE_GATE:
        if kind == "rng":
            m = np.triu(np.random.default_rng(seed).uniform(0, 100, (n, n)), 1)
            inst = Instance(DistanceMatrix.from_square(m + m.T), G, a, b)
        else:
            metric = "gower" if kind.startswith("mixed") else "manhattan"
            inst = parse_instance(gen_instance(n, G, a, b, kind, seed), metric).instance
        result = solve_bnb(inst)
        assert result.proven
        got[n, G, a, b, kind, seed] = (result.nodes_explored, result.value.hex())
    assert got == NODE_GATE


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
    # NaN compares false with everything, so it would never stop the search
    for budget in (float("nan"), 2.5, 40.0, True, "40"):
        with pytest.raises(ValueError, match="node_budget"):
            SolveOptions(node_budget=budget)
    assert SolveOptions(node_budget=np.int64(40)).node_budget == 40
    for budget in (-1.0, 0, float("nan"), True, "5", [1]):
        with pytest.raises(ValueError, match="time_budget"):
            SolveOptions(time_budget=budget)
    assert SolveOptions(time_budget=np.float32(0.5)).time_budget == 0.5
    assert SolveOptions(time_budget=2).time_budget == 2
