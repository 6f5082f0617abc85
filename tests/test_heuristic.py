import hashlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgp import (
    DistanceMatrix,
    Grouping,
    Instance,
    greedy_construct,
    local_search,
    multistart,
    objective_value,
    solve_bruteforce,
    validate_grouping,
)
from mdgp import heuristic
from mdgp.cli import gen_instance, parse_instance
from mdgp.rng import SplitMix64, derive_seed
from conftest import TOL, random_instance, seeded_cases


# ---------------------------------------------------------------------------
# test-only reference: the per-candidate loop local_search used before the
# delta matrix, with the same tie rule
# ---------------------------------------------------------------------------

def _swap_delta(d, groups, ga, ia, gb, ib) -> float:
    u, v = groups[ga][ia], groups[gb][ib]
    du = d[u - 1]
    dv = d[v - 1]
    gain = sum(du[w - 1] for w in groups[gb] if w != v) + sum(
        dv[w - 1] for w in groups[ga] if w != u
    )
    loss = sum(du[w - 1] for w in groups[ga] if w != u) + sum(
        dv[w - 1] for w in groups[gb] if w != v
    )
    return gain - loss


def _move_delta(d, groups, ga, ia, gb) -> float:
    u = groups[ga][ia]
    du = d[u - 1]
    return sum(du[w - 1] for w in groups[gb]) - sum(
        du[w - 1] for w in groups[ga] if w != u
    )


def _tol(inst) -> float:
    return 1e-9 * float(np.abs(inst.dist.condensed()).max(initial=0.0)) * inst.b


def _candidates(inst, groups):
    """Every legal swap and move as (delta, descriptor, (kind, ga, ia, gb, ib))."""
    d = inst.dist.as_square()
    out = []
    for ga in range(len(groups)):
        for gb in range(ga + 1, len(groups)):
            for ia, u in enumerate(groups[ga]):
                for ib, v in enumerate(groups[gb]):
                    out.append((_swap_delta(d, groups, ga, ia, gb, ib),
                                (0, min(u, v), max(u, v)), ("swap", ga, ia, gb, ib)))
    for ga in range(len(groups)):
        if len(groups[ga]) - 1 < inst.a:
            continue
        for gb in range(len(groups)):
            if gb == ga or len(groups[gb]) + 1 > inst.b:
                continue
            for ia, u in enumerate(groups[ga]):
                out.append((_move_delta(d, groups, ga, ia, gb), (1, u, gb + 1), ("move", ga, ia, gb, 0)))
    return out


def reference_local_search(inst, start):
    """Steepest ascent summing group members per candidate: a step improves
    when its delta exceeds tol, steps within tol of the best are tied and the
    smallest descriptor wins, and the search stops if the objective did not
    rise."""
    tol = _tol(inst)
    groups = [list(g) for g in start.groups]
    value = objective_value(start, inst.dist)
    while True:
        improving = [c for c in _candidates(inst, groups) if c[0] > tol]
        if not improving:
            break
        best = max(c[0] for c in improving)
        _, _, (kind, ga, ia, gb, ib) = min(
            (c for c in improving if c[0] >= best - tol), key=lambda c: c[1]
        )
        trial = [list(g) for g in groups]
        if kind == "swap":
            trial[ga][ia], trial[gb][ib] = trial[gb][ib], trial[ga][ia]
        else:
            trial[gb].append(trial[ga].pop(ia))
        new_value = objective_value(Grouping(trial), inst.dist)
        if new_value <= value:
            break
        value = new_value
        groups = [sorted(g) for g in trial]
    return Grouping(groups)


def test_splitmix_reference_values():
    # stream for seed 0; frozen so any reimplementation can cross-check
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix_float_range_and_determinism():
    a, b = SplitMix64(42), SplitMix64(42)
    for _ in range(100):
        x, y = a.next_float(), b.next_float()
        assert x == y
        assert 0.0 <= x < 1.0
    assert derive_seed(7, 1) != derive_seed(7, 2)


def test_greedy_is_feasible_and_deterministic():
    for seed, n, G, a, b in seeded_cases(20):
        inst = random_instance(seed, n, G, a, b)
        g1 = greedy_construct(inst, seed=seed)
        g2 = greedy_construct(inst, seed=seed)
        assert g1 == g2
        assert validate_grouping(g1, inst).feasible


def test_greedy_pair_groups(worked_instance):
    g = greedy_construct(worked_instance, seed=5)
    assert validate_grouping(g, worked_instance).feasible


def test_greedy_forced_singletons():
    inst = random_instance(2, 5, 5, 1, 1)
    for seed in range(4):
        g = greedy_construct(inst, seed=seed)
        assert g.group_count == 5
        assert all(len(members) == 1 for members in g.groups)


def test_local_search_keeps_optimum(worked_instance):
    # a grouping with no improving neighbor comes back unchanged
    opt = solve_bruteforce(worked_instance).grouping
    assert local_search(worked_instance, opt) == opt


def test_local_search_improves_worked_start(worked_instance):
    start = Grouping([(1, 2), (3, 4), (5, 6)])  # value 3
    assert objective_value(start, worked_instance.dist) == 3.0
    result = local_search(worked_instance, start)
    assert objective_value(result, worked_instance.dist) >= 3.0
    assert validate_grouping(result, worked_instance).feasible


def test_local_search_monotone():
    for seed, n, G, a, b in seeded_cases(20):
        inst = random_instance(seed, n, G, a, b)
        start = greedy_construct(inst, seed=seed + 1)
        before = objective_value(start, inst.dist)
        after = objective_value(local_search(inst, start), inst.dist)
        assert after + TOL >= before


@st.composite
def _signed_starts(draw):
    n = draw(st.integers(2, 12))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    inst = random_instance(draw(st.integers(0, 2**32 - 1)), n, G, a, b, low=-100.0)
    return inst, greedy_construct(inst, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_signed_starts())
def test_local_search_monotone_on_signed_distances(case):
    inst, start = case
    result = local_search(inst, start)
    assert validate_grouping(result, inst).feasible
    assert objective_value(result, inst.dist) >= objective_value(start, inst.dist)


@st.composite
def _starts(draw):
    n = draw(st.integers(1, 12))
    G = draw(st.integers(1, n))
    a = draw(st.integers(1, n // G))
    b = draw(st.integers(-(-n // G), n))
    low = draw(st.sampled_from([0.0, -100.0]))
    inst = random_instance(draw(st.integers(0, 2**32 - 1)), n, G, a, b, low=low)
    values = draw(st.sampled_from(["uniform", "integral", "zero"]))
    if values == "integral":
        # integral distances make exactly tied steps common
        inst = Instance(DistanceMatrix(n, np.round(inst.dist.condensed())), G, a, b)
    elif values == "zero":
        # all-zero distances make tol 0 and leave no step that gains, so the
        # start must come back as it is
        inst = Instance(DistanceMatrix(n, np.zeros(n * (n - 1) // 2)), G, a, b)
    return inst, greedy_construct(inst, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_starts())
def test_local_search_matches_reference(case):
    inst, start = case
    assert local_search(inst, start) == reference_local_search(inst, start)


@settings(max_examples=150, deadline=None)
@given(_starts())
def test_local_search_returns_local_optimum(case):
    inst, start = case
    result = local_search(inst, start)
    groups = [list(g) for g in result.groups]
    assert all(delta <= _tol(inst) for delta, _, _ in _candidates(inst, groups))


def test_local_search_matches_reference_large():
    text = gen_instance(60, 6, 10, 10, kind="uniformkd:2", seed=3)
    inst = parse_instance(text).instance
    start = greedy_construct(inst, seed=derive_seed(0, 1))
    result = local_search(inst, start)
    assert result == reference_local_search(inst, start)
    assert result != start


def test_local_search_skips_tied_steps_that_do_not_improve():
    # tol is about 1e-9: swapping 1 and 4 gains 1.8e-9, the best step, while
    # swapping 1 and 3 gains 0.9e-9, within tol of the best but not above tol,
    # so its smaller descriptor must not win the tie
    cond = np.array([0.5, 0.5, 0.5, 0.5 + 0.9e-9, 0.5 + 1.8e-9, 0.5])
    inst = Instance(DistanceMatrix(4, cond), 2, 2, 2)
    start = Grouping([(1, 2), (3, 4)])
    result = local_search(inst, start)
    assert result == reference_local_search(inst, start)
    assert sorted(result.groups) == [(1, 3), (2, 4)]


def test_local_search_stops_when_the_exact_sum_does_not_rise(worked_instance, monkeypatch):
    # the float-drift guard: a step the deltas call improving whose
    # recomputed sum does not rise ends the search before that step. An
    # infinite margin proves no rise, so every step takes the exact path
    start = Grouping([(1, 2), (3, 4), (5, 6)])
    assert local_search(worked_instance, start) != start
    monkeypatch.setattr(heuristic, "_rise_margin", lambda *args: float("inf"))
    sums = []
    real = DistanceMatrix.same_label_sum

    def stalled(self, labels):
        sums.append(sums[0] if sums else real(self, labels))
        return sums[-1]

    monkeypatch.setattr(DistanceMatrix, "same_label_sum", stalled)
    assert local_search(worked_instance, start) == start
    assert len(sums) == 2


@st.composite
def _margin_cases(draw):
    """Starts with equal (a == b) or unequal size bounds, over signed
    distances, decimal ties (multiples of 0.1, which floats hold inexactly),
    tiny ones, or ones whose absolute sum is 0.9 of DistanceMatrix's limit,
    plus a multistart seed."""
    if draw(st.booleans()):
        G = draw(st.integers(1, 4))
        a = b = draw(st.integers(1, 12 // G))
        n = G * a
    else:
        n = draw(st.integers(2, 12))
        G = draw(st.integers(1, n))
        a = draw(st.integers(1, min(n // G, n - 1)))
        b = draw(st.integers(max(a + 1, -(-n // G)), n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = rng.uniform(-100.0, 100.0, n * (n - 1) // 2)
    family = draw(st.sampled_from(["signed", "decimal", "tiny", "near_limit"]))
    if family == "decimal":
        cond = np.round(np.abs(cond) / 100.0, 1)
    elif family == "tiny":
        cond = cond * 1e-300
    elif family == "near_limit" and np.abs(cond).sum() > 0.0:
        cond = cond / np.abs(cond).sum() * (0.9 * np.finfo(float).max / 4.0)
    inst = Instance(DistanceMatrix(n, cond), G, a, b)
    return inst, greedy_construct(inst, seed=draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 2**32 - 1))


def _checked_steps(inst, start):
    """Run local_search and record, at each step whose rise it checks, the
    step's float delta, the margin, and the labels before and after the step,
    read from the search's frame (the caller of the margin helper)."""
    steps = []
    real = heuristic._rise_margin

    def spy(*args):
        margin = real(*args)
        f = sys._getframe(1).f_locals
        steps.append((f["delta"], margin, f["label"].copy(), f["new"].copy()))
        return margin

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heuristic, "_rise_margin", spy)
        result = local_search(inst, start)
    return result, steps


@settings(max_examples=200, deadline=None)
@given(_margin_cases())
def test_rise_margin_proves_each_skipped_rise(case):
    # wherever the margin lets a step skip the exact sums, the sum rises; on
    # every checked step the float delta is within half the margin (the
    # first-order error bound) of the difference of the two float sums
    inst, start, seed = case
    result, steps = _checked_steps(inst, start)
    for delta, margin, old, new in steps:
        before, after = inst.dist.same_label_sum(old), inst.dist.same_label_sum(new)
        if delta > margin:
            assert after > before
        assert abs(Fraction(delta) - (Fraction(after) - Fraction(before))) <= Fraction(margin) / 2
    assert result == reference_local_search(inst, start)
    r = multistart(inst, restarts=3, seed=seed)
    reference = [reference_local_search(inst, greedy_construct(inst, derive_seed(seed, i))) for i in (1, 2, 3)]
    values = [objective_value(g, inst.dist) for g in reference]
    assert r.restart_values == tuple(values)
    assert r.best_restart_index == values.index(max(values)) + 1
    assert r.grouping == reference[r.best_restart_index - 1]
    assert r.value == objective_value(r.grouping, inst.dist)


def test_multistart_sums_once_per_restart_where_the_margin_proves_each_rise(monkeypatch):
    # at N=60, b=10 the margin (about 3e-11·max|d|) is far below tol, so no
    # step is re-summed: each restart takes one sum, of its final labels
    inst = parse_instance(gen_instance(60, 6, 10, 10, "uniformkd:2", seed=3)).instance
    calls = []
    real = DistanceMatrix.same_label_sum

    def counted(self, labels):
        calls.append(1)
        return real(self, labels)

    monkeypatch.setattr(DistanceMatrix, "same_label_sum", counted)
    multistart(inst, restarts=4, seed=1)
    assert len(calls) == 4


def test_local_search_rejects_infeasible_start(worked_instance):
    with pytest.raises(ValueError, match="infeasible"):
        local_search(worked_instance, Grouping([(1, 2, 3), (4, 5, 6)]))


def test_fixed_sizes_disable_moves():
    # a == b leaves no legal relocation, only swaps; search must still work
    inst = random_instance(8, 6, 3, 2, 2)
    result = local_search(inst, greedy_construct(inst, seed=3))
    assert all(len(g) == 2 for g in result.groups)


def test_multistart_reproducible_and_bounded(worked_instance):
    r1 = multistart(worked_instance, restarts=20, seed=1)
    r2 = multistart(worked_instance, restarts=20, seed=1)
    assert r1 == r2
    assert r1.value <= 9.0 + TOL
    assert r1.restarts_used == 20
    assert 1 <= r1.best_restart_index <= 20
    assert len(r1.restart_values) == 20
    assert max(r1.restart_values) == r1.value
    assert validate_grouping(r1.grouping, worked_instance).feasible


def test_multistart_single_restart_equals_pipeline():
    inst = random_instance(13, 7, 2, 3, 4)
    r = multistart(inst, restarts=1, seed=9)
    direct = local_search(inst, greedy_construct(inst, derive_seed(9, 1)))
    assert r.grouping == direct
    assert r.best_restart_index == 1


def test_multistart_never_beats_oracle():
    for seed, n, G, a, b in seeded_cases(15):
        inst = random_instance(seed, n, G, a, b)
        exact = solve_bruteforce(inst)
        heur = multistart(inst, restarts=5, seed=seed)
        assert heur.value <= exact.value + TOL


def test_multistart_validates_restarts(worked_instance):
    with pytest.raises(ValueError):
        multistart(worked_instance, restarts=0, seed=1)


def _greedy_golden_instances():
    """Three families of seeded instances: generated attribute data, signed
    uniform distances, and integer distances in 0..4, whose many exact ties
    exercise the first-maximum rule."""
    shapes = [(12, 3, 4, 4, "uniform1d"), (20, 4, 4, 6, "uniformkd:2"), (17, 3, 5, 6, "mixed:1,3"),
              (30, 5, 5, 7, "mixed:2,2"), (40, 6, 6, 8, "uniformkd:3")]
    generated = [
        parse_instance(gen_instance(n, G, a, b, kind, seed=i),
                       "gower" if kind.startswith("mixed") else "manhattan").instance
        for i, (n, G, a, b, kind) in enumerate(shapes, 1)
    ]
    grids = [(8, 2, 3, 5), (15, 3, 4, 6), (25, 4, 5, 7), (33, 5, 6, 7)]
    signed, tied = [], []
    for i, (n, G, a, b) in enumerate(grids, 1):
        rng = np.random.default_rng(i)
        m = n * (n - 1) // 2
        signed.append(Instance(DistanceMatrix(n, rng.uniform(-100.0, 100.0, m)), G, a, b))
        tied.append(Instance(DistanceMatrix(n, rng.integers(0, 5, m).astype(float)), G, a, b))
    return {"generated": generated, "signed": signed, "tied": tied}


GREEDY_GOLDEN = {
    "generated": "a54394ee5847587f",
    "signed": "0824127538d980a2",
    "tied": "ccb6098eef162093",
}


def test_greedy_groupings_are_pinned():
    # greedy_construct's groupings over a seeded grid, for seeds 1-8, pinned
    # by digest: a rewrite of the construction must keep every one of them
    got = {}
    for family, instances in _greedy_golden_instances().items():
        groupings = [greedy_construct(inst, seed).groups for inst in instances for seed in range(1, 9)]
        got[family] = hashlib.sha256(repr(groupings).encode()).hexdigest()[:16]
    assert got == GREEDY_GOLDEN


def _multistart_golden_instances():
    large = parse_instance(gen_instance(60, 6, 10, 10, "uniformkd:2", seed=3)).instance
    return [inst for family in _greedy_golden_instances().values() for inst in family] + [large]


MULTISTART_GOLDEN = "412c7e73e4ebd607"


def test_multistart_results_are_pinned():
    # multistart's groupings, per-restart values (as float.hex) and winning
    # restart over the greedy golden grid plus one N=60 instance, seeds 1-8,
    # pinned by digest: a rewrite of the local search must keep every one
    results = []
    for inst in _multistart_golden_instances():
        for seed in range(1, 9):
            r = multistart(inst, restarts=4, seed=seed)
            results.append((r.grouping.groups, [v.hex() for v in r.restart_values], r.best_restart_index))
    assert hashlib.sha256(repr(results).encode()).hexdigest()[:16] == MULTISTART_GOLDEN
