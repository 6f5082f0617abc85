"""Baseline heuristic: seeded greedy construction plus steepest-ascent local search.

The point of this module is not to compete with the literature's
metaheuristics but to give the exact solvers something to benchmark, so the
emphasis is on determinism: identical (seed, restarts) always produce the
identical grouping, on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Grouping, Instance, objective_value, validate_grouping
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class HeuristicResult:
    grouping: Grouping
    value: float
    restarts_used: int
    best_restart_index: int


def greedy_construct(instance: Instance, seed: int) -> Grouping:
    """Open G groups with random distinct seed elements, then place the rest.

    Elements are consumed in a shuffled order; each goes to the group with
    the largest incremental distance sum among groups that still leave the
    remaining elements able to fill every group up to the lower bound.
    The result is always feasible for a valid instance.
    """
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    d = instance.dist.as_square()
    rng = SplitMix64(seed)

    elements = list(range(1, n + 1))
    seeds = rng.sample(elements, G)
    groups: list[list[int]] = [[s] for s in seeds]
    rest = [e for e in elements if e not in set(seeds)]
    rng.shuffle(rest)

    for idx, e in enumerate(rest):
        left_after = len(rest) - idx - 1
        best_g, best_inc = -1, float("-inf")
        for g, members in enumerate(groups):
            if len(members) >= b:
                continue
            # capacity guard: after placing e, every group must still be able
            # to reach size a with the elements left over
            deficit = sum(max(0, a - len(m)) for m in groups)
            if len(members) < a:
                deficit -= 1
            if deficit > left_after:
                continue
            inc = sum(d[e - 1][m - 1] for m in members)
            if inc > best_inc:
                best_g, best_inc = g, inc
        assert best_g >= 0, "valid instances always leave a feasible group"
        groups[best_g].append(e)

    return Grouping(groups)


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


def local_search(instance: Instance, start: Grouping) -> Grouping:
    """Steepest ascent over swap and move neighborhoods until no move improves.

    Swaps exchange two elements between groups; moves relocate one element
    when both size bounds stay satisfied. Ties between equally improving
    moves go to the lexicographically smallest move descriptor
    (swaps as (0, u, v), moves as (1, u, target group)), keeping the
    trajectory deterministic.
    """
    report = validate_grouping(start, instance)
    if not report.feasible:
        raise ValueError(f"start grouping is infeasible: {report.violations}")

    d = instance.dist.as_square()
    a, b = instance.a, instance.b
    groups = [list(g) for g in start.groups]
    value = objective_value(start, instance.dist)

    while True:
        best_delta = 0.0
        best_desc = None
        best_apply = None

        def consider(delta, desc, apply_spec):
            nonlocal best_delta, best_desc, best_apply
            if delta <= 0.0:
                return
            if (
                best_desc is None
                or delta > best_delta
                or (delta == best_delta and desc < best_desc)
            ):
                best_delta, best_desc, best_apply = delta, desc, apply_spec

        for ga in range(len(groups)):
            for gb in range(ga + 1, len(groups)):
                for ia in range(len(groups[ga])):
                    for ib in range(len(groups[gb])):
                        u, v = groups[ga][ia], groups[gb][ib]
                        consider(
                            _swap_delta(d, groups, ga, ia, gb, ib),
                            (0, min(u, v), max(u, v)),
                            ("swap", ga, ia, gb, ib),
                        )

        for ga in range(len(groups)):
            if len(groups[ga]) - 1 < a:
                continue
            for gb in range(len(groups)):
                if gb == ga or len(groups[gb]) + 1 > b:
                    continue
                for ia in range(len(groups[ga])):
                    consider(
                        _move_delta(d, groups, ga, ia, gb),
                        (1, groups[ga][ia], gb + 1),
                        ("move", ga, ia, gb, 0),
                    )

        if best_apply is None:
            break

        kind, ga, ia, gb, ib = best_apply
        if kind == "swap":
            groups[ga][ia], groups[gb][ib] = groups[gb][ib], groups[ga][ia]
        else:
            groups[gb].append(groups[ga].pop(ia))
        candidate = Grouping(groups)
        new_value = objective_value(candidate, instance.dist)
        if new_value <= value:
            # float-drift guard: never return anything below the start value
            if kind == "swap":
                groups[ga][ia], groups[gb][ib] = groups[gb][ib], groups[ga][ia]
            else:
                groups[ga].insert(ia, groups[gb].pop())
            break
        value = new_value
        groups = [sorted(g) for g in groups]

    return Grouping(groups)


def multistart(instance: Instance, restarts: int, seed: int) -> HeuristicResult:
    """Best of `restarts` independent construct+search pipelines.

    Restart r uses the stream derived from (seed, r); the best value wins and
    value ties go to the earliest restart, so the reduction is independent of
    evaluation order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best: Grouping | None = None
    best_value = float("-inf")
    best_index = -1
    for r in range(1, restarts + 1):
        g = local_search(instance, greedy_construct(instance, derive_seed(seed, r)))
        v = objective_value(g, instance.dist)
        if v > best_value:
            best, best_value, best_index = g, v, r
    assert best is not None
    return HeuristicResult(
        grouping=best, value=best_value, restarts_used=restarts, best_restart_index=best_index
    )
