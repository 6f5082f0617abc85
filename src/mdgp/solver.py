"""Two exact solvers: an exhaustive oracle and a pruned branch-and-bound.

The oracle (:func:`solve_bruteforce`) enumerates every feasible partition via
restricted-growth strings and is the ground truth the rest of the package is
benchmarked against. :func:`solve_bnb` is one depth-first search from the
root: it assigns elements in index order with symmetry breaking (a new group
always takes the lowest unused label), prunes on capacity and on an
admissible completion bound against a single incumbent seeded by the
heuristic, and returns a proven optimum unless a node/time budget runs out
first.

The search is deterministic: for a given instance and node budget it always
visits the same nodes and returns the same value and grouping. Among tied
optima it keeps the first one found (the seed, if the seed is optimal).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Grouping, Instance, canonicalize, objective_value
from .heuristic import multistart

DEFAULT_ENUMERATION_CAP = 12

# the heuristic call that seeds the incumbent
_SEED_RESTARTS = 8
_SEED_SEED = 0


@dataclass(frozen=True)
class SolveOptions:
    """Node and wall-clock budgets for :func:`solve_bnb`."""

    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class OptimalResult:
    value: float
    grouping: Grouping
    nodes_explored: int
    proven: bool
    elapsed: float


@dataclass(frozen=True)
class SearchState:
    """A symmetry-broken partial assignment: 1-based group labels for the
    first ``len(labels)`` elements; a label may exceed the running maximum
    by at most one."""

    instance: Instance
    labels: tuple[int, ...]

    def __post_init__(self):
        inst = self.instance
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > inst.n:
            raise ValueError("more labels than elements")
        opened = 0
        sizes: dict[int, int] = {}
        for lab in labels:
            if not (1 <= lab <= inst.G):
                raise ValueError(f"group label {lab} outside 1..{inst.G}")
            if lab > opened + 1:
                raise ValueError("labels must open groups in order (symmetry breaking)")
            opened = max(opened, lab)
            sizes[lab] = sizes.get(lab, 0) + 1
            if sizes[lab] > inst.b:
                raise ValueError(f"group {lab} exceeds upper size bound {inst.b}")

    @property
    def n_assigned(self) -> int:
        return len(self.labels)

    def group_sizes(self) -> list[int]:
        opened = max(self.labels, default=0)
        sizes = [0] * opened
        for lab in self.labels:
            sizes[lab - 1] += 1
        return sizes


def _completable(sizes, opened, G, a, b, remaining) -> bool:
    # remaining elements must lift every group (open or not) to size >= a
    # without overflowing any group past b
    deficit = sum(a - s for s in sizes if s < a) + (G - opened) * a
    capacity = sum(b - s for s in sizes) + (G - opened) * b
    return deficit <= remaining <= capacity


def iter_set_partitions(n: int):
    """All partitions of {1..n} into any number of groups, canonical order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [0] * n

    def rec(t, k):
        if t == n:
            groups: list[list[int]] = [[] for _ in range(k)]
            for e in range(n):
                groups[labels[e]].append(e + 1)
            yield Grouping(groups)
            return
        for g in range(k):
            labels[t] = g
            yield from rec(t + 1, k)
        labels[t] = k
        yield from rec(t + 1, k + 1)

    yield from rec(0, 0)


def iter_feasible_partitions(instance: Instance):
    """Partitions into exactly G groups with every size in [a, b].

    Enumeration uses restricted-growth strings with capacity pruning; each
    yielded grouping is canonical (groups ordered by smallest member).
    """
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    labels = [0] * n
    sizes: list[int] = []

    def rec(t):
        if t == n:
            groups: list[list[int]] = [[] for _ in range(len(sizes))]
            for e in range(n):
                groups[labels[e]].append(e + 1)
            yield Grouping(groups)
            return
        remaining = n - t - 1
        k = len(sizes)
        for g in range(k):
            if sizes[g] >= b:
                continue
            sizes[g] += 1
            labels[t] = g
            if _completable(sizes, k, G, a, b, remaining):
                yield from rec(t + 1)
            sizes[g] -= 1
        if k < G:
            sizes.append(1)
            labels[t] = k
            if _completable(sizes, k + 1, G, a, b, remaining):
                yield from rec(t + 1)
            sizes.pop()

    yield from rec(0)


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the {what} cap ({cap}); use solve_bnb for larger instances"
        )


def count_feasible_partitions(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of distinct feasible partitions (exhaustive; capped)."""
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    return sum(1 for _ in iter_feasible_partitions(instance))


def solve_bruteforce(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> OptimalResult:
    """Enumerate every feasible partition and return the proven optimum.

    Ties are broken toward the lexicographically smallest canonical grouping.
    """
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    t0 = time.perf_counter()
    best: Grouping | None = None
    best_value = float("-inf")
    count = 0
    for g in iter_feasible_partitions(instance):
        count += 1
        v = objective_value(g, instance.dist)
        if v > best_value or (v == best_value and best is not None and g.groups < best.groups):
            best, best_value = g, v
    assert best is not None, "valid instances always admit a feasible partition"
    return OptimalResult(
        value=best_value,
        grouping=best,
        nodes_explored=count,
        proven=True,
        elapsed=time.perf_counter() - t0,
    )


def _completion_bound(d, labels0, sizes, b, n) -> float:
    """Optimistic value of everything not yet decided.

    Every unassigned element can join at most b-1 same-group pairs, so its
    contribution is bounded by its b-1 largest candidate distances: full
    weight toward elements already sitting in a group with spare capacity,
    half weight toward other unassigned elements (each such pair shows up in
    two lists). An element may end up with fewer than b-1 partners, so ``d``
    must be the distances clamped at zero for the bound to stay admissible.
    """
    t = len(labels0)
    if t >= n or b <= 1:
        return 0.0
    partners = [e for e in range(t) if sizes[labels0[e]] < b]
    bound = 0.0
    top = b - 1
    for u in range(t, n):
        du = d[u]
        vals = [du[v] for v in partners]
        vals.extend(du[w] * 0.5 for w in range(t, n) if w != u)
        vals.sort(reverse=True)
        bound += sum(vals[:top])
    return bound


def _clamped(instance: Instance) -> list[list[float]]:
    return np.maximum(instance.dist.as_square(), 0.0).tolist()


def upper_bound(state: SearchState) -> float:
    """Admissible completion bound: never less than the best feasible
    completion value minus the value already accumulated."""
    inst = state.instance
    labels0 = [lab - 1 for lab in state.labels]
    return _completion_bound(_clamped(inst), labels0, state.group_sizes(), inst.b, inst.n)


def partial_value(state: SearchState) -> float:
    """Objective accumulated by the assigned prefix of a search state.

    Summation uses the same fixed pair order (and numpy reduction) as
    :func:`objective_value`.
    """
    n = state.instance.n
    lab = np.full(n, -1, dtype=np.int64)
    lab[: state.n_assigned] = state.labels
    iu, ju = np.triu_indices(n, k=1)
    same = (lab[iu] >= 0) & (lab[iu] == lab[ju])
    return float(state.instance.dist.condensed()[same].sum())


def solve_bnb(instance: Instance, opts: SolveOptions | None = None) -> OptimalResult:
    """Branch-and-bound exact search; proven optimum unless a budget runs out."""
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    n, G, a, b = instance.n, instance.G, instance.a, instance.b

    seed = multistart(instance, restarts=_SEED_RESTARTS, seed=_SEED_SEED)
    best_value = seed.value
    best_grouping = canonicalize(seed.grouping)

    d = instance.dist.as_square().tolist()
    d_bound = _clamped(instance)
    node_budget = opts.node_budget
    deadline = None if opts.time_budget is None else time.monotonic() + opts.time_budget
    nodes = 0
    exhausted = False
    labels0: list[int] = []
    sizes: list[int] = []

    def dfs(cur: float):
        nonlocal best_value, best_grouping, nodes, exhausted
        if (node_budget is not None and nodes >= node_budget) or (
            deadline is not None and time.monotonic() >= deadline
        ):
            exhausted = True
            return
        nodes += 1
        t = len(labels0)
        if t == n:
            groups: list[list[int]] = [[] for _ in sizes]
            for e, g in enumerate(labels0):
                groups[g].append(e + 1)
            grouping = Grouping(groups)
            value = objective_value(grouping, instance.dist)
            if value > best_value:
                best_value, best_grouping = value, grouping
            return

        remaining = n - t - 1
        k = len(sizes)
        du = d[t]
        candidates: list[tuple[float, int]] = []
        for g in range(k):
            if sizes[g] >= b:
                continue
            inc = sum(du[e] for e in range(t) if labels0[e] == g)
            candidates.append((inc, g))
        if k < G:
            candidates.append((0.0, k))
        candidates.sort(key=lambda c: (-c[0], c[1]))

        for inc, g in candidates:
            opens = g == k
            if opens:
                sizes.append(1)
            else:
                sizes[g] += 1
            labels0.append(g)
            if _completable(sizes, k + 1 if opens else k, G, a, b, remaining):
                child = cur + inc
                if child + _completion_bound(d_bound, labels0, sizes, b, n) > best_value:
                    dfs(child)
            labels0.pop()
            if opens:
                sizes.pop()
            else:
                sizes[g] -= 1
            if exhausted:
                return

    dfs(0.0)
    return OptimalResult(
        value=best_value,
        grouping=best_grouping,
        nodes_explored=nodes,
        proven=not exhausted,
        elapsed=time.perf_counter() - t0,
    )
