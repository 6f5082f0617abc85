"""Two exact solvers: an exhaustive oracle and a pruned branch-and-bound.

The oracle (:func:`solve_bruteforce`) enumerates every feasible partition via
restricted-growth strings and is the ground truth the rest of the package is
benchmarked against. :func:`solve_bnb` is one depth-first search from the
root: it assigns elements in index order with symmetry breaking (a new group
always takes the lowest unused label), prunes on capacity and on an
admissible completion bound against a single incumbent seeded by the
heuristic, and returns a proven optimum unless a node/time budget runs out
first.

The completion bound is a single-group bound. Every unassigned element ends
up in exactly one group, where it gains its exact distance sum to the
group's assigned members plus half its distances to the unassigned elements
that join it; their number lies between ``a-1-s`` and ``b-1-s`` for a group
with ``s`` assigned members. The unassigned elements are always a suffix
``t..n-1`` of the index order, so the second part depends only on
``(t, u, s)`` and comes from a table built once per solve
(:func:`_suffix_table`). The first part is kept per element and group and
updated as elements join and leave groups, so a node costs
``O((n - t) * G)`` without a sort. The bound holds for signed distances.

The search does not branch on the last ``R`` elements, where ``R`` is the
largest ``r <= n`` with ``G**r <= 1024`` (at least 1). A node that has
assigned the first ``n - R`` elements scores every feasible labelling of the
rest in one numpy pass (:class:`_Tail`), and so does the root when
``n <= R``. Each such tail counts as one node: ``nodes_explored`` counts the
branching nodes plus the tails, and a node budget is checked before each.

The search is deterministic: for a given instance and node budget it always
visits the same nodes and returns the same value and grouping. It replaces
the incumbent (the seed, to begin with) only by a strictly higher exact
``same_label_sum``, so among tied optima it keeps the first one found; the
fast tail sums only choose which labellings get that exact sum, and a tail
tries them in lexicographic order, so rounding never picks a tie.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from numbers import Integral
from operator import add

import numpy as np

from .core import Grouping, Instance, canonicalize
from .heuristic import multistart

DEFAULT_ENUMERATION_CAP = 12

# label strings the oracle scores in one numpy pass
_ORACLE_CHUNK = 4096
# the branch-and-bound scores at most this many tail labellings in one pass
_TAIL_LABELLINGS = 1024

# the heuristic call that seeds the incumbent
_SEED_RESTARTS = 8
_SEED_SEED = 0


@dataclass(frozen=True)
class SolveOptions:
    """Node and wall-clock budgets for :func:`solve_bnb`."""

    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        budget = self.node_budget
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, Integral) or budget < 1
        ):
            raise ValueError("node_budget must be a positive integer")
        # written so that NaN, which compares false with everything, fails too
        if self.time_budget is not None and not self.time_budget > 0:
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


def _label_strings(n: int, G: int, a: int, b: int):
    """Restricted-growth strings of 0-based labels for n elements, in
    lexicographic order: at most G labels, each used at most b times, and
    (when a >= 1) all G used at least a times.

    Yields one list, rewritten in place between yields. Prunes with the
    running deficit of :func:`solve_bnb`; capacity is implied by G*b >= n.
    """
    labels = [0] * n
    sizes = [0] * G

    def rec(t: int, k: int, deficit: int):
        if t == n:
            yield labels
            return
        for g in range(min(k + 1, G)):
            child = deficit - 1 if sizes[g] < a else deficit
            if sizes[g] >= b or child > n - t - 1:
                continue
            sizes[g] += 1
            labels[t] = g
            yield from rec(t + 1, k + (g == k), child)
            sizes[g] -= 1

    yield from rec(0, 0, G * a)


def iter_set_partitions(n: int):
    """All partitions of {1..n} into any number of groups, canonical order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for labels in _label_strings(n, n, 0, n):
        yield Grouping.from_labels(labels)


def iter_feasible_partitions(instance: Instance):
    """Partitions into exactly G groups with every size in [a, b].

    Enumeration uses restricted-growth strings with capacity pruning; each
    yielded grouping is canonical (groups ordered by smallest member).
    """
    for labels in _label_strings(instance.n, instance.G, instance.a, instance.b):
        yield Grouping.from_labels(labels)


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the {what} cap ({cap}); use solve_bnb for larger instances"
        )


def count_feasible_partitions(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of distinct feasible partitions (exhaustive; capped)."""
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    return sum(1 for _ in _label_strings(instance.n, instance.G, instance.a, instance.b))


def _rounding_slack(instance: Instance) -> float:
    """How far two float sums of the same same-group pairs can lie apart.

    Any order of adding m terms is within (m - 1) * eps/2 * S of the exact
    sum, where S bounds the sum of their absolute values; a labelling has at
    most n*n/2 such pairs, so two orders differ by at most n*n * eps/2 * S.
    The slack doubles that.
    """
    n = instance.n
    return n * n * np.finfo(float).eps * float(np.abs(instance.dist.condensed()).sum())


def solve_bruteforce(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> OptimalResult:
    """Enumerate every feasible partition and return the proven optimum.

    Ties are broken toward the lexicographically smallest canonical grouping.
    Strings are scored in chunks by one masked sum each; only those within
    rounding of the best so far are rescored with ``same_label_sum``, in
    order, so value and tie are those of scoring every string that way.
    """
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    t0 = time.perf_counter()
    dist = instance.dist
    iu, ju = np.triu_indices(instance.n, k=1)
    pair_dist = dist.condensed()
    slack = _rounding_slack(instance)
    best: Grouping | None = None
    best_value = float("-inf")
    count = 0
    strings = map(tuple, _label_strings(instance.n, instance.G, instance.a, instance.b))
    while chunk := list(islice(strings, _ORACLE_CHUNK)):
        labels = np.array(chunk, dtype=np.min_scalar_type(instance.G - 1))
        count += len(labels)
        fast = np.where(labels[:, iu] == labels[:, ju], pair_dist, 0.0).sum(axis=1)
        for row in labels[fast >= max(best_value, fast.max()) - slack]:
            v = dist.same_label_sum(row)
            if v > best_value:
                best, best_value = Grouping.from_labels(row.tolist()), v
            elif v == best_value:
                g = Grouping.from_labels(row.tolist())
                if g.groups < best.groups:
                    best = g
    assert best is not None, "valid instances always admit a feasible partition"
    return OptimalResult(
        value=best_value,
        grouping=best,
        nodes_explored=count,
        proven=True,
        elapsed=time.perf_counter() - t0,
    )


def _suffix_table(d, t: int, a: int, b: int) -> list[list[float]]:
    """``Q[s][i]``: the most that element ``u = t + i`` can gain from the
    unassigned elements ``t..n-1`` that end up in its group, when it joins a
    group holding ``s`` assigned members, for ``s = 0..b-1``.

    Each such pair counts at half weight (it is shared by both elements).
    ``u`` ends up with between ``a-1-s`` and ``b-1-s`` unassigned partners,
    so the value is the sum of its ``a-1-s`` largest half-distances into the
    suffix plus the positive ones among the next ``b-a``.
    """
    n = len(d)
    table: list[list[float]] = [[] for _ in range(b)]
    for u in range(t, n):
        du = d[u]
        vals = sorted((0.5 * du[w] for w in range(t, n) if w != u), reverse=True)
        for s in range(b):
            lo = a - 1 - s
            q = 0.0
            for j, v in enumerate(vals[: b - 1 - s]):
                if j >= lo and v <= 0.0:
                    break
                q += v
            table[s].append(q)
    return table


def _completion_bound(A, Qt, sizes, t: int, G: int, b: int) -> float:
    """Admissible bound on the value the unassigned suffix ``t..n-1`` adds.

    ``A[g][u]`` is the signed sum of distances from ``u`` to the members
    already in open group ``g``; ``Qt`` is ``_suffix_table(d, t, a, b)``.
    The completion value splits over the unassigned elements as
    ``sum_u A[g(u)][u] + 1/2 sum_{w unassigned, g(w) = g(u)} d[u][w]``,
    because every pair of unassigned elements appears in both of their
    terms. Each ``u`` joins exactly one group ``g``: an open group with room
    (``s_g < b`` members), where it has between ``a-1-s_g`` and ``b-1-s_g``
    unassigned partners, or, while fewer than ``G`` groups are open, a new
    group. Its term is therefore at most the best of ``A[g][u] + Qt[s_g][u]``
    over those open groups and ``Qt[0][u]`` for a new group. Returns
    ``-inf`` only when some element has no group left to join, that is when
    no completion exists.
    """
    terms = [map(add, A[g][t:], Qt[s]) for g, s in enumerate(sizes) if s < b]
    if len(sizes) < G:
        terms.append(Qt[0])
    if len(terms) > 1:
        return sum(map(max, *terms))
    if terms:
        return sum(terms[0])
    return -math.inf if Qt[0] else 0.0  # Qt[0] is empty once t == n


def upper_bound(state: SearchState) -> float:
    """Admissible completion bound: never less than the best feasible
    completion value minus the value already accumulated."""
    inst = state.instance
    n, t = inst.n, state.n_assigned
    d = inst.dist.as_square().tolist()
    A = [[0.0] * n for _ in range(inst.G)]
    for v, lab in enumerate(state.labels):
        col, dv = A[lab - 1], d[v]
        for u in range(t, n):
            col[u] += dv[u]
    Qt = _suffix_table(d, t, inst.a, inst.b)
    return _completion_bound(A, Qt, state.group_sizes(), t, inst.G, inst.b)


def partial_value(state: SearchState) -> float:
    """Objective accumulated by the assigned prefix of a search state.

    Each unassigned element gets a label of its own, so the sum covers the
    same pairs, in the same order, as :func:`objective_value`.
    """
    lab = -1 - np.arange(state.instance.n)
    lab[: state.n_assigned] = state.labels
    return state.instance.dist.same_label_sum(lab)


class _Tail:
    """Every labelling of the last ``R`` elements ``n-R..n-1``, in
    lexicographic order, with the sum of the tail pairs each one puts in a
    group together. ``R`` is the largest ``r <= n`` with ``G**r`` at most
    ``_TAIL_LABELLINGS``, and at least 1.

    The tail is the same suffix at every node that reaches it, so the
    labellings and their pair sums are built once per solve. Which of them
    complete a prefix depends only on the prefix's open-group sizes; that
    subset is built the first time a sizes tuple reaches the tail.
    """

    def __init__(self, square: np.ndarray, G: int, a: int, b: int):
        n = len(square)
        R = 1
        while R < n and G ** (R + 1) <= _TAIL_LABELLINGS:
            R += 1
        self.G, self.a, self.b, self.R = G, a, b, R
        lab = np.arange(G**R)[:, None] // G ** np.arange(R - 1, -1, -1) % G
        self.labels = lab.astype(np.min_scalar_type(G - 1))
        iu, ju = np.triu_indices(R, k=1)
        within = square[n - R :, n - R :][iu, ju]
        self.pair_sums = np.where(lab[:, iu] == lab[:, ju], within, 0.0).sum(axis=1)
        # per labelling and tail position: the largest label before it (-1 at
        # the first), how often its label occurs in the tail, and whether it
        # is that label's first occurrence
        self._before = np.maximum.accumulate(np.hstack([np.full((len(lab), 1), -1), lab[:, :-1]]), axis=1)
        same = lab[:, :, None] == lab[:, None, :]
        self._count = same.sum(axis=2)
        self._first = ~(same & np.tri(R, k=-1, dtype=bool)).any(axis=2)
        self._fits: dict[tuple[int, ...], tuple] = {}

    def fits(self, sizes: tuple[int, ...]):
        """For the prefix whose open groups have ``sizes``: the indices of the
        labellings that complete it (new groups opened in label order, so
        each completion appears once, and all G groups of size a..b), their
        offsets into a flattened (G, R) array of the tail's gains, and their
        pair sums."""
        if sizes not in self._fits:
            lab, k = self.labels, len(sizes)
            size = np.zeros(self.G, dtype=np.intp)
            size[:k] = sizes
            final = size[lab] + self._count
            ok = (
                (lab <= np.maximum(self._before, k - 1) + 1)
                & (final >= self.a)
                & (final <= self.b)
            ).all(axis=1)
            # a group left out of the tail keeps its size, so it must already reach a
            short = size < self.a
            ok &= (self._first & short[lab]).sum(axis=1) == short.sum()
            idx = np.flatnonzero(ok)
            offsets = lab[idx].astype(np.intp) * self.R + np.arange(self.R)
            self._fits[sizes] = (idx, offsets, self.pair_sums[idx])
        return self._fits[sizes]


def solve_bnb(instance: Instance, opts: SolveOptions | None = None) -> OptimalResult:
    """Branch-and-bound exact search; proven optimum unless a budget runs out."""
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    dist = instance.dist

    seed = multistart(instance, restarts=_SEED_RESTARTS, seed=_SEED_SEED)
    best_value = seed.value
    best_grouping = canonicalize(seed.grouping)

    square = dist.as_square()
    d = square.tolist()
    tail = _Tail(square, G, a, b)
    R = tail.R
    slack = _rounding_slack(instance)
    # per branching depth t < n - R: the distances from element t to the
    # elements after it, and the suffix table of its children's bound
    levels = [(d[t][t + 1 :], _suffix_table(d, t + 1, a, b)) for t in range(n - R)]
    # A[g][u]: distance sum from u to the members of group g, exact for every
    # unassigned u; unopened groups stay all zero. Backtracking restores a
    # saved slice instead of subtracting, so the sums never drift and A[g][t]
    # is exactly the value element t adds by joining group g.
    A = [[0.0] * n for _ in range(G)]
    node_budget = opts.node_budget
    deadline = None if opts.time_budget is None else time.monotonic() + opts.time_budget
    nodes = 0
    exhausted = False
    labels0: list[int] = []
    sizes: list[int] = []

    def finish(cur: float):
        # score every completion of the prefix at once; the fast sums decide
        # only which labellings get an exact same_label_sum, in lexicographic
        # order, so the first exact maximum wins and rounding picks nothing
        nonlocal best_value, best_grouping
        t = n - R
        idx, offsets, pair_sums = tail.fits(tuple(sizes))
        gains = np.array([col[t:] for col in A]).ravel()
        score = gains[offsets].sum(axis=1) + pair_sums
        top, need = score.max(), best_value - cur
        if top < need - slack:
            return
        full = np.array(labels0 + [0] * R)
        for m in idx[score >= max(need, top) - slack]:
            full[t:] = tail.labels[m]
            value = dist.same_label_sum(full)
            if value > best_value:
                best_value, best_grouping = value, Grouping.from_labels(full.tolist())

    def dfs(cur: float, deficit: int):
        # deficit: elements still needed to lift every group to size a; the
        # matching capacity check is implied by G*b >= n and sizes <= b
        nonlocal nodes, exhausted
        if (node_budget is not None and nodes >= node_budget) or (
            deadline is not None and time.monotonic() >= deadline
        ):
            exhausted = True
            return
        nodes += 1
        t = len(labels0)
        if t == n - R:
            finish(cur)
            return

        remaining = n - t - 1
        k = len(sizes)
        candidates = [(A[g][t], g) for g in range(k) if sizes[g] < b]
        if k < G:
            candidates.append((0.0, k))
        candidates.sort(key=lambda c: (-c[0], c[1]))

        tail_dist, Qt = levels[t]
        for inc, g in candidates:
            opens = g == k
            child_deficit = deficit - 1 if opens or sizes[g] < a else deficit
            if child_deficit > remaining:
                continue
            if opens:
                sizes.append(1)
            else:
                sizes[g] += 1
            labels0.append(g)
            col = A[g]
            saved = col[t + 1 :]
            col[t + 1 :] = map(add, saved, tail_dist)
            child = cur + inc
            if child + _completion_bound(A, Qt, sizes, t + 1, G, b) > best_value:
                dfs(child, child_deficit)
            col[t + 1 :] = saved
            labels0.pop()
            if opens:
                sizes.pop()
            else:
                sizes[g] -= 1
            if exhausted:
                return

    dfs(0.0, G * a)
    return OptimalResult(
        value=best_value,
        grouping=best_grouping,
        nodes_explored=nodes,
        proven=not exhausted,
        elapsed=time.perf_counter() - t0,
    )
