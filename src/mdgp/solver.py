"""Exact solvers: an exhaustive oracle, a pruned branch-and-bound, and the
closed forms of attribute instances.

The oracle (:func:`solve_bruteforce`) enumerates every feasible partition via
restricted-growth strings and is the ground truth the rest of the package is
benchmarked against. :func:`solve_bnb` assigns elements in index order with
symmetry breaking (a new group always takes the lowest unused label), prunes
on capacity and on an admissible completion bound against a single incumbent
seeded by the heuristic, and returns a proven optimum unless a node/time
budget runs out first. :func:`solve_columns` returns the optimum that
:func:`mdgp.bounds.closed_form` builds from an instance's columns. One
branching rule (:func:`_joinable`) decides every branch, and every prefix a
:class:`SearchState` accepts. The oracle, the
partition iterators, the count and the search's tail take their strings
from one enumerator of its leaves (:func:`_leaves`).

A node is a symmetry-broken assignment of the first ``t`` elements. The
search is depth-first over batches of nodes: a stack holds arrays of nodes of
one depth, and one numpy pass makes and bounds every child (node, group) of a
batch that :func:`_joinable` allows: an open group with room or the first
unopened one, so long as the remaining elements can still lift every group
to size ``a``. Children follow their parents' order, and a node's children
go by group, so each depth is visited in lexicographic order of the labels,
as :func:`_leaves` makes them and a node-by-node depth-first search visits
them. The loop alone compares nodes with the incumbent: a batch taken off
the stack first drops, uncounted, every node whose value plus bound no
longer exceeds it. A batch larger than one pass is then split and its rest
waits on the stack. A pass is sized in floats, with an equal share of
``_BATCH_FLOATS`` for each depth that may hold pending nodes, so the
pending nodes stay within it however wide the frontier grows; the
:func:`_joinable` mask that sizes a branching pass also makes its children.

The completion bound is a single-group bound. Every unassigned element ends
up in exactly one group, where it gains its exact distance sum to the
group's assigned members plus half its distances to the unassigned elements
that join it; their number lies between ``a-1-s`` and ``b-1-s`` for a group
with ``s`` assigned members. The unassigned elements are always a suffix
``t..n-1`` of the index order, so the second part depends only on
``(t, u, s)`` and comes from a table built once per solve out of the
distance square, with one sort of each row of the suffix block and one
running sum over it (:func:`_suffix_table`). The first part is kept per
node, element and group, so a node costs ``O((n - t) * G)`` per child,
without a sort. The bound holds for signed distances, and
:func:`_completion_bounds` is its only implementation: :func:`upper_bound`
replays a state through it as a batch of one.

The search does not branch on the last ``R`` elements, where ``R`` is the
largest ``r <= n`` with ``G**r <= 1024`` (at least 1). A batch of nodes that
have assigned the first ``n - R`` elements scores every feasible labelling
of the rest, and so does the root when ``n <= R``. Its nodes are sorted by
sizes tuple, and each run of one tuple is scored by one matrix product, the
nodes' gains, one column per (group, tail position), times the run's 0/1
one-hot of its labellings, plus one add of the sum of the tail pairs each
labelling puts together. Every solve computes those pair sums once for all
``G**R`` labellings (all zero when ``R = 1``), and the scores are kept for
the exact rescoring below. A prefix's completions are the :func:`_leaves`
of ``R`` more levels of the branching rule, shared with their one-hot by
every solve of the same ``(G, a, b, R)`` in a process and built by the
first (:func:`_completions`, an LRU of 256 entries that stays under 18 MB
for ``G <= 256``). Each such tail counts as one node:
``nodes_explored`` counts the branching nodes plus the tails. A node budget
truncates the batch that would exceed it, so ``nodes_explored`` never
exceeds it. The time budget counts from the call, seed included: the seed
is one heuristic restart, which always runs unless a closed form (below)
takes its place, and the deadline is checked before each batch.

The root certificate. An instance with columns (``Instance.columns``:
manhattan or gower attributes) has a bound from them alone,
:func:`mdgp.bounds.column_bound`, and the search stops, proven, as soon as
its incumbent reaches that bound less ``_rounding_slack``: at the root,
with no node explored, and after any tail batch. Where the columns give an
optimum in closed form (one numeric column, or two with a = b), that
grouping is the first incumbent and no heuristic restart runs; it always
meets the bound, up to rounding. Without columns, or with more size vectors
than the bound enumerates, the search runs as it would otherwise.

Which nodes the search visits depends on their order only through the
incumbent. While the incumbent stays fixed, and so whenever the seed is
already optimal, the search visits exactly the nodes a node-by-node
depth-first search visits. When it rises, the nodes of a pass have been
compared with the older value, so the count can differ slightly.

The search is deterministic: for a given instance and node budget it always
visits the same nodes and returns the same value and grouping. It replaces
the incumbent (the closed form's grouping or the seed, to begin with) only
by a strictly higher exact ``same_label_sum``, so among optima tied exactly
it returns that first incumbent if it is optimal, else the first optimum in
:func:`iter_feasible_partitions` order. A search that the certificate stops
returns the incumbent it holds then, the best of the labellings scored up
to that tail batch; the rest could beat it only by rounding. The fast tail
sums only choose which labellings get that exact sum, tried node by node,
then completion by completion, in lexicographic order, so rounding never
picks a tie. Nor does the BLAS that computes the
product, whatever order or thread count it sums in: the distances are
finite, so every gain is and a zero of the one-hot adds an exact zero, and
each score is a one-hot product of ``R`` gains plus one add of a pair sum,
whose error, about ``n * eps * sum|d|``, lies far inside the
``_rounding_slack`` kept around every threshold a score meets. The value,
the grouping and the node count are the same at every BLAS thread count.

The float contract of the solvers: a proven ``value`` is within
``_rounding_slack(instance)`` (``N**2 * eps * sum|d|``) of every feasible
grouping's ``same_label_sum``, and ``objective_value(grouping) == value``
exactly. The prune compares the float bound with no slack, so among
groupings tied in exact arithmetic the search may return one that is an ulp
below another. A certified value is within ``_rounding_slack`` of the column
bound, which is the columns' exact maximum up to its own rounding, a sum of
about N products, far inside that slack.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .bounds import closed_form, column_bound
from .core import Grouping, Instance, _pair_index, canonicalize, objective_value
from .heuristic import multistart

DEFAULT_ENUMERATION_CAP = 12

# the branch-and-bound scores at most this many tail labellings in one pass
_TAIL_LABELLINGS = 1024
# tail completions kept across solves; an LRU smaller than the keys a
# workload cycles through would miss on every lookup. One solve at N <= 20
# uses 25 to about 110 keys, and the 14 bnb-prove instances of one bench
# seed use 138
_COMPLETIONS_CACHE = 256
# the floats one branch-and-bound pass and the nodes it leaves pending may hold
_BATCH_FLOATS = 1 << 20

# the seed of the one heuristic restart that seeds the incumbent
_SEED_SEED = 0


@dataclass(frozen=True)
class SolveOptions:
    """Node and wall-clock budgets for :func:`solve_bnb`."""

    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        # bools are integers to Python, and "not > 0" also rejects NaN
        checks = ("node_budget", Integral, "integer"), ("time_budget", Real, "number")
        for name, kind, what in checks:
            budget = getattr(self, name)
            if budget is not None and (
                isinstance(budget, bool) or not isinstance(budget, kind) or not budget > 0
            ):
                raise ValueError(f"{name} must be a positive {what}")


@dataclass(frozen=True)
class OptimalResult:
    value: float
    grouping: Grouping
    nodes_explored: int
    proven: bool
    elapsed: float


@dataclass(frozen=True)
class SearchState:
    """A search node: 1-based group labels for the first ``len(labels)``
    elements, each allowed by :func:`_joinable`: it joins an open group with
    room or the first unopened one, and the rest can still lift every group
    to ``a``. So every accepted prefix has a feasible completion."""

    instance: Instance
    labels: tuple[int, ...]

    def __post_init__(self):
        inst = self.instance
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > inst.n:
            raise ValueError("more labels than elements")
        sizes = np.zeros((1, inst.G), dtype=np.intp)
        for t, lab in enumerate(labels):
            if not (1 <= lab <= inst.G):
                raise ValueError(f"group label {lab} outside 1..{inst.G}")
            if not _joinable(sizes, inst.n - t, inst.a, inst.b)[0, lab - 1]:
                raise ValueError(f"element {t + 1} cannot join group {lab}: the branching "
                                 f"rule (symmetry breaking, sizes {inst.a}..{inst.b}) refuses it")
            sizes[0, lab - 1] += 1

    @property
    def n_assigned(self) -> int:
        return len(self.labels)


def _joinable(sizes: np.ndarray, left: int, a: int, b: int) -> np.ndarray:
    """The branching rule, for rows of group sizes with ``left`` elements
    unassigned: the next element may join an open group with room or the
    first unopened one, if the rest can still lift every group to ``a``."""
    deficit = np.maximum(a - sizes, 0).sum(axis=1, keepdims=True) - (sizes < a)
    opened = np.count_nonzero(sizes, axis=1)[:, None]
    return (np.arange(sizes.shape[1]) <= opened) & (sizes < b) & (deficit < left)


def _leaves(k: int, a: int, b: int, sizes: tuple[int, ...]):
    """The leaves of ``k`` levels of :func:`_joinable` below a prefix whose
    ``G = len(sizes)`` groups have ``sizes``: the 0-based labels of the next
    ``k`` elements, in lexicographic order, yielded as arrays of rows.

    The walk is depth-first over batches, as in :func:`solve_bnb`: a pass
    expands at most ``_BATCH_FLOATS // (k*G*(k+G))`` nodes and the stack
    holds at most one part-done batch per level, so the pending nodes stay
    within ``_BATCH_FLOATS`` values."""
    G = len(sizes)
    chunk = max(1, _BATCH_FLOATS // (k * G * (k + G)))
    stack = [(np.array([sizes], dtype=np.intp), np.zeros((1, 0), dtype=np.intp))]
    while stack:
        size, labels = stack.pop()
        if len(labels) > chunk:
            stack.append((size[chunk:], labels[chunk:]))
            size, labels = size[:chunk], labels[:chunk]
        t = labels.shape[1]
        if t == k:
            yield labels
            continue
        f, g = np.nonzero(_joinable(size, k - t, a, b))
        size = size[f]
        size[np.arange(len(f)), g] += 1
        stack.append((size, np.hstack([labels[f], g[:, None]])))


def iter_set_partitions(n: int):
    """All partitions of {1..n} into any number of groups, canonical order,
    taken from :func:`_leaves` in bounded batches."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for rows in _leaves(n, 0, n, (0,) * n):
        for labels in rows.tolist():
            yield Grouping.from_labels(labels)


def iter_feasible_partitions(instance: Instance):
    """Partitions into exactly G groups with every size in [a, b].

    The strings come from :func:`_leaves` in bounded batches; each yielded
    grouping is canonical (groups ordered by smallest member).
    """
    for rows in _leaves(instance.n, instance.a, instance.b, (0,) * instance.G):
        for labels in rows.tolist():
            yield Grouping.from_labels(labels)


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the {what} cap ({cap}); use solve_bnb for larger instances"
        )


def count_feasible_partitions(instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of distinct feasible partitions (exhaustive; capped)."""
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    return sum(len(rows) for rows in _leaves(instance.n, instance.a, instance.b, (0,) * instance.G))


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
    Each batch from :func:`_leaves` is scored by one masked sum; only strings
    within rounding of the best so far are rescored with ``same_label_sum``,
    in order, so value and tie are those of scoring every string that way.
    """
    _check_cap(instance.n, cap, "exhaustive-enumeration")
    t0 = time.perf_counter()
    dist = instance.dist
    iu, ju = _pair_index(instance.n)
    pair_dist = dist.condensed()
    slack = _rounding_slack(instance)
    best: Grouping | None = None
    best_value = float("-inf")
    count = 0
    for labels in _leaves(instance.n, instance.a, instance.b, (0,) * instance.G):
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


def _suffix_table(square: np.ndarray, t: int, a: int, b: int) -> np.ndarray:
    """``Q[s, i]``: the most that element ``u = t + i`` can gain from the
    unassigned elements ``t..n-1`` that end up in its group, when it joins a
    group holding ``s`` assigned members, for ``s = 0..b-1``; row ``b`` is
    ``-inf``, since a full group admits nobody.

    Each such pair counts at half weight (it is shared by both elements).
    ``u`` ends up with between ``a-1-s`` and ``b-1-s`` unassigned partners,
    so the value is the sum of its ``a-1-s`` largest half-distances into the
    suffix plus the positive ones among the next ``b-a``. Each row of the
    suffix block of ``square`` is sorted once, largest first, and the value
    is a running sum from ``0.0`` over the first terms, added in that order.
    """
    m = len(square) - t
    half = 0.5 * square[t:, t:]
    # u is not its own partner: its -inf sorts last and is dropped
    np.fill_diagonal(half, -math.inf)
    vals = np.sort(half, axis=1)[:, :0:-1]
    sums = np.hstack([np.zeros((m, 1)), vals]).cumsum(axis=1)
    # the a-1-s largest terms and the positive ones after them, at most
    # b-1-s in all and at most the m-1 there are
    s = np.arange(b)[:, None]
    positive = (vals > 0).sum(axis=1)
    taken = np.minimum(np.minimum(b - 1 - s, m - 1), np.maximum(a - 1 - s, positive))
    table = np.full((b + 1, m), -math.inf)
    table[:b] = sums[np.arange(m), taken]
    return table


def _completion_bounds(A: np.ndarray, sizes: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Admissible bounds on the value the unassigned suffix ``t..n-1`` adds,
    one for each node of a batch.

    ``A[f, g, i]`` is the signed sum of distances from ``u = t + i`` to the
    members of group ``g`` at node ``f``, ``sizes[f, g]`` is that group's
    size (both zero for a group not yet opened) and ``Q`` is
    ``_suffix_table(square, t, a, b)``. The completion value splits over the
    unassigned elements as ``sum_u A[g(u), u] + 1/2 sum_{w unassigned,
    g(w) = g(u)} d[u][w]``, because every pair of unassigned elements
    appears in both of their terms. Each ``u`` joins exactly one group
    ``g`` with room, where it has between ``a-1-s_g`` and ``b-1-s_g``
    unassigned partners, so its term is at most the best of ``A[f, g, i] +
    Q[s_g, i]`` over the groups: an unopened group gives ``Q[0, i]`` and a
    full one ``-inf``. The terms are added in index order, as a plain loop
    adds them, so the bits do not depend on numpy's summation strategy.
    ``-inf`` means that no completion exists.
    """
    terms = Q[sizes]
    terms += A
    return terms.max(axis=-2).cumsum(axis=-1)[..., -1]


def upper_bound(state: SearchState) -> float:
    """Admissible completion bound: never less than the best feasible
    completion value minus the value already accumulated.

    The state is scored as a batch of one by the search's own bound.
    """
    inst = state.instance
    n, t = inst.n, state.n_assigned
    if t == n:
        return 0.0
    square = inst.dist.as_square()
    A = np.zeros((1, inst.G, n - t))
    sizes = np.zeros((1, inst.G), dtype=np.intp)
    for v, lab in enumerate(state.labels):
        A[0, lab - 1] += square[v, t:]
        sizes[0, lab - 1] += 1
    Q = _suffix_table(square, t, inst.a, inst.b)
    return float(_completion_bounds(A, sizes, Q)[0])


def partial_value(state: SearchState) -> float:
    """Objective accumulated by the assigned prefix of a search state.

    Each unassigned element gets a label of its own, so the sum covers the
    same pairs, in the same order, as :func:`objective_value`.
    """
    lab = -1 - np.arange(state.instance.n)
    lab[: state.n_assigned] = state.labels
    return state.instance.dist.same_label_sum(lab)


@functools.lru_cache(maxsize=_COMPLETIONS_CACHE)
def _completions(R: int, a: int, b: int, sizes: tuple[int, ...]):
    """The completions of a prefix whose ``G = len(sizes)`` groups have
    ``sizes``, the :func:`_leaves` of ``R`` levels below it, read-only: their
    ascending (lexicographic) indices among the ``G**R`` labellings of the
    last ``R`` elements, and their ``uint8`` one-hot, whose row ``g * R + j``
    is 1 where tail position ``j`` takes group ``g``. For ``K`` completions
    an entry takes at most ``K * (G*R + 2)`` bytes, with ``K <= G**R <=
    1024`` unless ``R = 1``, where ``K <= G``. So for ``2 <= G <= 256`` an
    entry takes at most 68 KB (``G = 32``, ``R = 2``), and for ``G <= 10``
    at most 32 KB: a cache under 18 MB, or 9 MB."""
    G = len(sizes)
    labels = np.concatenate(list(_leaves(R, a, b, sizes)))
    idx = (labels @ G ** np.arange(R - 1, -1, -1)).astype(np.min_scalar_type(G**R - 1))
    onehot = (labels.T == np.arange(G)[:, None, None]).reshape(G * R, -1).astype(np.uint8)
    idx.flags.writeable = onehot.flags.writeable = False
    return idx, onehot


class _Nodes(NamedTuple):
    """Search nodes at one depth ``t``, one row each: the value of the
    assigned prefix, that value plus the node's completion bound, the sizes
    of the G groups and the gains ``A[f, g, u - t]`` of every unassigned
    ``u`` (zero for the groups not yet opened), and the labels of elements
    ``0..t-1``."""

    cur: np.ndarray
    ub: np.ndarray
    sizes: np.ndarray
    A: np.ndarray
    labels: np.ndarray

    def take(self, rows) -> _Nodes:
        return _Nodes(*(x[rows] for x in self))


def solve_bnb(instance: Instance, opts: SolveOptions | None = None) -> OptimalResult:
    """Branch-and-bound exact search; proven optimum unless a budget runs out."""
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    # the budget covers the whole solve: the seed and the tables too
    deadline = None if opts.time_budget is None else t0 + opts.time_budget
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    dist = instance.dist
    slack = _rounding_slack(instance)

    # an incumbent that reaches the columns' bound is optimal: the closed
    # form's, where there is one, else the seed's; later, any tail's
    bound = column_bound(instance)
    certified = math.inf if bound is None else bound - slack
    best_grouping = closed_form(instance)
    if best_grouping is not None:
        best_value = objective_value(best_grouping, dist)
    else:
        seed = multistart(instance, restarts=1, seed=_SEED_SEED)
        best_value, best_grouping = seed.value, canonicalize(seed.grouping)
    if best_value >= certified:
        return OptimalResult(best_value, best_grouping, 0, True, time.perf_counter() - t0)

    square = dist.as_square()
    # the search leaves the last R elements to the tail: every labelling of
    # them, in lexicographic order, and the sum of the tail pairs it groups
    R = 1
    while R < n and G ** (R + 1) <= _TAIL_LABELLINGS:
        R += 1
    lab = np.arange(G**R)[:, None] // G ** np.arange(R - 1, -1, -1) % G
    iu, ju = _pair_index(R)
    within = square[n - R :, n - R :][iu, ju]
    pair_sums = np.where(lab[:, iu] == lab[:, ju], within, 0.0).sum(axis=1)
    # the suffix table of the children of depth t, for every branching depth
    tables = [_suffix_table(square, t + 1, a, b) for t in range(n - R)]
    node_budget = opts.node_budget
    nodes = 0
    exhausted = False

    def finish(batch: _Nodes):
        # score the completions of every node at once: the nodes sorted by
        # sizes tuple, one matrix product for each tuple's run of nodes
        nonlocal best_value, best_grouping
        order = np.lexsort(batch.sizes.T[::-1])
        sizes = batch.sizes[order]
        # column g * R + j of gains is group g's gain at tail position j
        gains = batch.A[order].reshape(len(order), -1)
        starts = np.flatnonzero((sizes[1:] != sizes[:-1]).any(axis=1)) + 1
        edges = [0, *starts.tolist(), len(order)]
        top, runs = np.empty(len(order)), []
        for key, lo, hi in zip(sizes[edges[:-1]].tolist(), edges, edges[1:]):
            idx, onehot = _completions(R, a, b, tuple(key))
            score = gains[lo:hi] @ onehot
            score += pair_sums[idx]
            score.max(axis=1, out=top[lo:hi])
            runs.append((lo, idx, score))
        rank = np.argsort(order)
        top = top[rank]
        # the fast sums decide only which labellings get an exact
        # same_label_sum, node by node, then completion by completion: in
        # iter_feasible_partitions order, so the first exact maximum wins
        # and rounding picks nothing. The incumbent only rises within the
        # batch, so a node below it now stays below it
        for f in np.flatnonzero(top >= best_value - batch.cur - slack):
            need = best_value - batch.cur[f]
            if top[f] < need - slack:
                continue
            lo, idx, score = runs[np.searchsorted(starts, rank[f], side="right")]
            full = np.concatenate([batch.labels[f], np.zeros(R, dtype=np.intp)])
            for k in np.flatnonzero(score[rank[f] - lo] >= max(need, top[f]) - slack):
                full[n - R :] = lab[idx[k]]
                value = dist.same_label_sum(full)
                if value > best_value:
                    best_value, best_grouping = value, Grouping.from_labels(full.tolist())

    def expand(batch: _Nodes, ok: np.ndarray) -> _Nodes:
        # every child (node, group) the branching rule ``ok`` allows, made and
        # bounded at once, node by node and within a node by group: the
        # lexicographic order of their labels, as _leaves makes them
        t = batch.labels.shape[1]
        f, g = np.nonzero(ok)
        A, child_sizes = batch.A[f, :, 1:], batch.sizes[f]
        joined = np.arange(len(f)), g
        A[joined] += square[t, t + 1 :]
        child_sizes[joined] += 1
        cur = batch.cur[f] + batch.A[f, g, 0]
        ub = cur + _completion_bounds(A, child_sizes, tables[t])
        labels = np.hstack([batch.labels[f], g[:, None]])
        return _Nodes(cur, ub, child_sizes, A, labels)

    root = _Nodes(np.zeros(1), np.full(1, math.inf), np.zeros((1, G), dtype=np.intp),
                  np.zeros((1, G, n)), np.zeros((1, 0), dtype=np.intp))
    stack = [root]
    while stack:
        batch = stack.pop()
        # the only comparison with the incumbent: a node whose bound no
        # longer beats it is dropped here, uncounted
        live = batch.ub > best_value
        if not live.all():
            batch = batch.take(live)
            if not len(batch.cur):
                continue
        t = batch.labels.shape[1]
        # nodes per pass: a tail pass keeps its scores within _BATCH_FLOATS.
        # A branching pass keeps its children, each at most G*(n-t) + n + G
        # floats, within an equal share of it for every branching depth: the
        # stack holds at most one part-done batch per depth, so the pending
        # nodes stay within _BATCH_FLOATS too. A live node has a child, so
        # the share's worth of children comes from that many nodes at most.
        if t == n - R:
            chunk = _BATCH_FLOATS // G**R
        else:
            share = _BATCH_FLOATS // ((n - R) * (G * (n - t) + n + G))
            ok = _joinable(batch.sizes[: max(1, share)], n - t, a, b)
            chunk = np.searchsorted(ok.sum(axis=1).cumsum(), share, side="right")
        chunk = max(1, chunk)
        if chunk < len(batch.cur):
            stack.append(batch.take(slice(chunk, None)))
            batch = batch.take(slice(chunk))
        if deadline is not None and time.perf_counter() >= deadline:
            exhausted = True
            break
        if node_budget is not None and nodes + len(batch.cur) > node_budget:
            # a node is left over: visit what the budget allows, then stop
            exhausted = True
            if nodes == node_budget:
                break
            batch = batch.take(slice(node_budget - nodes))
        nodes += len(batch.cur)
        if t == n - R:
            finish(batch)
        else:
            stack.append(expand(batch, ok[: len(batch.cur)]))
        if exhausted or best_value >= certified:
            break

    return OptimalResult(
        value=best_value,
        grouping=best_grouping,
        nodes_explored=nodes,
        proven=bool(not exhausted or best_value >= certified),
        elapsed=time.perf_counter() - t0,
    )


def solve_columns(instance: Instance) -> OptimalResult:
    """The optimum of an instance whose columns give it in closed form
    (:func:`mdgp.bounds.closed_form`): one numeric column, any [a, b], or two
    numeric columns with a = b, under manhattan or gower. Proven, with no
    node explored; any other instance raises ``ValueError``."""
    t0 = time.perf_counter()
    grouping = closed_form(instance)
    if grouping is None:
        raise ValueError(
            "no closed form: it needs manhattan or gower columns, all numeric: "
            "one (with few enough size vectors to list), or two with a = b"
        )
    return OptimalResult(objective_value(grouping, instance.dist), grouping, 0, True,
                         time.perf_counter() - t0)
