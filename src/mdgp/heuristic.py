"""Baseline heuristic: seeded greedy construction plus steepest-ascent local search.

The point of this module is not to compete with the literature's
metaheuristics but to give the exact solvers something to benchmark, so the
emphasis is on determinism: identical (seed, restarts) always produce the
identical grouping, on any platform.

Both phases keep the delta matrix of the MDGP metaheuristics literature
(Gallego et al. 2013; Lai & Hao 2016): an n×G array ``W`` whose entry
``W[u, g]`` is the sum of ``d[u, w]`` over the members w of group g. Greedy
construction reads its rows. Local search derives one gain matrix from it per
step, and every swap or move delta is one or two of its entries plus
``-2·d[u, v]``, so one step scores every candidate in a handful of numpy
operations, and an accepted step updates two columns of ``W`` in O(n). ``W``
changes only by elementwise additions of columns of ``d`` (rows of ``d``
added to its transpose, when local search builds it), never by a matrix
product, so it does not depend on a BLAS library or its thread count. A step
must gain more than a fixed tolerance ``tol = 1e-9 · max|d| · b``, and the
improving deltas within tol of the best count as tied and go to the smallest
move descriptor. So two deltas that differ only by float rounding (another
summation order, say) compare the same way, unless one of them lies within
rounding of ``best - tol`` or of ``tol``.

A step is taken only if it raises the exact objective sum
(``same_label_sum``), so local search never ends below its start. The sum
is re-taken only where a rounding margin cannot prove the rise: a step whose
float delta exceeds the margin raises it for certain (``local_search``
derives the margin), and the sums of the other steps are compared as they
are. It is the same rule as re-summing every step, so results do not depend
on the margin. ``multistart`` runs each restart on a label array and scores
it with one sum of its final labels; only the winner becomes a grouping.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import Grouping, Instance, validate_grouping
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class HeuristicResult:
    grouping: Grouping
    value: float
    restarts_used: int
    best_restart_index: int
    restart_values: tuple[float, ...]  # local-search value of each restart, in order


def greedy_construct(instance: Instance, seed: int) -> Grouping:
    """Open G groups with random distinct seed elements, then place the rest.

    Elements are consumed in a shuffled order; each goes to the first group
    with the largest gain ``W[e - 1, g]`` among groups that still leave the
    remaining elements able to fill every group up to the lower bound.
    Group sizes and the capacity deficit are kept as running counts, so
    placing an element reads one row of ``W`` and adds one column.
    The result is always feasible for a valid instance.
    """
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    d = instance.dist.as_square()
    rng = SplitMix64(seed)

    elements = list(range(1, n + 1))
    seeds = rng.sample(elements, G)
    groups: list[list[int]] = [[s] for s in seeds]
    seed_set = set(seeds)
    rest = [e for e in elements if e not in seed_set]
    rng.shuffle(rest)
    # Wt[g] is column g of the delta matrix, a row here so that adding a
    # member adds one contiguous row of d (d is exactly symmetric, so a row
    # of d is the column the sum needs); members are added as they join
    Wt = d[np.array(seeds) - 1]

    size = [1] * G
    deficit = G * (a - 1)  # elements the groups below size a still need
    for idx, e in enumerate(rest):
        left_after = len(rest) - idx - 1
        # capacity guard: after placing e, every group must still be able to
        # reach size a with the elements left over; placing e in a group below
        # a lowers the deficit by one
        row = Wt[:, e - 1].tolist()
        best_g, best_inc = -1, float("-inf")
        for g in range(G):
            if size[g] >= b or deficit - (size[g] < a) > left_after:
                continue
            if row[g] > best_inc:
                best_g, best_inc = g, row[g]
        assert best_g >= 0, "valid instances always leave a feasible group"
        groups[best_g].append(e)
        deficit -= size[best_g] < a
        size[best_g] += 1
        Wt[best_g] += d[e - 1]

    return Grouping(groups)


def local_search(instance: Instance, start: Grouping) -> Grouping:
    """Steepest ascent over swap and move neighborhoods until no step improves.

    Swaps exchange two elements between groups; moves relocate one element
    when both size bounds stay satisfied (never when a == b). Every delta is
    read from the n×G array ``W``, where ``W[u, g]`` is the distance sum from
    u to the members of group g, through the gain matrix
    ``gain[u, g] = W[u, g] - W[u, g(u)]`` with ``gain[u, g(u)] = -inf``:
    moving u to g gains ``gain[u, g]``, and swapping u and v gains
    ``gain[u, g(v)] + gain[v, g(u)] - 2·d[u, v]``. Both gain terms of a pair
    within one group read the own-group -inf, so same-group swaps score -inf
    without a mask. An accepted step changes two columns of ``W`` by
    ±d[:, u] (and ±d[:, v]), O(n) work.

    With ``tol = 1e-9 · max|d| · b``, a step improves only when its delta
    exceeds tol, and improving steps within tol of the best delta are tied.
    Ties go to the lexicographically smallest descriptor (swaps as
    (0, min(u, v), max(u, v)), moves as (1, u, target group)), so the
    trajectory does not depend on float summation order (up to deltas within
    rounding of ``best - tol`` or of ``tol``).

    The search stops if a step would not raise the exact objective sum
    ``same_label_sum``, so the result is never worth less than the start.
    That sum is taken only where rounding could hide the answer: a step
    whose float delta exceeds the margin ``beta_k`` of :func:`_rise_margin`
    raises it for certain. With u = eps/2, M = max|d|, m = n·(b - 1)/2 (no
    labelling has more same-group pairs) and k steps accepted so far, the
    rounding errors, to first order in u, are at most:

    - ``m²·u·M`` for each of the two sums: at most m terms of size at most
      M, added in any order;
    - ``(b² + k·(b + 2))·u·M`` for each entry of ``W``: a sum of at most b
      terms, then per accepted step one difference of two columns of d
      (2uM) added to an entry of size at most b·M (b·uM), and a swap's
      delta reads four entries;
    - ``(12b + 2)·u·M`` for the delta's own three operations: two gains of
      size at most 2bM (2b·uM each), their sum (4b·uM), and the -2·d[u, v]
      ((4b + 2)·uM).

    These add up to ``2·u·M·(m² + 2b² + 6b + 1 + 2k·(b + 2))``, at most
    ``2·u·M·(m² + 2(b + 2)(b + 2 + k))``, and beta_k is twice that, which
    also covers the higher-order terms and the rounding of beta_k itself.
    If the chosen step's float delta exceeds beta_k, its exact rise exceeds
    both sums' errors, so the new sum exceeds the old one and the guard
    could not stop the search: it is the same rule as summing every step.
    At N=60-80 and b=8-11, beta_k is 3e-11·M to 6e-11·M against a tol of
    at least 8e-9·M, so no step is re-summed; at N=1000, b=100 it is about
    1.1e-6·M against a tol of 1e-7·M, and every step is.
    """
    return Grouping.from_labels(_search(instance, _start_labels(instance, start))[0].tolist())


def _start_labels(instance: Instance, start: Grouping) -> np.ndarray:
    """``start``'s label array, after checking that it is feasible."""
    report = validate_grouping(start, instance)
    if not report.feasible:
        raise ValueError(f"start grouping is infeasible: {report.violations}")
    return start.label_array()


def _rise_margin(n: int, b: int, scale: float, steps: int) -> float:
    """beta_k of :func:`local_search`: a step whose float delta exceeds it
    raises ``same_label_sum``, after ``steps`` accepted steps, with
    ``scale = max|d|``. The factor is formed before it meets scale, so a
    tiny scale does not underflow it to 0; a margin that overflows is inf,
    and every step is then summed."""
    pairs = n * (b - 1) / 2
    return 2.0 * sys.float_info.epsilon * (pairs * pairs + 2.0 * (b + 2) * (b + 2 + steps)) * scale


def _search(instance: Instance, label: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`local_search` from the label array of a feasible start: the
    final labels and their ``same_label_sum``, which equals
    ``objective_value`` of any grouping with the same groups."""
    dist = instance.dist
    d = dist.as_square()
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    scale = float(np.abs(d).max())
    tol = 1e-9 * scale * b
    above_tol = np.nextafter(tol, np.inf)  # the least float that exceeds tol
    size = np.bincount(label, minlength=G)
    # elementwise sums, no matrix product: W is the same on every platform
    # and BLAS build. A row of W.T adds whole rows of the symmetric d, so
    # each entry gets the additions of the column sums, in the same order
    Wt = np.zeros((G, n))
    for w, g in enumerate(label.tolist()):
        Wt[g] += d[w]
    W = Wt.T
    rows = np.arange(n)
    # -2·d[u, v] on the upper triangle, -inf elsewhere: one swap per pair
    base = -2.0 * d
    base[np.tri(n, dtype=bool)] = -np.inf
    value = None  # same_label_sum(label), taken only when a step needs it
    steps = 0

    while True:
        gain = W - W[rows, label][:, None]
        gain[rows, label] = -np.inf
        # swap[u, v] = gain[u, g(v)] + gain[v, g(u)] - 2·d[u, v]; a same-group
        # pair reads the own-group -inf twice. gain[:, label] is the transpose
        # of cross[u, v] = gain[v, g(u)]: gathered as rows, cross comes out in
        # C order, where gain[:, label] would make every later pass strided
        cross = gain.T.take(label, axis=0)
        swap = cross + cross.T
        swap += base
        k = int(swap.argmax())  # the first largest swap
        best = swap.flat[k]
        if a < b:
            movable = size[label] > a
            open_ = size < b
            move = gain[movable][:, open_]
            best = max(best, move.max(initial=-np.inf))
        if not best > tol:
            break

        # tied and improving: within tol of the best and above tol; row-major
        # order of both arrays is descriptor order, and swaps come first. The
        # first swap at or above floor is no later than the first largest one
        floor = max(best - tol, above_tol)
        new = label.copy()
        k = int(np.argmax(swap.ravel()[: k + 1] >= floor))
        delta = swap.flat[k]
        is_swap = delta >= floor
        if is_swap:
            u, v = divmod(k, n)
            new[u], new[v] = label[v], label[u]
        else:
            i, j = divmod(int(np.argmax(move >= floor)), move.shape[1])
            delta = move[i, j]
            u, g = int(np.flatnonzero(movable)[i]), int(np.flatnonzero(open_)[j])
            new[u] = g
        if delta > _rise_margin(n, b, scale, steps):
            new_value = None  # the rise is proven; the sum waits until needed
        else:
            if value is None:
                value = dist.same_label_sum(label)
            new_value = dist.same_label_sum(new)
            if new_value <= value:
                # float-drift guard: never return anything below the start value
                break

        # Wt[g] is column g of W, and rows of the symmetric d are its columns
        if is_swap:
            shift = d[v] - d[u]
            Wt[label[u]] += shift
            Wt[label[v]] -= shift
        else:
            Wt[label[u]] -= d[u]
            Wt[g] += d[u]
            size[label[u]] -= 1
            size[g] += 1
        value, label = new_value, new
        steps += 1

    if value is None:
        value = dist.same_label_sum(label)
    return label, value


def multistart(instance: Instance, restarts: int, seed: int) -> HeuristicResult:
    """Best of `restarts` independent construct+search pipelines.

    Restart r uses the stream derived from (seed, r); the best value wins and
    value ties go to the earliest restart, so the reduction is independent of
    evaluation order. Each restart searches from its greedy grouping's label
    array and is scored from the labels it ends on; only the winner becomes a
    :class:`Grouping`.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best: np.ndarray | None = None
    best_value = float("-inf")
    best_index = -1
    values = []
    for r in range(1, restarts + 1):
        start = greedy_construct(instance, derive_seed(seed, r))
        labels, v = _search(instance, _start_labels(instance, start))
        values.append(v)
        if v > best_value:
            best, best_value, best_index = labels, v, r
    assert best is not None
    return HeuristicResult(
        grouping=Grouping.from_labels(best.tolist()),
        value=best_value,
        restarts_used=restarts,
        best_restart_index=best_index,
        restart_values=tuple(values),
    )
