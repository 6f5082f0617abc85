"""Per-column upper bounds and closed-form optima for attribute instances.

Under manhattan and gower distances the objective is a sum over the
instance's columns (``Instance.columns``), so the most each column can give,
added up, bounds the optimum. For one vector of group sizes m_1..m_G:

- a numeric column of weight w and sorted values v_1 <= ... <= v_N gives
  w * sum_k l_k * sum_g L_g * (m_g - L_g), where l_k = v_(k+1) - v_k and L_g
  counts group g's members among the k lowest. Each L * (m_g - L) is concave
  with marginals m_g - 1 - 2L, so the most it can be is M_k, the sum of the
  k largest marginals over all groups;
- a categorical column of weight w gives w * sum_g (m_g**2 - sum_c n_gc**2)/2,
  where n_gc counts group g's members of category c. Each category spread
  over the groups as evenly as their sizes allow, each on its own, makes
  sum n**2 least: a relaxation, since the spreads need not fit together.

:func:`column_bound` adds the columns up for each nondecreasing size vector
and takes the largest sum. The same identity gives optima in closed form
(:func:`closed_form`). One numeric column meets its maximum when the k-th
lowest element joins the group of the k-th largest marginal. Two numeric
columns with a = b meet both maxima when each group takes one element from
each block of G consecutive ranks in each column; the elements join the
blocks of one column to those of the other as a G-regular bipartite
multigraph, and the G colours of a proper edge colouring of it (König's
edge-colouring theorem) are such groups.

Float contract: the bound is computed in floats from the column values, one
dot product of the gaps with the sorted marginals' running sums per size
vector, so on a tight instance it may lie a few ulps on either side of an
optimum's ``same_label_sum``. Callers compare the two through
``mdgp.solver._rounding_slack``, never exactly.
"""

from __future__ import annotations

import numpy as np

from .core import Grouping, Instance, canonicalize

# column_bound gives up, returning None, on instances with more
# nondecreasing size vectors than this
_SIZE_VECTORS = 1 << 10


def _size_vector_count(n: int, G: int, a: int, b: int) -> int:
    """How many nondecreasing size vectors there are, or ``_SIZE_VECTORS +
    1`` if more: the partitions of ``n - G*a`` into at most G parts of at
    most ``b - a``, counted by number of parts as the largest part allowed
    grows, and given up as soon as the count passes the cap."""
    T, over = n - G * a, _SIZE_VECTORS + 1
    ways = np.zeros((min(G, T) + 1, T + 1), dtype=np.int64)
    ways[0, 0] = 1
    for v in range(1, min(b - a, T) + 1):
        for j in range(1, len(ways)):
            ways[j, v:] += ways[j - 1, : T + 1 - v]
        np.minimum(ways, over, out=ways)
        if ways[:, T].sum() >= over:
            return over
    return int(ways[:, T].sum())


def _size_vectors(n: int, G: int, a: int, b: int):
    """Every nondecreasing vector of G sizes in [a, b] adding up to n, as
    ``((size, groups), ...)``, largest size first."""

    def extend(groups, total, hi):
        if groups == 0:
            yield ()
            return
        # the largest size left is at least the mean, and leaves room for a
        for m in range(min(hi, total - (groups - 1) * a), -(-total // groups) - 1, -1):
            for c in range(1, groups + 1):
                rest, left = groups - c, total - c * m
                if left < rest * a:
                    break
                if left <= rest * (m - 1):
                    for tail in extend(rest, left, m - 1):
                        yield ((m, c), *tail)

    yield from extend(G, n, b)


def _best_sizes(instance: Instance):
    """The largest column sum over the size vectors and the first vector
    that attains it, or None without columns or past the cap."""
    n, G, a, b = instance.n, instance.G, instance.a, instance.b
    if instance.columns is None or _size_vector_count(n, G, a, b) > _SIZE_VECTORS:
        return None
    gaps, cats = np.zeros(max(n - 1, 0)), []
    for col in instance.columns:
        if col.kind == "num":
            gaps += col.weight * np.diff(np.sort(col.values))
        else:
            cats.append((col.weight, np.bincount(col.values)))
    best = None
    for vec in _size_vectors(n, G, a, b):
        # member L of a group of size m: its marginal m - 1 - 2L, and 2L + 1,
        # what it adds to the group's sum of squares
        L = np.concatenate([np.tile(np.arange(m), c) for m, c in vec])
        size = np.repeat([m for m, _ in vec], [m * c for m, c in vec])
        marginals = np.sort(size - 1 - 2 * L)[::-1]
        value = float((gaps * marginals.cumsum()[:-1]).sum())
        squares = np.concatenate([[0], np.sort(2 * L + 1).cumsum()])
        for weight, counts in cats:
            value += weight * float(squares[n] - squares[counts].sum()) / 2
        if best is None or value > best[0]:
            best = value, vec
    return best


def column_bound(instance: Instance) -> float | None:
    """An upper bound on the instance's optimum from its columns: for each
    nondecreasing size vector, each column's maximum, added up; the largest
    such sum. None for an instance without columns, or with more than
    ``_SIZE_VECTORS`` size vectors (counted before any is made)."""
    best = _best_sizes(instance)
    return None if best is None else best[0]


def _rearranged(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Labels that give the k-th lowest value the group of the k-th largest
    marginal, for groups of ``sizes``: one numeric column's maximum."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    L = np.arange(len(values)) - np.repeat(sizes.cumsum() - sizes, sizes)
    marginal = sizes[group] - 1 - 2 * L
    # a group's marginals fall as L grows, so each group takes them in order
    order = np.lexsort((group, -marginal))
    labels = np.empty(len(values), dtype=np.intp)
    labels[np.argsort(values, kind="stable")] = group[order]
    return labels


def _koenig(x: np.ndarray, y: np.ndarray, G: int) -> np.ndarray:
    """Labels for groups of size N/G that take one element from each block
    of G consecutive ranks of ``x`` and of ``y``: a proper edge colouring,
    in G colours, of the G-regular bipartite multigraph that joins element
    e's block in ``x`` to its block in ``y``, built an edge at a time by
    swapping two colours along a path (König's proof)."""
    n = len(x)
    blocks = []
    for values in x, y:
        block = np.empty(n, dtype=np.intp)
        block[np.argsort(values, kind="stable")] = np.arange(n) // G
        blocks.append(block.tolist())
    # left[u][c] is the y block that the edge of colour c joins to x block u,
    # or -1 while c is free at u; right[v][c] the other way round
    left = [[-1] * G for _ in range(n // G)]
    right = [[-1] * G for _ in range(n // G)]
    for u, v in zip(*blocks):
        alpha, beta = left[u].index(-1), right[v].index(-1)
        if right[v][alpha] != -1:
            # swap alpha and beta along the path of those colours from v;
            # it cannot reach u, where alpha is free, and it frees alpha at v
            path, p, sides, c = [], v, (right, left), alpha
            while (q := sides[0][p][c]) != -1:
                path.append((sides, p, q, c))
                p, sides, c = q, sides[::-1], alpha + beta - c
            for (own, other), p, q, c in path:
                own[p][c] = other[q][c] = -1
            for (own, other), p, q, c in path:
                own[p][alpha + beta - c], other[q][alpha + beta - c] = q, p
        left[u][alpha], right[v][alpha] = v, u
    # each colour is a perfect matching: a group. Parallel edges are
    # interchangeable, so they take their colours in any order
    colours: dict = {}
    for u, row in enumerate(left):
        for c, v in enumerate(row):
            colours.setdefault((u, v), []).append(c)
    return np.array([colours[u, v].pop() for u, v in zip(*blocks)])


def closed_form(instance: Instance) -> Grouping | None:
    """An optimal grouping, canonical, where the columns give one in closed
    form: one numeric column, any [a, b] (on a size vector that attains
    :func:`column_bound`), or two numeric columns with a = b. None for any
    other instance, categorical columns or no columns included."""
    columns = instance.columns
    if columns is None or any(col.kind != "num" for col in columns):
        return None
    if len(columns) == 2 and instance.a == instance.b:
        labels = _koenig(columns[0].values, columns[1].values, instance.G)
    elif len(columns) == 1 and (best := _best_sizes(instance)) is not None:
        sizes = np.repeat(*np.array(best[1]).T)
        labels = _rearranged(columns[0].values, sizes)
    else:
        return None
    return canonicalize(Grouping.from_labels(labels.tolist()))
