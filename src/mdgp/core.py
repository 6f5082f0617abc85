"""Domain types, distance metrics, and the objective/feasibility semantics.

Everything else in the package is validated against the functions here:
``objective_value`` defines what a grouping is worth and
``validate_grouping`` defines when it is admissible.

Element indices are 1-based throughout the public API, matching the
usual notation for this problem family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

METRICS = ("manhattan", "euclidean", "gower")


class SchemaError(ValueError):
    """An attribute table is incompatible with the requested metric."""


@dataclass(frozen=True)
class AttributeTable:
    """Raw element data: N rows of K attribute values plus a per-column kind.

    Kinds are ``"num"`` (unitless reals) or ``"cat"`` (opaque labels compared
    only for equality).
    """

    rows: tuple[tuple, ...]
    schema: tuple[str, ...]

    def __init__(self, rows, schema):
        rows = tuple(tuple(r) for r in rows)
        schema = tuple(schema)
        if len(schema) == 0:
            raise ValueError("schema must have at least one attribute")
        if len(rows) == 0:
            raise ValueError("table must have at least one row")
        for kind in schema:
            if kind not in ("num", "cat"):
                raise ValueError(f"unknown attribute kind {kind!r}")
        for idx, row in enumerate(rows, 1):
            if len(row) != len(schema):
                raise ValueError(
                    f"row {idx} has {len(row)} values, schema has {len(schema)}"
                )
            for kind, value in zip(schema, row):
                if kind == "num":
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ValueError(f"row {idx}: {value!r} is not numeric")
                    try:
                        finite = math.isfinite(value)
                    except OverflowError:  # an int beyond the float range
                        finite = False
                    if not finite:
                        raise ValueError(f"row {idx}: non-finite numeric value")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "schema", schema)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.schema)


@lru_cache(maxsize=8)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 0-based ``(i, j)`` of every pair i < j, in condensed order."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


class DistanceMatrix:
    """Symmetric pairwise distances, stored in two read-only layouts.

    The condensed vector holds the entries for i < j (same layout as
    ``scipy.spatial.distance.pdist``); the full (n, n) square, with a zero
    diagonal, is built from it once at construction. The square costs 8·n²
    bytes per instance (51 KB at n=80, 8 MB at n=1000); in return the solvers
    and heuristics that read it build no square of their own.
    Lookups take 1-based indices.
    """

    __slots__ = ("n", "_condensed", "_square")

    def __init__(self, n: int, condensed):
        # a copy, so neither the caller's array nor a base it views can change it
        condensed = np.array(condensed, dtype=float)
        if n < 1:
            raise ValueError("element count must be >= 1")
        expected = n * (n - 1) // 2
        if condensed.shape != (expected,):
            raise ValueError(
                f"expected {expected} upper-triangular entries for n={n}, "
                f"got shape {condensed.shape}"
            )
        if expected and not np.all(np.isfinite(condensed)):
            raise ValueError("all distances must be finite")
        # an objective adds disjoint pairs, but a local-search swap score adds
        # two row sums and -2·d, and a branch-and-bound value plus its bound
        # adds a prefix sum to a bound over the rest: each is at most
        # 4·sum|d| in size, so that must stay finite
        with np.errstate(over="ignore"):
            if not np.isfinite(4.0 * np.abs(condensed).sum()):
                raise ValueError("distances too large: their absolute sum overflows")
        condensed.flags.writeable = False
        m = np.zeros((n, n))
        m[_pair_index(n)] = condensed
        square = m + m.T
        square.flags.writeable = False
        self.n = n
        self._condensed = condensed
        self._square = square

    @classmethod
    def from_square(cls, matrix) -> "DistanceMatrix":
        """Build from a full square matrix; must be symmetric with zero diagonal."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        # before symmetry: NaN != NaN would read as an asymmetric matrix
        if not np.all(np.isfinite(m)):
            raise ValueError("all distances must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix is not symmetric")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("diagonal must be zero")
        n = m.shape[0]
        return cls(n, m[_pair_index(n)])

    def lookup(self, i: int, j: int) -> float:
        """Distance between elements i and j (1-based); 0 when i == j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"element index out of range: ({i}, {j})")
        return float(self._square[i - 1, j - 1])

    def condensed(self) -> np.ndarray:
        """The stored upper-triangular entries, pair order (1,2),(1,3),...,(n-1,n)."""
        return self._condensed

    def as_square(self) -> np.ndarray:
        """The stored full symmetric (n, n) array, zero diagonal."""
        return self._square

    def same_label_sum(self, labels) -> float:
        """Sum over the pairs whose labels match (``labels[e]`` labels element
        e + 1), in condensed pair order: bit-identical under any relabelling."""
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            raise ValueError(f"expected {self.n} labels, got shape {labels.shape}")
        iu, ju = _pair_index(self.n)
        return float(self._condensed[labels[iu] == labels[ju]].sum())

    def __reduce__(self):
        # a pickled or deep-copied instance is rebuilt through __init__, which
        # checks it again and marks both arrays read-only
        return DistanceMatrix, (self.n, self._condensed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._condensed, other._condensed)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


@dataclass(frozen=True)
class Instance:
    """A problem instance: distances plus group count G and size bounds [a, b]."""

    dist: DistanceMatrix
    G: int
    a: int
    b: int

    def __post_init__(self):
        n = self.dist.n
        if self.G < 1:
            raise ValueError("G must be >= 1")
        if not (1 <= self.a <= self.b <= n):
            raise ValueError(f"size bounds must satisfy 1 <= a <= b <= N, got a={self.a}, b={self.b}, N={n}")
        if not (self.G * self.a <= n <= self.G * self.b):
            raise ValueError(
                f"infeasible instance: need G*a <= N <= G*b, "
                f"got {self.G}*{self.a} <= {n} <= {self.G}*{self.b}"
            )

    @property
    def n(self) -> int:
        return self.dist.n


@dataclass(frozen=True)
class Grouping:
    """A partition of elements {1..N} into nonempty groups.

    Members of each group are kept ascending. Group order is preserved as
    constructed; use :func:`canonicalize` for the unique representative
    (groups ordered by smallest member).
    """

    groups: tuple[tuple[int, ...], ...]

    def __init__(self, groups):
        groups = tuple(tuple(sorted(g)) for g in groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValueError("groups must be nonempty")
            for e in g:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"element indices must be integers, got {e!r}")
                if e in seen:
                    raise ValueError(f"element {e} appears in more than one group")
                seen.add(e)
        if not seen:
            raise ValueError("grouping must contain at least one element")
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"groups must partition 1..{n} exactly")
        object.__setattr__(self, "groups", groups)

    @classmethod
    def from_labels(cls, labels) -> "Grouping":
        """Element e + 1 joins the group labelled ``labels[e]``; groups come in
        ascending label order, and labels need not be contiguous."""
        members: dict = {}
        for e, lab in enumerate(labels, 1):
            members.setdefault(lab, []).append(e)
        return cls(members[lab] for lab in sorted(members))

    @property
    def n(self) -> int:
        return sum(map(len, self.groups))

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def label_array(self) -> np.ndarray:
        """Entry e is the 0-based stored group index of element e + 1: the
        inverse of :meth:`from_labels`."""
        labels = [0] * self.n
        for g, members in enumerate(self.groups):
            for e in members:
                labels[e - 1] = g
        return np.array(labels, dtype=np.int64)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...] = field(default=())


def canonicalize(grouping: Grouping) -> Grouping:
    """Reorder groups by their smallest member (idempotent, value-preserving)."""
    return Grouping(sorted(grouping.groups, key=lambda g: g[0]))


def distance_matrix(table: AttributeTable, metric: str) -> DistanceMatrix:
    """Pairwise distances between the table's rows under the chosen metric.

    ``manhattan`` and ``euclidean`` require an all-numeric schema. ``gower``
    mixes kinds: numeric attributes contribute |v_i - v_j| / column range
    (0 when the column has zero range), categorical attributes contribute
    0/1 on equality, and the distance is the mean contribution, so every
    entry lies in [0, 1].

    Each pair's value starts at 0.0 and adds one term per column in schema
    order (|delta|, delta squared, or the Gower term), then takes one square
    root (euclidean) or one division by K (gower): the float operations, in
    order, of a per-pair loop over the columns.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric != "gower" and "cat" in table.schema:
        raise SchemaError(
            f"{metric} distance requires an all-numeric schema; "
            "use gower for mixed attributes"
        )
    iu, ju = _pair_index(table.n)
    total = np.zeros(len(iu))
    # values near the float limit overflow to inf or nan here; DistanceMatrix
    # rejects that result with its own error, so the warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for col, kind in enumerate(table.schema):
            if kind == "cat":
                v = np.array([row[col] for row in table.rows], dtype=object)
                total += (v[iu] != v[ju]).astype(float)
                continue
            v = np.array([row[col] for row in table.rows], dtype=float)
            delta = np.abs(v[iu] - v[ju])
            if metric == "manhattan":
                total += delta
            elif metric == "euclidean":
                total += delta * delta
            elif (rng := v.max() - v.min()) > 0.0:
                total += delta / rng
        if metric == "euclidean":
            total = np.sqrt(total)
        elif metric == "gower":
            total /= table.k
    return DistanceMatrix(table.n, total)


def objective_value(grouping: Grouping, dist: DistanceMatrix) -> float:
    """Sum of distances over unordered same-group pairs.

    Summation runs in fixed pair order (1,2),(1,3),...,(n-1,n) regardless of
    how the grouping is stored, so relabelings produce bit-identical values.
    """
    if grouping.n != dist.n:
        raise ValueError(
            f"grouping covers {grouping.n} elements, distance matrix has {dist.n}"
        )
    return dist.same_label_sum(grouping.label_array())


def validate_grouping(grouping: Grouping, instance: Instance) -> FeasibilityReport:
    """Check group count and per-group size bounds; violations are data, not errors."""
    if grouping.n != instance.n:
        raise ValueError(
            f"grouping covers {grouping.n} elements, instance has {instance.n}"
        )
    violations = []
    if grouping.group_count != instance.G:
        violations.append(
            f"group count {grouping.group_count} != G={instance.G}"
        )
    for idx, members in enumerate(grouping.groups, 1):
        size = len(members)
        if size < instance.a:
            violations.append(f"group {idx} size {size} < a={instance.a}")
        elif size > instance.b:
            violations.append(f"group {idx} size {size} > b={instance.b}")
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))
