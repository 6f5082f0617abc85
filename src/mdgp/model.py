"""Explicit ILP construction over pair variables, plus encoding, checking and decoding.

Three variants share the same objective (distance-weighted pair variables)
and the same transitivity rows; they differ in how group sizes and the group
count are pinned down:

* ``equal``        degree of every element fixed to N/G - 1.
* ``degree_only``  degree bounded in [a-1, b-1] only. Intentionally defective:
                   it admits partitions with the wrong number of groups.
* ``unequal``      degree bounds plus leader variables y_j (element j is the
                   smallest index of its group; element 1 is an implicit
                   leader, so exactly G-1 of the y_j are 1).

Constraint names are stable (``tri1_i_j_k``, ``dmin_i``, ``dmax_i``,
``deq_i``, ``lex_i_j``, ``lforce_j``, ``lcount``) so violation reports and
exported LP files are diffable.

A model is plain arrays. Columns (``variables``) are the pair variables
``x_i_j`` (1-based, i < j) in lexicographic order, the order of
``DistanceMatrix.condensed()``, followed in ``unequal`` by the leader
variables ``y_2 .. y_N``; ``objective`` holds one coefficient per pair
column. Rows (``constraints``) are in CSR form: row r has the terms
``coefs[k] * column indices[k]`` for k in ``indptr[r]:indptr[r+1]`` and reads
``lo[r] <= row <= hi[r]``, with -inf/+inf on the open side of a one-sided
row (the arrays ``scipy.optimize.milp`` takes). Every row coefficient is +1
or -1, so the LP text writes a row term as its sign and column name. The
terms of a row keep construction order, not column order, because the LP
text prints them in that order: ``tri1_i_j_k`` is ``x_ij + x_jk - x_ik``.

Building and exporting are array passes, not a loop over rows. The
triangle rows come from one index array per triple position, and their
names from one ``_a_b_c`` suffix per triple. :func:`export_lp` is one pass
over tokens and one join: a head token per row, term tokens built once per
column and placed by sign and position, and a tail token per row looked up
from the few distinct (sense, right-hand side) pairs.

The same module reads the format back. :func:`decode_partition` labels each
element with the smallest member of {i} together with its x = 1 partners,
which is its class's smallest member when x is transitive, and accepts
exactly when re-encoding those labels gives x back; otherwise it names the
lexicographically first triple whose transitivity row is broken.
:func:`verify_group_count` audits the leader variables on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .core import Grouping, Instance, _pair_index, canonicalize

VARIANTS = ("equal", "unequal", "degree_only")


@dataclass(frozen=True, eq=False)
class IlpModel:
    """Column names and objective, plus row names, CSR terms and row bounds."""

    n: int
    variant: str
    variables: tuple[str, ...]
    objective: np.ndarray
    constraints: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    coefs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class PairAssignment:
    """Binary values for the pair variables and (for the unequal variant)
    the leader variables. Keys are (i, j) tuples and plain j indices."""

    x: dict[tuple[int, int], int]
    y: dict[int, int] | None = None

    def __post_init__(self):
        for (i, j), v in self.x.items():
            if not (1 <= i < j):
                raise ValueError(f"bad pair key ({i}, {j})")
            if v not in (0, 1):
                raise ValueError(f"x[{i},{j}] must be 0 or 1, got {v!r}")
        if self.y is not None:
            for j, v in self.y.items():
                if j < 2:
                    raise ValueError(f"bad leader key {j}")
                if v not in (0, 1):
                    raise ValueError(f"y[{j}] must be 0 or 1, got {v!r}")


@dataclass(frozen=True)
class CheckReport:
    objective: float
    violations: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return not self.violations


def _pairs(n: int):
    return combinations(range(1, n + 1), 2)


class _Rows:
    """Row accumulator shared by the builders.

    ``add`` appends a block of rows that share a term count, coefficients
    (1 unless given) and bounds. ``col[i, j]`` (0-based, i != j) is the
    column of the pair {i, j}.
    """

    def __init__(self, n: int):
        self.n = n
        self.npairs = n * (n - 1) // 2
        self.col = np.zeros((n, n), dtype=np.intp)
        iu, ju = _pair_index(n)
        self.col[iu, ju] = self.col[ju, iu] = np.arange(self.npairs)
        self.names: list[str] = []
        self.parts: list[tuple[np.ndarray, ...]] = []

    def add(self, names, cols, coefs=1, lo=-np.inf, hi=np.inf) -> None:
        if not names:
            return
        rows = len(names)
        cols = np.asarray(cols, dtype=np.intp).reshape(rows, -1)
        self.names += names
        self.parts.append((
            np.full(rows, cols.shape[1]),
            cols.ravel(),
            np.broadcast_to(np.asarray(coefs, dtype=np.int64), cols.shape).ravel(),
            np.full(rows, float(lo)),
            np.full(rows, float(hi)),
        ))

    def degree(self) -> np.ndarray:
        """Row i: the columns of the pairs containing element i, partners ascending."""
        return self.col[~np.eye(self.n, dtype=bool)].reshape(self.n, self.n - 1)

    def model(self, instance: Instance, variant: str) -> IlpModel:
        lens, indices, coefs, lo, hi = (np.concatenate(a) for a in zip(*self.parts))
        indptr = np.zeros(len(lens) + 1, dtype=np.intp)
        np.cumsum(lens, out=indptr[1:])
        for arr in (indptr, indices, coefs, lo, hi):
            arr.flags.writeable = False
        variables = [f"x_{i}_{j}" for i, j in _pairs(self.n)]
        if variant == "unequal":
            variables += [f"y_{j}" for j in range(2, self.n + 1)]
        return IlpModel(
            n=self.n,
            variant=variant,
            variables=tuple(variables),
            objective=instance.dist.condensed(),
            constraints=tuple(self.names),
            indptr=indptr,
            indices=indices,
            coefs=coefs,
            lo=lo,
            hi=hi,
        )


def _rows_with_triangles(n: int) -> _Rows:
    rows = _Rows(n)
    # the triples i < j < k (0-based) in lexicographic order
    less = np.less.outer(np.arange(n), np.arange(n))
    i, j, k = np.nonzero(less[:, :, None] & less)
    xij, xik, xjk = rows.col[i, j], rows.col[i, k], rows.col[j, k]
    # per triple: tri1 = x_ij + x_jk - x_ik, tri2 = x_ij + x_ik - x_jk, tri3 = x_ik + x_jk - x_ij
    cols = np.stack([xij, xjk, xik, xij, xik, xjk, xik, xjk, xij], axis=1)
    # the 1-based "_a_b_c" of each triple, from one "_a_b" per pair
    part = [f"_{e}" for e in range(n + 1)]
    suffixes = []
    for a, b in _pairs(n):
        ab = part[a] + part[b]
        suffixes += [ab + part[c] for c in range(b + 1, n + 1)]
    rows.add([r + s for s in suffixes for r in ("tri1", "tri2", "tri3")], cols, (1, 1, -1), hi=1)
    return rows


def _add_degree_bounds(rows: _Rows, a: int, b: int) -> None:
    elements = range(1, rows.n + 1)
    rows.add([f"dmin_{i}" for i in elements], rows.degree(), lo=a - 1)
    rows.add([f"dmax_{i}" for i in elements], rows.degree(), hi=b - 1)


def _equal_size(instance: Instance) -> int:
    """The group size N/G of the equal-size variant; ValueError unless G divides N."""
    n, G = instance.n, instance.G
    if n % G != 0:
        raise ValueError(
            f"equal-size formulation inapplicable: N={n} is not divisible by G={G}"
        )
    return n // G


def build_equal(instance: Instance) -> IlpModel:
    """Equal-size variant: transitivity rows plus degree(i) = N/G - 1."""
    n, size = instance.n, _equal_size(instance)
    rows = _rows_with_triangles(n)
    rows.add([f"deq_{i}" for i in range(1, n + 1)], rows.degree(), lo=size - 1, hi=size - 1)
    return rows.model(instance, "equal")


def build_degree_only(instance: Instance) -> IlpModel:
    """Degree-bounds-only variant: admits any number of groups with sizes in
    [a, b]. Kept for demonstrating why the group count must be pinned."""
    rows = _rows_with_triangles(instance.n)
    _add_degree_bounds(rows, instance.a, instance.b)
    return rows.model(instance, "degree_only")


def build_unequal(instance: Instance) -> IlpModel:
    """Full variant: degree bounds plus leader rows forcing exactly G groups.

    Per pair i < j: x_ij + y_j <= 1 (a grouped element is not a leader);
    per j >= 2: sum_{i<j} x_ij + y_j >= 1 (ungrouped-below elements lead);
    one count row: sum_j y_j = G - 1 (element 1 leads implicitly).
    """
    n, G = instance.n, instance.G
    rows = _rows_with_triangles(n)
    _add_degree_bounds(rows, instance.a, instance.b)
    P = rows.npairs  # column of y_j is P + j - 2
    _, ju = _pair_index(n)
    rows.add(
        [f"lex_{i}_{j}" for i, j in _pairs(n)],
        np.stack([np.arange(P), P + ju - 1], axis=1), hi=1,
    )
    for j in range(2, n + 1):
        rows.add([f"lforce_{j}"], np.append(rows.col[: j - 1, j - 1], P + j - 2), lo=1)
    rows.add(["lcount"], P + np.arange(n - 1), lo=G - 1, hi=G - 1)
    return rows.model(instance, "unequal")


def build_model(instance: Instance, variant: str) -> IlpModel:
    """Dispatch on the variant name."""
    if variant == "equal":
        return build_equal(instance)
    if variant == "unequal":
        return build_unequal(instance)
    if variant == "degree_only":
        return build_degree_only(instance)
    raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")


def encode_grouping(grouping: Grouping, variant: str = "unequal") -> PairAssignment:
    """Pair/leader values induced by a grouping: x_ij = 1 iff i, j share a
    group; y_j = 1 iff j >= 2 is the smallest member of its group."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    n = grouping.n
    labels = grouping.label_array()
    iu, ju = _pair_index(n)
    x = dict(zip(_pairs(n), (labels[iu] == labels[ju]).astype(int).tolist()))
    y = None
    if variant == "unequal":
        minima = {min(g) for g in grouping.groups}
        y = {j: int(j in minima) for j in range(2, n + 1)}
    return PairAssignment(x=x, y=y)


def check_assignment(model: IlpModel, asg: PairAssignment) -> CheckReport:
    """Evaluate every row in one vectorised pass; violations are row names in
    row order, not errors."""
    pairs = list(_pairs(model.n))
    if asg.x.keys() != set(pairs):
        raise ValueError("assignment pair variables do not match the model")
    leaders = range(2, 2 + len(model.variables) - len(pairs))
    if (set(asg.y) if asg.y is not None else set()) != set(leaders):
        raise ValueError("assignment leader variables do not match the model")

    values = np.array([asg.x[p] for p in pairs] + [asg.y[j] for j in leaders], dtype=np.int64)
    row_of = np.repeat(np.arange(len(model.constraints)), np.diff(model.indptr))
    lhs = np.bincount(
        row_of, weights=model.coefs * values[model.indices], minlength=len(model.constraints)
    )
    violated = np.flatnonzero((lhs < model.lo) | (lhs > model.hi))
    return CheckReport(
        objective=float(model.objective[values[: len(pairs)] == 1].sum()),
        violations=tuple(model.constraints[r] for r in violated),
    )


class TransitivityError(ValueError):
    """The pair values are not an equivalence relation."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(
            f"transitivity violated on triple {triple}: two of its pair "
            "variables are 1 while the closing pair is 0"
        )


@dataclass(frozen=True)
class DecodeReport:
    grouping: Grouping
    group_count: int
    leader_set: frozenset[int]


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the group-count audit on a decoded assignment."""

    one_leader_per_group: bool
    minima_are_leaders: bool
    group_count_matches: bool
    leader_count: int
    group_count: int
    failures: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return not self.failures


def _first_bad_triple(x: Mapping[tuple[int, int], int], n: int) -> tuple[int, int, int]:
    for i, j, k in combinations(range(1, n + 1), 3):
        e_ij, e_ik, e_jk = x[(i, j)], x[(i, k)], x[(j, k)]
        if e_ij + e_jk - e_ik > 1 or e_ij + e_ik - e_jk > 1 or e_ik + e_jk - e_ij > 1:
            return (i, j, k)
    raise AssertionError("verification failed but no violated triple found")


def decode_partition(x: Mapping[tuple[int, int], int], n: int) -> Grouping:
    """Blocks = classes of the equivalence relation {(i, j) : x_ij = 1}.

    Succeeds exactly when x satisfies all transitivity rows; otherwise raises
    :class:`TransitivityError` naming the lexicographically first bad triple.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    same = []
    for i, j in _pairs(n):
        if (i, j) not in x:
            raise ValueError(f"pair value for ({i}, {j}) is missing")
        value = x[(i, j)]
        if value not in (0, 1):
            raise ValueError(f"x[{i},{j}] must be 0 or 1")
        same.append(value == 1)
    if len(x) != len(same):
        valid = set(_pairs(n))
        stray = next(key for key in x if key not in valid)
        raise ValueError(f"pair key {stray} is not a pair i < j of 1..{n}")

    same = np.array(same, dtype=bool)
    iu, ju = _pair_index(n)
    linked = np.eye(n, dtype=bool)
    linked[iu, ju] = linked[ju, iu] = same
    # the first True of row i is the smallest member of {i} and its partners
    labels = linked.argmax(axis=1)
    if np.array_equal(labels[iu] == labels[ju], same):
        # labels are smallest members, so the groups come out canonical
        return Grouping.from_labels(labels)
    raise TransitivityError(_first_bad_triple(x, n))


def build_report(grouping: Grouping, y: Mapping[int, int] | None) -> DecodeReport:
    """Attach the leader set (y = 1 indices plus the implicit element 1)."""
    leaders = {1}
    if y is not None:
        leaders.update(j for j, v in y.items() if v == 1)
    g = canonicalize(grouping)
    return DecodeReport(
        grouping=g, group_count=g.group_count, leader_set=frozenset(leaders)
    )


def verify_group_count(
    report: DecodeReport, y: Mapping[int, int], G: int
) -> TheoremReport:
    """Audit the leader mechanism on a decoded partition.

    Checks that (i) no block holds two leaders among indices >= 2, (ii) every
    block's smallest member is a leader (element 1 is exempt), and
    (iii) the decoded group count equals G. When the leader count is G - 1
    and (i)-(ii) hold, (iii) is forced; the report records each fact. A
    variant without leader variables (``y`` is None) raises ValueError.
    """
    if y is None:
        raise ValueError("y is None: the model has no leader variables to audit")
    failures = []
    one_leader = True
    minima_leaders = True
    for members in report.grouping.groups:
        leaders_here = [j for j in members if j >= 2 and y.get(j, 0) == 1]
        if len(leaders_here) > 1:
            one_leader = False
            failures.append(
                f"group {members} holds {len(leaders_here)} leaders: {leaders_here}"
            )
        smallest = members[0]
        if smallest != 1 and y.get(smallest, 0) != 1:
            minima_leaders = False
            failures.append(f"group {members}: smallest member {smallest} has y=0")
    leader_count = sum(1 for v in y.values() if v == 1)
    count_matches = report.group_count == G
    if not count_matches:
        failures.append(f"decoded group count {report.group_count} != G={G}")
    return TheoremReport(
        one_leader_per_group=one_leader,
        minima_are_leaders=minima_leaders,
        group_count_matches=count_matches,
        leader_count=leader_count,
        group_count=report.group_count,
        failures=tuple(failures),
    )


def export_lp(model: IlpModel) -> str:
    """Serialize to LP text: Maximize / Subject To / Binaries / End.

    Variable names are ``x_<i>_<j>`` and ``y_<j>`` (1-based); pairs appear in
    lexicographic order and constraints in construction order, so exports are
    deterministic and diffable. Each constraint stays on one line.

    The text is one pass over tokens and one join. Line 0 is the objective
    and line r + 1 is row r; a line is a head token, one token per term and
    a tail token. A term token is its column's ``" x"`` when it leads a
    positive line, else ``" + x"`` or ``" - x"``; each is built once per
    column, and the objective's columns carry their coefficient. A line with
    no terms gets one more space, as ``" ".join`` of no terms would give.
    """
    # a helper, so that its working arrays are freed before the list and the text are made
    return "".join(_lp_tokens(model).tolist())


def _lp_tokens(model: IlpModel) -> np.ndarray:
    """The tokens of :func:`export_lp` in text order, as an object array."""
    names = model.variables
    obj = model.objective.tolist()
    # the objective's terms are columns len(names).. of the bodies: a
    # coefficient (repr is the shortest exact decimal) and a name
    bodies = np.array([*names, *(f"{abs(c)!r} {name}" for c, name in zip(obj, names))],
                      dtype=object)
    indptr = np.concatenate([[0], len(obj) + model.indptr])
    cols = np.concatenate([len(names) + np.arange(len(obj)), model.indices])
    neg = np.concatenate([model.objective < 0, model.coefs < 0])

    # rows share few tails: each is rendered once, keyed rhs*3 + sense
    lo, hi = model.lo, model.hi
    sense = np.where(lo == hi, 0, np.where(lo == -np.inf, 1, 2))
    keys, tail_of = np.unique(np.where(sense == 1, hi, lo).astype(np.int64) * 3 + sense,
                              return_inverse=True)
    # the objective's line ends with the next section's header, the last tail
    tails = np.array(
        [*(f" {('=', '<=', '>=')[s]} {rhs}\n" for rhs, s in (divmod(k, 3) for k in keys.tolist())),
         "\nSubject To\n"],
        dtype=object,
    )

    lines = np.arange(len(indptr) - 1)
    head_at = indptr[:-1] + 2 * lines
    tail_at = indptr[1:] + 2 * lines + 1
    tokens = np.empty(tail_at[-1] + 2, dtype=object)
    tokens[tail_at] = tails[np.append(len(keys), tail_of)]
    tokens[-1] = f"Binaries\n {' '.join(names)}\nEnd\n"
    is_term = np.ones(len(tokens), dtype=bool)
    is_term[head_at] = is_term[tail_at] = is_term[-1] = False
    # a term leads its line when a line starts at it; an empty line starts
    # where the next one does, and the extra slot takes a start at the end
    lead = np.zeros(len(cols) + 1, dtype=bool)
    lead[indptr] = True
    signed = np.concatenate([" + " + bodies, " - " + bodies, " " + bodies])
    tokens[is_term] = signed[np.where(neg, 1, 2 * lead[:-1]) * len(bodies) + cols]
    tokens[head_at] = [f"\\ {model.variant} variant, n={model.n}\nMaximize\n obj:",
                       *(f" {row}:" for row in model.constraints)]
    tokens[head_at[indptr[:-1] == indptr[1:]]] += " "
    return tokens
