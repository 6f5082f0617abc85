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

Building, exporting and checking are array passes, not a loop over rows.
The triangle rows come from one index array per triple position, and their
names from one object-array broadcast; every block of rows is written once
into the CSR arrays. :func:`export_lp` makes no string per row: a line is
the row's name, term tokens built once per column and a tail rendered once
per run of rows with equal bounds, placed by index and joined once.
:func:`check_assignment` takes every row sum from one integer prefix sum.

The same module reads the format back. :func:`decode_partition` labels each
element with the smallest member of {i} together with its x = 1 partners,
which is its class's smallest member when x is transitive, and accepts
exactly when re-encoding those labels gives x back; otherwise it names the
lexicographically first triple whose transitivity row is broken.
:func:`verify_group_count` audits the leader variables on the result.
"""

from __future__ import annotations

import math
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
    """Row blocks shared by the builders.

    ``add`` records a block of rows that share coefficients (1 unless given,
    broadcast against ``cols``) and bounds. ``cols`` holds each row's
    columns on a line of its own, or, with ``lens``, back to back.
    ``col[i, j]`` (0-based, i != j) is the column of the pair {i, j}.
    """

    def __init__(self, n: int):
        self.n = n
        self.npairs = n * (n - 1) // 2
        self.col = np.zeros((n, n), dtype=np.intp)
        iu, ju = _pair_index(n)
        self.col[iu, ju] = self.col[ju, iu] = np.arange(self.npairs)
        self.names: list[str] = []
        self.blocks: list[tuple] = []

    def add(self, names, cols, coefs=1, lo=-np.inf, hi=np.inf, lens=None) -> None:
        if not names:
            return
        cols = np.asarray(cols, dtype=np.intp)
        if lens is None:
            cols = cols.reshape(len(names), -1)
            lens = cols.shape[1]
        self.names += names
        self.blocks.append((len(names), lens, cols, coefs, lo, hi))

    def degree(self) -> np.ndarray:
        """Row i: the columns of the pairs containing element i, partners ascending."""
        return self.col[~np.eye(self.n, dtype=bool)].reshape(self.n, self.n - 1)

    def model(self, instance: Instance, variant: str) -> IlpModel:
        # each block is written once, into arrays sized for all of them
        nrows, nterms = len(self.names), sum(cols.size for _, _, cols, *_ in self.blocks)
        indptr = np.zeros(nrows + 1, dtype=np.intp)
        indices, coefs = np.empty(nterms, dtype=np.intp), np.empty(nterms, dtype=np.int64)
        lo, hi = np.empty(nrows), np.empty(nrows)
        r = t = 0
        for rows, lens, cols, coefs_b, lo_b, hi_b in self.blocks:
            indptr[r + 1:r + rows + 1] = lens
            lo[r:r + rows], hi[r:r + rows] = lo_b, hi_b
            indices[t:t + cols.size].reshape(cols.shape)[...] = cols
            coefs[t:t + cols.size].reshape(cols.shape)[...] = coefs_b
            r, t = r + rows, t + cols.size
        np.cumsum(indptr, out=indptr)
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
    # the 1-based names by object-array broadcast: "tri1".."tri3", then the
    # "_a_b" of the triple's first pair, then "_c"
    iu, ju = (e.tolist() for e in _pair_index(n))
    pair_part = np.array([f"_{a + 1}_{b + 1}" for a, b in zip(iu, ju)], dtype=object)
    last_part = np.array([f"_{c + 1}" for c in range(n)], dtype=object)
    suffixes = pair_part[xij] + last_part[k]
    names = np.array(["tri1", "tri2", "tri3"], dtype=object) + suffixes[:, None]
    rows.add(names.ravel().tolist(), cols, (1, 1, -1), hi=1)
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
    # row j - 2 is lforce_j: the columns of x_1j .. x_(j-1)j, then y_j's
    lforce = rows.col[1:].copy()
    lforce[np.arange(n - 1), np.arange(1, n)] = P + np.arange(n - 1)
    rows.add([f"lforce_{j}" for j in range(2, n + 1)], lforce[np.tri(n - 1, n, 1, dtype=bool)],
             lo=1, lens=np.arange(2, n + 1))
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
    row order, not errors.

    Row sums come from one prefix sum over the terms, differenced at
    ``indptr``: in integers for integer coefficients, so exact, and 0 for a
    row with no terms.
    """
    pairs = list(_pairs(model.n))
    if asg.x.keys() != set(pairs):
        raise ValueError("assignment pair variables do not match the model")
    leaders = range(2, 2 + len(model.variables) - len(pairs))
    if (set(asg.y) if asg.y is not None else set()) != set(leaders):
        raise ValueError("assignment leader variables do not match the model")

    values = np.array([asg.x[p] for p in pairs] + [asg.y[j] for j in leaders], dtype=np.int64)
    terms = model.coefs * values[model.indices]
    sums = np.zeros(len(terms) + 1, dtype=terms.dtype)
    np.cumsum(terms, out=sums[1:])
    lhs = np.diff(sums[model.indptr])
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
    deterministic and diffable. Each constraint stays on one line. A model
    the text cannot hold raises ValueError naming its first such row: a
    coefficient other than +1 or -1, a finite bound that is not an integer,
    a ranged row (both bounds finite and unequal) or a free row.

    The text is one join over existing strings, placed by index. Line 0 is
    the objective and line r + 1 is row r: its name, its terms and a tail.
    The first term token opens with the ``:`` (``": x"``, ``": - x"``), the
    others are ``" + x"`` or ``" - x"``, built once per column; the
    objective's carry their coefficient. A tail (``" <= 1\\n "``) ends with the
    next line's leading space, which the last line's drops; a line with no
    terms has ``": "`` on its tail. Tails are rendered once per run of rows
    with equal bounds and emptiness.
    """
    # a helper, so that its working arrays are freed before the list and the text are made
    return "".join(_lp_tokens(model).tolist())


def _tail(name: str, lo: float, hi: float) -> str:
    """Row ``name``'s `` <sense> <rhs>``; ValueError if the LP text cannot hold its bounds."""
    sense, rhs = ("=", lo) if lo == hi else ("<=", hi) if lo == -math.inf else (">=", lo)
    if lo == -math.inf and hi == math.inf:
        reason = "it is free: both bounds are infinite"
    elif not float(rhs).is_integer():
        reason = f"bound {rhs!r} is not an integer"
    elif sense == ">=" and hi != math.inf:
        reason = f"it is ranged: {lo!r} <= row <= {hi!r}"
    else:
        return f" {sense} {int(rhs)}"
    raise ValueError(f"cannot write row {name} as LP text: {reason}")


def _lp_tokens(model: IlpModel) -> np.ndarray:
    """The tokens of :func:`export_lp` in text order, as an object array."""
    names, rows = model.variables, model.constraints
    indptr, lo, hi = model.indptr, model.lo, model.hi
    bad_terms = np.flatnonzero((model.coefs != 1) & (model.coefs != -1))
    bad_row = len(rows)
    if len(bad_terms):
        bad_row = int(np.searchsorted(indptr, bad_terms[0], side="right")) - 1

    # one tail per run of rows with equal bounds and emptiness; the rows of a
    # run share its first row's bounds, so checking run starts checks them all
    empty = indptr[1:] == indptr[:-1]
    run = np.ones(len(rows), dtype=np.intp)
    run[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]) | (empty[1:] != empty[:-1])
    tails = [f"{': ' if empty[r] else ''}{_tail(rows[r], lo[r].item(), hi[r].item())}\n "
             for r in np.flatnonzero(run).tolist() if r <= bad_row]
    if bad_row < len(rows):
        raise ValueError(f"cannot write row {rows[bad_row]} as LP text: coefficient "
                         f"{model.coefs[bad_terms[0]].item()!r} is not +1 or -1")

    # a term's token is picked by sign and by whether it leads its line from
    # " + x", ": x", " - x" and ": - x" of its column's body; the objective's
    # bodies carry their coefficient (repr is the shortest exact decimal)
    obj = model.objective.tolist()
    bodies = np.array([*names, *(f"{abs(c)!r} {name}" for c, name in zip(obj, names))],
                      dtype=object)
    nb = len(bodies)
    obj_terms = len(names) + np.arange(len(obj)) + 2 * nb * (model.objective < 0)
    obj_terms[:1] += nb
    terms = (model.coefs < 0) * (2 * nb)
    terms += model.indices
    terms[indptr[:-1][~empty]] += nb

    # the pool: the term tokens, four fixed tokens, the run tails and the row
    # names; the last row's tail drops the space no line follows
    fixed = [f"\\ {model.variant} variant, n={model.n}\nMaximize\n obj",
             f"{'' if obj else ': '}\nSubject To\n{' ' if rows else ''}",
             f"Binaries\n {' '.join(names)}\nEnd\n",
             tails[-1][:-1] if tails else ""]
    pool = np.concatenate([" + " + bodies, ": " + bodies, " - " + bodies, ": - " + bodies,
                           np.array(fixed + tails, dtype=object),
                           np.fromiter(rows, dtype=object, count=len(rows))])
    obj_head, obj_tail, closing, last_tail = range(4 * nb, 4 * nb + 4)

    # the objective's line, each row's name, terms and tail, the closing section
    start = len(obj) + 2
    at = np.empty(start + len(terms) + 2 * len(rows) + 1, dtype=np.intp)
    at[0], at[1:start - 1], at[start - 1], at[-1] = obj_head, obj_terms, obj_tail, closing
    head_at = indptr[:-1] + np.arange(start, start + 2 * len(rows), 2)
    tail_at = indptr[1:] + np.arange(start + 1, start + 2 * len(rows) + 1, 2)
    is_term = np.ones(len(at), dtype=bool)
    is_term[:start] = is_term[head_at] = is_term[tail_at] = is_term[-1] = False
    at[is_term] = terms
    # working arrays go before the gather, the export's largest allocation
    del terms, is_term
    at[head_at] = np.arange(len(pool) - len(rows), len(pool))
    at[tail_at] = np.cumsum(run) + last_tail
    at[tail_at[-1:]] = last_tail
    del head_at, tail_at, run
    return pool[at]
