"""Reconstruct partitions from pair variables and audit the group count.

A pair-variable assignment that satisfies the transitivity rows describes an
equivalence relation; its classes are recovered here as the connected
components of the x = 1 graph. A verification pass then confirms the
components really are cliques, and failures are reported as the first triple
(by lexicographic order) whose transitivity row is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .core import Grouping, canonicalize


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
        return (
            self.one_leader_per_group
            and self.minima_are_leaders
            and self.group_count_matches
        )


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _first_bad_triple(x: Mapping[tuple[int, int], int], n: int) -> tuple[int, int, int]:
    for i, j, k in combinations(range(1, n + 1), 3):
        e_ij, e_ik, e_jk = x[(i, j)], x[(i, k)], x[(j, k)]
        if e_ij + e_jk - e_ik > 1 or e_ij + e_ik - e_jk > 1 or e_ik + e_jk - e_ij > 1:
            return (i, j, k)
    raise AssertionError("verification failed but no violated triple found")


def decode_partition(x: Mapping[tuple[int, int], int], n: int) -> Grouping:
    """Blocks = connected components of the graph {(i, j) : x_ij = 1}.

    Succeeds exactly when x satisfies all transitivity rows; otherwise raises
    :class:`TransitivityError` naming the lexicographically first bad triple.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for i, j in combinations(range(1, n + 1), 2):
        if (i, j) not in x:
            raise ValueError(f"pair value for ({i}, {j}) is missing")
        if x[(i, j)] not in (0, 1):
            raise ValueError(f"x[{i},{j}] must be 0 or 1")

    dsu = _DisjointSet(n)
    for i, j in combinations(range(1, n + 1), 2):
        if x[(i, j)] == 1:
            dsu.union(i, j)

    # a root is its component's smallest element, so the groups come out
    # ordered by smallest member
    grouping = Grouping.from_labels([dsu.find(e) for e in range(1, n + 1)])

    # components must be cliques, else the assignment was not transitive
    for members in grouping.groups:
        for i, j in combinations(members, 2):
            if x[(i, j)] != 1:
                raise TransitivityError(_first_bad_triple(x, n))
    return grouping


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
    and (i)-(ii) hold, (iii) is forced; the report records each fact.
    """
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
