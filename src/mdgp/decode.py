"""Reconstruct partitions from pair variables and audit the group count.

A pair-variable assignment that satisfies the transitivity rows describes an
equivalence relation. Decoding labels each element with the smallest member
of {i} together with its x = 1 partners, which is its class's smallest
member when x is transitive, and accepts exactly when re-encoding those
labels gives x back. Failures are reported as the first triple (by
lexicographic order) whose transitivity row is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .core import Grouping, _pair_index, canonicalize


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
    for i, j in combinations(range(1, n + 1), 2):
        if (i, j) not in x:
            raise ValueError(f"pair value for ({i}, {j}) is missing")
        value = x[(i, j)]
        if value not in (0, 1):
            raise ValueError(f"x[{i},{j}] must be 0 or 1")
        same.append(value == 1)

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
