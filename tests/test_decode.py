from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdgp import (
    Grouping,
    TransitivityError,
    build_report,
    build_unequal,
    canonicalize,
    check_assignment,
    decode_partition,
    encode_grouping,
    iter_set_partitions,
    validate_grouping,
    verify_group_count,
)
from conftest import random_instance


def _all_zero(n):
    return {(i, j): 0 for i, j in combinations(range(1, n + 1), 2)}


def test_all_zero_decodes_to_singletons():
    g = decode_partition(_all_zero(5), 5)
    assert g.groups == ((1,), (2,), (3,), (4,), (5,))


def test_disjoint_edges_decode():
    x = _all_zero(6)
    x[(1, 5)] = x[(2, 4)] = x[(3, 6)] = 1
    assert decode_partition(x, 6).groups == ((1, 5), (2, 4), (3, 6))


def test_transitivity_violation_names_triple():
    x = {(1, 2): 1, (1, 3): 1, (2, 3): 0}
    with pytest.raises(TransitivityError) as exc:
        decode_partition(x, 3)
    assert exc.value.triple == (1, 2, 3)


def test_violation_reports_lexicographically_first_triple():
    x = _all_zero(5)
    # violated triples are (2, 3, 4) and (2, 3, 5); the first wins
    x[(2, 3)] = x[(2, 4)] = x[(3, 5)] = 1
    with pytest.raises(TransitivityError) as exc:
        decode_partition(x, 5)
    assert exc.value.triple == (2, 3, 4)


def test_decode_requires_full_pair_coverage():
    with pytest.raises(ValueError, match="missing"):
        decode_partition({(1, 2): 1}, 3)


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    relabel: dict[int, int] = {}
    groups: list[list[int]] = []
    for e, lab in enumerate(raw, 1):
        if lab not in relabel:
            relabel[lab] = len(groups)
            groups.append([])
        groups[relabel[lab]].append(e)
    return Grouping(groups)


@settings(max_examples=100, deadline=None)
@given(partitions())
def test_roundtrip_property(grouping):
    asg = encode_grouping(grouping, "unequal")
    assert decode_partition(asg.x, grouping.n) == canonicalize(grouping)


def test_roundtrip_exhaustive_small():
    for n in range(1, 7):
        for g in iter_set_partitions(n):
            asg = encode_grouping(g, "unequal")
            assert decode_partition(asg.x, n) == canonicalize(g)


def _violated_triples(x, n):
    """Test-only: every triple (i < j < k) whose transitivity rows fail, in
    lexicographic order."""
    return [
        (i, j, k)
        for i, j, k in combinations(range(1, n + 1), 3)
        if x[(i, j)] + x[(j, k)] - x[(i, k)] > 1
        or x[(i, j)] + x[(i, k)] - x[(j, k)] > 1
        or x[(i, k)] + x[(j, k)] - x[(i, j)] > 1
    ]


def test_decode_accepts_exactly_the_transitive_assignments():
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for values in product((0, 1), repeat=len(pairs)):
            x = dict(zip(pairs, values))
            bad = _violated_triples(x, n)
            if not bad:
                grouping = decode_partition(x, n)
                assert grouping == canonicalize(grouping)
                assert encode_grouping(grouping).x == x
            else:
                with pytest.raises(TransitivityError) as exc:
                    decode_partition(x, n)
                assert exc.value.triple == bad[0]


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_flipped_same_group_pair_names_first_violated_triple(grouping):
    # the bench's reject case beyond the exhaustive N <= 5: the
    # lexicographically smallest same-group pair set to 0; in a group of two
    # that leaves a transitive x, so the pair's group must have a third member
    group = min((g for g in grouping.groups if len(g) > 1), key=lambda g: g[:2], default=())
    assume(len(group) >= 3)
    n = grouping.n
    x = {**encode_grouping(grouping).x, group[:2]: 0}
    with pytest.raises(TransitivityError) as exc:
        decode_partition(x, n)
    assert exc.value.triple == _violated_triples(x, n)[0]


# ---------------------------------------------------------------------------
# group-count audit
# ---------------------------------------------------------------------------

def test_audit_worked_optimum():
    g = Grouping([(1, 5), (2, 4), (3, 6)])
    asg = encode_grouping(g, "unequal")
    report = build_report(decode_partition(asg.x, 6), asg.y)
    assert report.group_count == 3
    assert report.leader_set == frozenset({1, 2, 3})
    audit = verify_group_count(report, asg.y, G=3)
    assert audit.all_hold
    assert audit.leader_count == 2


def test_audit_two_leaders_in_one_block():
    n = 4
    g = Grouping([tuple(range(1, n + 1))])
    asg = encode_grouping(g, "unequal")
    y = {j: 1 for j in range(2, n + 1)}  # everyone claims leadership
    report = build_report(decode_partition(asg.x, n), y)
    audit = verify_group_count(report, y, G=1)
    assert not audit.one_leader_per_group
    assert audit.failures


def test_audit_group_count_mismatch():
    # a feasible two-group encoding audited against G=3: the leaders are
    # sound, only the count fails
    g = Grouping([(1, 3, 6), (2, 4, 5)])
    asg = encode_grouping(g, "unequal")
    report = build_report(decode_partition(asg.x, 6), asg.y)
    audit = verify_group_count(report, asg.y, G=3)
    assert audit.one_leader_per_group and audit.minima_are_leaders
    assert not audit.group_count_matches
    assert audit.failures == ("decoded group count 2 != G=3",)
    assert not audit.all_hold


def test_audit_block_minimum_without_leader():
    g = Grouping([(1, 2), (3, 4)])
    asg = encode_grouping(g, "unequal")
    y = {j: 0 for j in range(2, 5)}  # nobody leads; block {3,4} has no cover
    report = build_report(decode_partition(asg.x, 4), y)
    audit = verify_group_count(report, y, G=2)
    assert audit.one_leader_per_group
    assert not audit.minima_are_leaders
    assert any("smallest member 3" in f for f in audit.failures)


def test_accepted_assignments_decode_feasibly():
    # any assignment the full model accepts decodes to a feasible partition
    # with exactly G groups
    inst = random_instance(11, 6, 3, 2, 3)
    m = build_unequal(inst)
    for g in iter_set_partitions(6):
        asg = encode_grouping(g, "unequal")
        if check_assignment(m, asg).satisfied:
            decoded = decode_partition(asg.x, 6)
            assert validate_grouping(decoded, inst).feasible
            report = build_report(decoded, asg.y)
            assert report.group_count == inst.G
            assert verify_group_count(report, asg.y, inst.G).all_hold
