"""Every library input error that no other test reaches: its exception type
and its message, one row of a table each."""

import re

import pytest

from mdgp import (
    METRICS,
    AttributeTable,
    DistanceMatrix,
    Grouping,
    Instance,
    PairAssignment,
    SearchState,
    build_model,
    build_report,
    decode_partition,
    distance_matrix,
    encode_grouping,
    iter_set_partitions,
    validate_grouping,
    verify_group_count,
)
from mdgp.model import VARIANTS
from mdgp.rng import SplitMix64

from conftest import random_instance

GROUPING = Grouping([(1, 2), (3, 4)])
INST = random_instance(0, 4, 2, 2, 2)

CASES = {
    # core
    "empty schema": (lambda: AttributeTable([(1.0,)], []), ValueError,
                     "schema must have at least one attribute"),
    "no rows": (lambda: AttributeTable([], ["num"]), ValueError,
                "table must have at least one row"),
    "unknown kind": (lambda: AttributeTable([(1.0,)], ["ord"]), ValueError,
                     "unknown attribute kind 'ord'"),
    "ragged row": (lambda: AttributeTable([(1.0, 2.0), (1.0,)], ["num", "num"]), ValueError,
                   "row 2 has 1 values, schema has 2"),
    "non-numeric num": (lambda: AttributeTable([(1.0,), ("x",)], ["num"]), ValueError,
                        "row 2: 'x' is not numeric"),
    "n < 1": (lambda: DistanceMatrix(0, []), ValueError, "element count must be >= 1"),
    "non-square": (lambda: DistanceMatrix.from_square([[0.0, 1.0]]), ValueError,
                   "expected a square matrix"),
    "nonzero diagonal": (lambda: DistanceMatrix.from_square([[1.0, 2.0], [2.0, 0.0]]), ValueError,
                         "diagonal must be zero"),
    "lookup out of range": (lambda: INST.dist.lookup(0, 5), IndexError,
                            "element index out of range: (0, 5)"),
    "G < 1": (lambda: Instance(INST.dist, 0, 1, 4), ValueError, "G must be >= 1"),
    "non-integer index": (lambda: Grouping([(1, 2.0)]), ValueError,
                          "element indices must be integers, got 2.0"),
    "no elements": (lambda: Grouping([]), ValueError,
                    "grouping must contain at least one element"),
    "unknown metric": (lambda: distance_matrix(AttributeTable([(1.0,), (2.0,)], ["num"]), "cosine"),
                       ValueError, f"unknown metric 'cosine'; choose from {METRICS}"),
    "wrong element count": (lambda: validate_grouping(Grouping([(1, 2)]), INST), ValueError,
                            "grouping covers 2 elements, instance has 4"),
    # model
    "bad pair key": (lambda: PairAssignment({(2, 1): 0}), ValueError, "bad pair key (2, 1)"),
    "bad x value": (lambda: PairAssignment({(1, 2): 2}), ValueError, "x[1,2] must be 0 or 1, got 2"),
    "bad leader key": (lambda: PairAssignment({(1, 2): 1}, {1: 1}), ValueError, "bad leader key 1"),
    "bad y value": (lambda: PairAssignment({(1, 2): 1}, {2: 0.5}), ValueError,
                    "y[2] must be 0 or 1, got 0.5"),
    "build_model variant": (lambda: build_model(INST, "pairs"), ValueError,
                            f"unknown variant 'pairs'; choose from {VARIANTS}"),
    "encode_grouping variant": (lambda: encode_grouping(GROUPING, "pairs"), ValueError,
                                f"unknown variant 'pairs'; choose from {VARIANTS}"),
    # decode
    "decode n < 1": (lambda: decode_partition({}, 0), ValueError, "n must be >= 1"),
    "decode x value": (lambda: decode_partition({(1, 2): 2}, 2), ValueError, "x[1,2] must be 0 or 1"),
    "decode stray pair key": (
        lambda: decode_partition({(1, 2): 1, (1, 3): 0, (2, 3): 0, (3, 4): 1, (9, 7): 1}, 3),
        ValueError, "pair key (3, 4) is not a pair i < j of 1..3"),
    "audit without leaders": (
        lambda: verify_group_count(build_report(GROUPING, None),
                                   encode_grouping(GROUPING, "equal").y, 2),
        ValueError, "y is None: the model has no leader variables to audit"),
    # rng
    "randrange(0)": (lambda: SplitMix64(1).randrange(0), ValueError, "randrange needs n >= 1"),
    "oversized sample": (lambda: SplitMix64(1).sample([1, 2], 3), ValueError,
                         "sample larger than population"),
    # solver
    "too many labels": (lambda: SearchState(INST, (1, 1, 2, 2, 1)), ValueError,
                        "more labels than elements"),
    "no set partitions of 0": (lambda: next(iter_set_partitions(0)), ValueError, "n must be >= 1"),
}


@pytest.mark.parametrize("call, kind, message", CASES.values(), ids=CASES.keys())
def test_input_errors(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_distance_matrix_equality():
    square = [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    dist = DistanceMatrix.from_square(square)
    assert dist == DistanceMatrix(3, [1.0, 2.0, 3.0])
    assert dist != DistanceMatrix(3, [1.0, 2.0, 4.0])
    assert dist != DistanceMatrix(2, [1.0])
    # another type is not equal, and not an error
    assert dist != square
    assert dist.__eq__(square) is NotImplemented
