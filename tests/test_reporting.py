"""The one verdict rule of the sampled audits, checked by hand.

verdict(name, lhs, rhs, row) judges lhs <= rhs row by row: the slack is
rhs - lhs, a row violates unless its slack is >= 0, and a failure's witness is
the worst row with both of its sides.
"""
import math

import numpy as np

from levypme.reporting import ConditionResult, merged, verdict


def test_verdict_worst_row_count_and_witness():
    # slacks 1, -0.5, 0, -1.5: two rows violate, row 3 is the worst
    cond = verdict("demo", np.array([1.0, 2.0, 3.0, 0.5]), np.array([2.0, 1.5, 3.0, -1.0]))
    assert cond == ConditionResult("demo", 4, -1.5, 2, "sample 3: lhs=0.5 rhs=-1.0", 3.0)
    assert not cond.passed


def test_verdict_pass_has_no_witness():
    # a zero slack is no violation
    cond = verdict("demo", np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert cond == ConditionResult("demo", 2, 0.0, 0, None, 1.0)
    assert cond.passed


def test_verdict_broadcasts_a_scalar_side():
    # rhs 1 against lhs 0.25, 1.5, 0.75: slacks 0.75, -0.5, 0.25
    cond = verdict("demo", np.array([0.25, 1.5, 0.75]), 1.0, "pair {}".format)
    assert cond == ConditionResult("demo", 3, -0.5, 1, "pair 1: lhs=1.5 rhs=1.0", 1.5)
    # lhs 0 against rhs -2, 3: slacks -2, 3
    cond = verdict("demo", 0.0, np.array([-2.0, 3.0]))
    assert cond == ConditionResult("demo", 2, -2.0, 1, "sample 0: lhs=0.0 rhs=-2.0", 0.0)


def test_verdict_infinite_slack_passes():
    cond = verdict("demo", np.array([-np.inf, 0.0]), np.array([0.0, np.inf]))
    assert cond.passed and cond.violation_count == 0 and cond.witness is None
    assert cond.min_slack == math.inf
    assert cond.max_lhs == 0.0


def test_verdict_nan_slack_fails():
    # a NaN side gives a NaN slack, which is not >= 0: that row violates, and
    # the worst slack reads NaN
    cond = verdict("demo", np.array([0.0, np.nan, -1.0]), np.array([1.0, 1.0, 0.0]))
    assert not cond.passed and cond.violation_count == 1
    assert math.isnan(cond.min_slack)
    assert cond.witness == "sample 1: lhs=nan rhs=1.0"
    assert math.isnan(cond.max_lhs)


def test_verdict_row_names_and_two_dimensional_sides():
    # a 2-D pair is judged in row-major order: slacks 1, 0, -1, 1, worst at 2,
    # and a callable names that row
    lhs = np.array([[1.0, 2.0], [3.0, 4.0]])
    rhs = np.array([[2.0, 2.0], [2.0, 5.0]])
    cond = verdict("demo", lhs, rhs, lambda i: f"cell {divmod(i, 2)}")
    assert cond == ConditionResult("demo", 4, -1.0, 1, "cell (1, 0): lhs=3.0 rhs=2.0", 4.0)
    # numpy scalars print as plain floats
    assert "np.float64" not in cond.witness


def test_merged_block_verdicts_are_the_verdict_of_all_rows():
    # each split of these rows into consecutive blocks, each block judged
    # alone and naming its rows by their place in the whole, merges into the
    # verdict on all rows at once: the first NaN, else the first of the tied
    # worst slacks, with the counts summed, and the largest lhs, NaN when a
    # later block's lhs is NaN though an earlier block's is larger
    zeros = np.zeros(6)
    rows = {
        "ties": (zeros, np.array([3.0, -1.0, 2.0, -1.0, 0.0, -1.0])),
        "nan": (zeros, np.array([3.0, -1.0, np.nan, -5.0, np.nan, 0.0])),
        "pass": (zeros, np.array([0.0, 2.0, 0.0, np.inf, 1.0, 0.5])),
        "nan lhs": (np.array([4.0, 1.0, 0.0, 2.0, np.nan, 1.0]),
                    np.array([5.0, 1.0, 1.0, 1.0, 0.0, 2.0])),
    }
    for lhs, rhs in rows.values():
        whole = verdict("demo", lhs, rhs)
        for cuts in ([], [3], [1, 4], [2, 3, 5], [1, 2, 3, 4, 5]):
            bounds = list(zip([0, *cuts], [*cuts, rhs.size]))
            blocks = [verdict("demo", lhs[a:b], rhs[a:b], lambda i, a=a: f"sample {a + i}")
                      for a, b in bounds]
            assert repr(merged(blocks)) == repr(whole)
