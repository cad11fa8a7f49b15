"""The twin oracle: one rule for every fault harness.

A complete answer holds exactly the twin's entries over exactly the
twin's days; a degraded one holds a subset and labels every day it lost,
each one a day the twin covers; nothing is fabricated; the twin itself
is complete.  Order is not part of an answer.
"""

import pytest

from repro.core.oracle import check_against_twin
from repro.core.queries import ProbeResult, ScanResult
from repro.index.entry import Entry

DAYS = frozenset({3, 4, 5})
A, B, C = Entry(1, 3), Entry(2, 4, "x"), Entry(3, 5)


def scan(entries, covered=DAYS, missing=frozenset()):
    return ScanResult(tuple(entries), 0.0, 1, frozenset(covered), frozenset(missing))


TWIN = scan([A, B, C])


def test_the_same_entries_in_any_order_are_ok():
    verdict = check_against_twin(scan([C, A, B]), TWIN)
    assert verdict.status == "ok" and not verdict.wrong


def test_probe_and_scan_results_are_judged_alike():
    probe = ProbeResult((B, A, C), 1.0, 2, DAYS)
    assert check_against_twin(probe, TWIN).status == "ok"


@pytest.mark.parametrize(
    "answer",
    [
        scan([A, B]),  # an entry missing
        scan([A, B, C, C]),  # an entry twice
        scan([A, Entry(2, 4, "y"), C]),  # the same record, other info
        scan([A, B, C], covered={3, 4}),  # a day not covered
    ],
    ids=["short", "duplicate", "info", "days"],
)
def test_a_complete_answer_that_differs_is_wrong(answer):
    verdict = check_against_twin(answer, TWIN)
    assert verdict.wrong and verdict.rule == "differs"


def test_a_labelled_subset_is_degraded_not_wrong():
    verdict = check_against_twin(scan([A], covered={3}, missing={4, 5}), TWIN)
    assert verdict.status == "degraded" and not verdict.wrong


def test_a_degraded_answer_may_not_fabricate():
    answer = scan([A, Entry(9, 4)], covered={3}, missing={4, 5})
    verdict = check_against_twin(answer, TWIN)
    assert verdict.rule == "fabricated" and "9" in verdict.detail


@pytest.mark.parametrize(
    "covered, missing",
    [({3}, {4}), ({3}, {4, 5, 6})],
    ids=["a-day-dropped-silently", "a-day-the-twin-lacks"],
)
def test_a_degraded_answer_labels_exactly_the_twins_days(covered, missing):
    verdict = check_against_twin(scan([A], covered, missing), TWIN)
    assert verdict.rule == "unlabelled"


def test_a_degraded_twin_judges_nothing():
    twin = scan([A], covered={3}, missing={4, 5})
    verdict = check_against_twin(scan([A, B, C]), twin)
    assert verdict.rule == "twin"
