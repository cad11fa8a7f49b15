"""The twin oracle: one rule for judging an answer by a fault-free twin.

Every fault harness asks one question of an answer — the crash matrix
after a recovery, the chaos soak after a kill, the topology matrix after
an aborted split, the advisor race after a retune: is it what a run that
never failed would have said?  The rule is one sentence.  A complete
answer holds exactly the twin's entries over exactly the twin's days; a
degraded one holds a subset of them and labels every day it lost, each
one a day the twin covers; nothing is fabricated.  The twin must itself
be complete.

An answer is a multiset of entries: the order a scatter-gather
concatenates shards in, or a design lays constituents out in, is not
part of it, so two topologies or two designs holding the same data
agree.  :func:`check_against_twin` judges an answer against the days the
answer *says* it covers and lost, and works on any result carrying
``entries``, ``covered_days`` and ``missing_days`` — a wave's, a
cluster coordinator's, or one read off the wire.  :func:`battery` asks a
reader the questions: every harness puts the same battery to the run
under test and to its twin, and judges the answers pairwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class Verdict:
    """``status`` is ``"ok"``, ``"degraded"`` (a labelled subset) or
    ``"wrong"``.  A wrong verdict names the broken ``rule`` and says how
    in ``detail``: ``"twin"`` (the twin was degraded), ``"differs"`` (a
    complete answer is not the twin's), ``"fabricated"`` (a degraded one
    holds an entry the twin lacks) or ``"unlabelled"`` (its covered and
    missing days are not the twin's days)."""

    status: str
    rule: str = ""
    detail: str = ""

    @property
    def wrong(self) -> bool:
        """Return whether the answer broke the rule."""
        return self.status == "wrong"


OK = Verdict("ok")
DEGRADED = Verdict("degraded")


def battery(
    reader: Any,
    probes: Sequence[tuple[Any, int, int]],
    scans: Sequence[tuple[int, int]] = (),
) -> list[Any]:
    """Return ``reader``'s answers to ``probes``, then to ``scans``, each
    list one batch; ``reader`` is a wave or a cluster coordinator, read
    with its own ``degraded`` default."""
    return [
        *reader.probe_many(probes).results,
        *reader.scan_many(scans).results,
    ]


def check_against_twin(answer: Any, twin: Any) -> Verdict:
    """Judge ``answer`` against the fault-free ``twin``'s answer to the
    same query."""
    if twin.missing_days:
        return Verdict(
            "wrong",
            "twin",
            f"the fault-free twin is degraded "
            f"(missing {sorted(twin.missing_days)})",
        )
    window = twin.covered_days
    got, want = Counter(answer.entries), Counter(twin.entries)
    if not answer.missing_days:
        if got != want or answer.covered_days != window:
            return Verdict(
                "wrong",
                "differs",
                f"complete answer differs from the twin "
                f"({sum(got.values())} vs {sum(want.values())} entries, "
                f"{len(answer.covered_days)} vs {len(window)} days)",
            )
        return OK
    fabricated = got - want
    if fabricated:
        ids = sorted({entry.record_id for entry in fabricated})[:5]
        return Verdict(
            "wrong",
            "fabricated",
            f"degraded answer fabricated record ids {ids}",
        )
    claimed = answer.covered_days | answer.missing_days
    if claimed != window:
        return Verdict(
            "wrong",
            "unlabelled",
            f"degraded answer accounts for days {sorted(claimed)}, "
            f"the twin covers {sorted(window)}",
        )
    return DEGRADED
