"""The staged-change journal and the leaves shared with replica rebuild.

The pipeline itself (abort before the swap, roll-forward after it, every
kind) is exercised against a live cluster in
``tests/cluster/test_staged_matrix.py``.
"""

import pytest

from repro.core.staged import (
    CHANGE_JOURNAL_VERSION,
    ChangeJournal,
    ChangePhase,
    abort_reason,
)
from repro.errors import (
    DeviceFailure,
    OutOfSpaceError,
    RecoveryError,
    SimulatedCrash,
    TransientIOError,
)

_RESHARD = {
    "source_shards": [1],
    "partitioner_before": {"kind": "range", "splits": [200, 400]},
    "partitioner_after": {"kind": "range", "splits": [200, 300, 400]},
}
SUBJECTS = {
    "split": {**_RESHARD, "split_key": "300"},
    "merge": {**_RESHARD, "source_shards": [1, 2]},
    "retune": {
        "shard_id": 0,
        "replica_id": 1,
        "scheme_before": "DEL/6/simple_shadow",
        "scheme_after": "REINDEX+/3/simple_shadow",
        "technique_after": "simple_shadow",
    },
}
KINDS = sorted(SUBJECTS)


def journal_of(kind: str) -> ChangeJournal:
    return ChangeJournal(kind, day=9, subject=dict(SUBJECTS[kind]))


@pytest.mark.parametrize("kind", KINDS)
class TestChangeJournal:
    def test_roundtrips_through_json(self, kind):
        journal = journal_of(kind)
        journal.advance(ChangePhase.COPYING)
        journal.units_done = 2
        journal.target_devices = [4, 5]
        journal.catchup.append({"day": 9, "completed": 3})
        restored = ChangeJournal.from_json(journal.to_json())
        assert restored == journal
        assert restored.to_dict()["version"] == CHANGE_JOURNAL_VERSION

    def test_swap_is_the_commit_point(self, kind):
        journal = journal_of(kind)
        assert not journal.committed and not journal.terminal
        for phase in ChangePhase.ORDER[1:]:
            journal.advance(phase)
            swapped = phase in (ChangePhase.SWAPPED, ChangePhase.DONE)
            assert journal.committed is swapped
            assert journal.terminal is (phase == ChangePhase.DONE)

    def test_phases_are_forward_only(self, kind):
        journal = journal_of(kind)
        journal.advance(ChangePhase.CATCHUP)
        for stale in (ChangePhase.COPYING, ChangePhase.CATCHUP, "nope"):
            with pytest.raises(RecoveryError):
                journal.advance(stale)
        assert journal.phase == ChangePhase.CATCHUP

    @pytest.mark.parametrize("reached", ChangePhase.ORDER[:-1])
    def test_abort_from_any_live_phase(self, kind, reached):
        journal = journal_of(kind)
        if reached != ChangePhase.PLANNED:
            journal.advance(reached)
        journal.advance(ChangePhase.ABORTED)
        assert journal.terminal
        assert not journal.committed
        for phase in (ChangePhase.DONE, ChangePhase.ABORTED):
            with pytest.raises(RecoveryError):
                journal.advance(phase)

    def test_done_is_terminal(self, kind):
        journal = journal_of(kind)
        journal.advance(ChangePhase.DONE)
        with pytest.raises(RecoveryError):
            journal.advance(ChangePhase.ABORTED)

    def test_unknown_version_is_rejected(self, kind):
        payload = journal_of(kind).to_dict()
        payload["version"] = 999
        with pytest.raises(RecoveryError, match="version"):
            ChangeJournal.from_dict(payload)

    def test_unknown_phase_is_rejected(self, kind):
        # The journal is read back from outside the process: a phase the
        # table does not know must not load as "uncommitted, not terminal"
        # and blow up in the next advance().
        with pytest.raises(RecoveryError, match="phase"):
            ChangeJournal(kind, 9, dict(SUBJECTS[kind]), phase="nope")
        payload = journal_of(kind).to_dict()
        payload["phase"] = "nope"
        with pytest.raises(RecoveryError, match="phase"):
            ChangeJournal.from_dict(payload)

    def test_missing_subject_key_is_rejected(self, kind):
        for key in SUBJECTS[kind]:
            subject = dict(SUBJECTS[kind])
            del subject[key]
            with pytest.raises(RecoveryError, match=key):
                ChangeJournal(kind, 9, subject)
            payload = journal_of(kind).to_dict()
            payload["subject"] = subject
            with pytest.raises(RecoveryError, match=key):
                ChangeJournal.from_dict(payload)

    def test_missing_field_is_rejected(self, kind):
        payload = journal_of(kind).to_dict()
        del payload["subject"]
        with pytest.raises(RecoveryError, match="subject"):
            ChangeJournal.from_dict(payload)


class TestJournalKinds:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(RecoveryError, match="kind"):
            ChangeJournal("rebuild", 9, {})
        payload = journal_of("retune").to_dict()
        payload["kind"] = "rebuild"
        with pytest.raises(RecoveryError, match="kind"):
            ChangeJournal.from_dict(payload)

    def test_subjects_are_checked_against_their_own_kind(self):
        with pytest.raises(RecoveryError, match="shard_id"):
            ChangeJournal("retune", 9, dict(SUBJECTS["merge"]))


class TestAbortReason:
    @pytest.mark.parametrize(
        "exc, reason",
        [
            (SimulatedCrash("x"), "crash"),
            (OutOfSpaceError("x"), "space"),
            (DeviceFailure("x"), "device-failure"),
            (TransientIOError("x"), "flaky"),
        ],
    )
    def test_every_fault_has_one_reason(self, exc, reason):
        assert abort_reason(exc) == reason

    def test_a_non_fault_propagates_loudly(self):
        with pytest.raises(KeyError):
            abort_reason(KeyError("bookkeeping bug"))
