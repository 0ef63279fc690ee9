"""Pickle-round-trip audit of the payloads real runs send.

The tests at the bottom are the ones the lint bench repeats: the pinned
corpus must put every message type on the wire, and every observed
payload must survive a pickle round-trip.
"""

import pickle
import typing

from repro.verify.boundary_audit import (
    AuditReport,
    PayloadRecorder,
    RoundTripFailure,
    audit_corpus,
    audit_entry,
)
from repro.runtime.messages import Message
from repro.verify.corpus import PINNED_CORPUS


class _Opaque:
    """Deliberately unpicklable: holds a lambda."""

    def __init__(self):
        self.fn = lambda: None

    def __reduce__(self):
        raise pickle.PicklingError("opaque by construction")


class TestPayloadRecorder:
    def test_records_every_routed_message_in_order(self):
        recorder = PayloadRecorder()
        recorder.on_message(0, 1, 2, "first")
        recorder.on_message(0, 2, 1, "second")
        recorder.on_cycle_end(0, {})
        assert recorder.payloads == ["first", "second"]


class TestAuditReport:
    def test_ok_flips_on_any_failure(self):
        report = AuditReport()
        assert report.ok
        report.failures.append(RoundTripFailure("e", "T", "boom"))
        assert not report.ok


class TestAuditEntry:
    def test_single_entry_observes_traffic(self):
        report = audit_entry(PINNED_CORPUS[0])
        assert report.entries_run == 1
        assert report.payloads_sent > 0
        assert report.observed_types
        assert report.ok

    def test_unpicklable_payload_is_reported(self):
        # Drive the round-trip path directly with a hostile payload.
        from repro.verify.boundary_audit import _round_trip

        failure = _round_trip("synthetic", _Opaque())
        assert failure is not None
        assert failure.entry == "synthetic"
        assert failure.message_type == "_Opaque"
        assert "PicklingError" in failure.error


class TestCorpusCrossValidation:
    """The CI gate: every payload type on the wire, every one pickles."""

    def test_corpus_sends_every_message_type(self):
        report = audit_corpus()
        assert report.entries_run == len(PINNED_CORPUS)
        assert report.payloads_sent > 0
        declared = {kind.__name__ for kind in typing.get_args(Message)}
        assert report.observed_types == declared

    def test_every_observed_payload_round_trips(self):
        report = audit_corpus()
        assert report.ok, [
            (f.entry, f.message_type, f.error) for f in report.failures
        ]
