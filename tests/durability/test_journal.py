"""Unit tests for the write-ahead journal (repro.durability.journal)."""

import os
import pathlib

import pytest

from repro.durability import journal as journal_mod
from repro.durability.journal import (
    JOURNAL_MAGIC,
    Journal,
    coerce_journal,
    journal_counters,
    read_journal,
)
from repro.errors import JournalError


@pytest.fixture
def path(tmp_path):
    return tmp_path / "state" / "alloc.journal"


class TestRoundTrip:
    def test_new_journal_writes_header(self, path):
        with Journal(path) as journal:
            assert journal.recovery.created
            assert len(journal) == 0
        assert path.read_bytes() == (JOURNAL_MAGIC + "\n").encode()

    def test_append_and_reopen(self, path):
        records = [
            {"type": "start", "key": "a"},
            {"type": "done", "key": "a", "value": [1, 2, 3]},
            {"type": "done", "key": "b", "nested": {"x": None, "y": True}},
        ]
        with Journal(path) as journal:
            for i, record in enumerate(records):
                assert journal.append(record) == i
        with Journal(path) as journal:
            assert not journal.recovery.created
            assert not journal.recovery.torn
            assert journal.records() == records

    def test_unicode_payload_round_trips(self, path):
        record = {"type": "note", "text": "naïve — spill ∅ \n\t \"quoted\""}
        with Journal(path) as journal:
            journal.append(record)
        assert read_journal(path)[0] == [record]

    def test_records_are_copies(self, path):
        with Journal(path) as journal:
            journal.append({"type": "x", "n": 1})
            journal.records()[0]["n"] = 99
            assert journal.records()[0]["n"] == 1

    def test_append_after_close_raises(self, path):
        journal = Journal(path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append({"type": "x"})

    def test_unserializable_record_raises_and_leaves_file_valid(self, path):
        with Journal(path) as journal:
            journal.append({"type": "ok"})
            with pytest.raises(JournalError):
                journal.append({"type": "bad", "obj": object()})
            journal.append({"type": "ok2"})
        records, recovery = read_journal(path)
        assert [r["type"] for r in records] == ["ok", "ok2"]
        assert not recovery.torn

    def test_reset_drops_everything(self, path):
        with Journal(path) as journal:
            journal.append({"type": "x"})
            journal.reset()
            assert len(journal) == 0
            journal.append({"type": "y"})
        assert [r["type"] for r in read_journal(path)[0]] == ["y"]

    def test_deterministic_encoding(self, path):
        # Same logical record -> same bytes regardless of key order.
        a = journal_mod._encode_record({"b": 1, "a": 2})
        b = journal_mod._encode_record({"a": 2, "b": 1})
        assert a == b


class TestRecovery:
    def _write(self, path, records):
        with Journal(path) as journal:
            for record in records:
                journal.append(record)
        return path.read_bytes()

    def test_torn_tail_truncated(self, path):
        raw = self._write(path, [{"n": i} for i in range(3)])
        path.write_bytes(raw + b"R deadbeef partial")
        with Journal(path) as journal:
            assert journal.recovery.torn
            assert [r["n"] for r in journal.records()] == [0, 1, 2]
        # Repair is persistent: next open is clean.
        with Journal(path) as journal:
            assert not journal.recovery.torn

    def test_half_written_record_truncated(self, path):
        raw = self._write(path, [{"n": i} for i in range(3)])
        # Simulate death mid-write of record 2: drop the last 5 bytes.
        path.write_bytes(raw[:-5])
        records, recovery = read_journal(path)
        assert [r["n"] for r in records] == [0, 1]
        assert recovery.torn

    def test_explicit_tear_helper_recovers(self, path):
        with Journal(path) as journal:
            journal.append({"n": 0})
            journal.tear()
        with Journal(path) as journal:
            assert journal.recovery.torn
            assert [r["n"] for r in journal.records()] == [0]

    def test_bitflip_in_payload_detected(self, path):
        raw = bytearray(self._write(path, [{"n": 0}, {"n": 1}]))
        # Flip a bit inside the second record's payload (near the end).
        raw[-3] ^= 0x40
        path.write_bytes(bytes(raw))
        records, recovery = read_journal(path)
        assert [r["n"] for r in records] == [0]
        assert recovery.torn
        assert recovery.reason

    def test_bitflip_in_checksum_detected(self, path):
        raw = self._write(path, [{"n": 0}])
        # The checksum hex starts right after the header line and "R ".
        start = len(JOURNAL_MAGIC) + 1 + 2
        digit_swap = bytearray(raw)
        digit_swap[start] = ord("0") if raw[start] != ord("0") else ord("1")
        # Flipping a hex letter's case bit still names the same digest,
        # but the writer only emits lowercase, so it is damage too.
        letter = next(i for i in range(start, start + 64)
                      if raw[i] in b"abcdef")
        case_flip = bytearray(raw)
        case_flip[letter] ^= 0x20
        for mutated in (digit_swap, case_flip):
            path.write_bytes(bytes(mutated))
            records, recovery = read_journal(path)
            assert records == []
            assert recovery.torn

    def test_wrong_magic_rejected_entirely(self, path):
        self._write(path, [{"n": 0}])
        raw = path.read_bytes().replace(b"/1", b"/9", 1)
        path.write_bytes(raw)
        records, recovery = read_journal(path)
        assert records == []
        assert recovery.valid_bytes == 0
        assert "header" in recovery.reason
        # Opening for append resets to a fresh valid journal.
        with Journal(path) as journal:
            assert len(journal) == 0
            journal.append({"n": 7})
        assert [r["n"] for r in read_journal(path)[0]] == [7]

    def test_append_after_torn_recovery(self, path):
        raw = self._write(path, [{"n": 0}, {"n": 1}])
        path.write_bytes(raw[:-4])
        with Journal(path) as journal:
            journal.append({"n": 2})
        assert [r["n"] for r in read_journal(path)[0]] == [0, 2]

    def test_missing_file_read_only(self, path):
        records, recovery = read_journal(path)
        assert records == [] and recovery.created
        assert not path.exists()  # read_journal never creates


class TestHooksAndCounters:
    def test_on_append_hook_fires(self, path):
        seen = []
        with Journal(path) as journal:
            journal.on_append = seen.append
            journal.append({"n": 0})
            journal.append({"n": 1})
        assert seen == [0, 1]

    def test_counters_track_appends_and_recoveries(self, path):
        journal_mod.reset_journal_counters()
        with Journal(path) as journal:
            journal.append({"n": 0})
            journal.append({"n": 1})
        with Journal(path):
            pass
        counters = journal_counters()
        assert counters["appends"] == 2
        assert counters["recoveries"] == 1
        assert counters["records_recovered"] == 2
        journal_mod.mark_replay(3)
        assert journal_counters()["replays"] == counters["replays"] + 3

    def test_coerce_journal(self, path, tmp_path):
        assert coerce_journal(None) is None
        journal = Journal(path)
        assert coerce_journal(journal) is journal
        journal.close()
        opened = coerce_journal(str(path))
        try:
            assert isinstance(opened, Journal)
        finally:
            opened.close()
        with pytest.raises(JournalError):
            coerce_journal(42)
