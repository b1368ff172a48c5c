"""Append-only, per-record-checksummed write-ahead journal.

The disk cache (:mod:`repro.regalloc.diskcache`) protects *finished*
results; this module protects *progress*.  A long-running sweep appends
one record per unit of completed work, and a process that dies — crash,
OOM kill, SIGKILL, power loss — resumes from exactly the records that
made it to disk, never from a half-written one.

Format (``repro-journal/1``)::

    repro-journal/1\\n                       # header, first line
    R <sha256(payload)> <len(payload)> <payload>\\n
    R ...

One record per line.  The payload is compact JSON with sorted keys (so
identical records are identical bytes); JSON escapes every newline, so
the line framing is unambiguous.  The checksum and explicit byte length
are declared *before* the payload on the same line, which makes every
form of damage detectable:

* a **torn tail** (the process died mid-``write``) fails the length or
  framing check;
* a **bit flip** anywhere in the payload fails the sha256;
* a flip inside the header fields fails hex/int parsing or the magic
  check;
* a **wrong version** fails the magic check, so an old process never
  misreads a new journal.

Recovery policy is **longest valid prefix**: on open, records are
validated in order and the file is truncated at the first invalid byte
(the diskcache tmp+rename pattern — the repaired file is rewritten to a
temp name and ``os.replace``\\d into place, so even the *repair* cannot
tear).  Damage can only ever cost the records at and after the damage
point — re-executed work — never a wrong replay; the property test in
``tests/properties/test_journal_properties.py`` drives random
append/truncate/bitflip sequences against exactly this contract.

Appends are flushed and (by default) fsynced before :meth:`Journal.append`
returns, so a record the caller saw acknowledged survives anything short
of media failure.  ``sync=False`` trades that guarantee for speed where
the caller only needs crash *consistency*, not durability.

The module keeps process-global counters (:func:`journal_counters`) that
the observability layer folds into the metrics ``pool`` section, and an
**append hook** used by the kill-torture harness
(:mod:`repro.durability.torture`) to SIGKILL the process at a seeded
append — optionally *mid-record*, leaving a torn tail for the next
incarnation to recover.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.errors import JournalError

__all__ = [
    "JOURNAL_MAGIC",
    "Journal",
    "JournalRecovery",
    "read_journal",
    "journal_counters",
    "reset_journal_counters",
    "arm_kill_switch",
    "disarm_kill_switch",
]

#: First line of every journal file; bump on any format change.
JOURNAL_MAGIC = "repro-journal/1"

_HEADER = (JOURNAL_MAGIC + "\n").encode("ascii")

#: Process-global counters surfaced in the metrics ``pool`` section.
_COUNTERS = {
    "appends": 0,        # records written by this process
    "replays": 0,        # records replayed instead of recomputed
    "recoveries": 0,     # journals opened with existing records
    "records_recovered": 0,
    "records_dropped": 0,  # torn/corrupt tail records truncated on open
}


# The torture harness's seeded death point: SIGKILL this process at its
# N-th journal append, optionally writing a torn half-record first.
_KILL_SWITCH = {"after": None, "torn": False, "count": 0}


def arm_kill_switch(after: int, torn: bool = False) -> None:
    """Arm a process-global kill switch: the ``after``-th
    :meth:`Journal.append` in this process (1-based, across all journal
    instances) completes durably, then the process SIGKILLs itself —
    with ``torn`` it first flushes half of one more record, so the
    survivor faces a genuinely torn tail.  Counting appends (rather
    than wall clock) makes death points deterministic, and arming
    strictly ascending points across incarnations guarantees forward
    progress: each life completes at least one more append than the
    last."""
    _KILL_SWITCH["after"] = int(after)
    _KILL_SWITCH["torn"] = bool(torn)
    _KILL_SWITCH["count"] = 0


def disarm_kill_switch() -> None:
    _KILL_SWITCH["after"] = None
    _KILL_SWITCH["count"] = 0


def journal_counters() -> dict:
    """A snapshot of the process-global journal counters (all zero when
    no journal was ever touched)."""
    return dict(_COUNTERS)


def reset_journal_counters() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0


class JournalRecovery:
    """What opening a journal found on disk."""

    __slots__ = ("records", "valid_bytes", "dropped_bytes", "reason",
                 "created")

    def __init__(self, records, valid_bytes, dropped_bytes, reason,
                 created=False):
        #: decoded payload dicts of the longest valid prefix, in order.
        self.records = records
        self.valid_bytes = valid_bytes
        #: bytes truncated from the tail (0 on a clean open).
        self.dropped_bytes = dropped_bytes
        #: why the tail was dropped ("" on a clean open).
        self.reason = reason
        #: True when the file did not exist (or was empty) and a fresh
        #: header was written.
        self.created = created

    @property
    def torn(self) -> bool:
        return self.dropped_bytes > 0

    def __repr__(self) -> str:
        state = "created" if self.created else (
            f"torn, dropped {self.dropped_bytes}B" if self.torn else "clean"
        )
        return f"JournalRecovery({len(self.records)} records, {state})"


def _encode_record(payload: dict) -> bytes:
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise JournalError(
            f"journal record is not JSON-serializable: {error}"
        ) from error
    data = text.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    return b"R " + digest.encode("ascii") + b" " + \
        str(len(data)).encode("ascii") + b" " + data + b"\n"


def _scan(raw: bytes):
    """Validate ``raw`` as header + records; returns ``(records,
    valid_bytes, reason)`` where ``valid_bytes`` is the byte length of
    the longest valid prefix and ``reason`` explains the first damage
    (empty string when the whole file is valid)."""
    if not raw.startswith(_HEADER):
        head = raw.split(b"\n", 1)[0][:64]
        return [], 0, f"bad header {head!r} (expected {JOURNAL_MAGIC!r})"
    records = []
    offset = len(_HEADER)
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return records, offset, "torn tail: record without newline"
        line = raw[offset:newline]
        payload = _validate_line(line)
        if payload is None:
            return records, offset, (
                f"invalid record at byte {offset} "
                f"({line[:48]!r}...)" if len(line) > 48
                else f"invalid record at byte {offset} ({line!r})"
            )
        records.append(payload)
        offset = newline + 1
    return records, offset, ""


def _validate_line(line: bytes):
    """Decode one record line, or ``None`` on any damage."""
    if not line.startswith(b"R "):
        return None
    rest = line[2:]
    space = rest.find(b" ")
    if space != 64:  # sha256 hex is exactly 64 bytes
        return None
    digest = rest[:64]
    rest = rest[65:]
    space = rest.find(b" ")
    if space < 1:
        return None
    length_field, data = rest[:space], rest[space + 1:]
    try:
        length = int(length_field)
    except ValueError:
        return None
    if length < 0 or len(data) != length:
        return None
    # Exact bytes: the writer emits lowercase hex, so a flipped case bit
    # in a hex letter is damage even though it names the same digest.
    if hashlib.sha256(data).hexdigest().encode("ascii") != digest:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        # Unreachable in practice (the checksum only matches bytes we
        # wrote, and we only write valid JSON) but damage must never
        # become an exception on the recovery path.
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def read_journal(path) -> tuple:
    """Read-only scan: ``(records, recovery)`` for the journal at
    ``path`` without repairing the file or opening it for append.  A
    missing file is an empty journal."""
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], JournalRecovery([], 0, 0, "", created=True)
    records, valid_bytes, reason = _scan(raw)
    recovery = JournalRecovery(
        records, valid_bytes, len(raw) - valid_bytes, reason
    )
    return records, recovery


class Journal:
    """One open journal file: recovered on open, append-only after.

    ``sync=True`` (the default) fsyncs every append; ``sync=False``
    still flushes to the OS, surviving process death but not host death.
    Usable as a context manager.  ``on_append`` (when set) is called
    with the just-written record's index after every append — the
    torture harness's kill switch hangs there.
    """

    def __init__(self, path, sync: bool = True):
        self.path = pathlib.Path(path)
        self.sync = sync
        self.on_append = None
        self._file = None
        self.appended = 0
        self.recovery = self._recover()
        self._records = list(self.recovery.records)
        self._open_for_append()

    # -- recovery ------------------------------------------------------

    def _recover(self) -> JournalRecovery:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
        if not raw:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(_HEADER)
            return JournalRecovery([], len(_HEADER), 0, "", created=True)
        records, valid_bytes, reason = _scan(raw)
        dropped = len(raw) - valid_bytes
        if dropped:
            # Truncate to the longest valid prefix via tmp+rename: a
            # death during the repair leaves either the damaged original
            # (repaired again next open) or the repaired file — never a
            # new kind of damage.
            self._atomic_write(_HEADER + b"".join(
                _encode_record(record) for record in records
            ))
            _COUNTERS["records_dropped"] += 1
        if records:
            _COUNTERS["recoveries"] += 1
            _COUNTERS["records_recovered"] += len(records)
        return JournalRecovery(records, valid_bytes, dropped, reason)

    def _atomic_write(self, data: bytes) -> None:
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, self.path)

    def _open_for_append(self) -> None:
        self._file = open(self.path, "ab")

    # -- write side ----------------------------------------------------

    def append(self, record: dict) -> int:
        """Durably append one record; returns its index.  The record is
        on disk (flushed, and fsynced under ``sync=True``) before this
        returns."""
        if self._file is None:
            raise JournalError(f"journal {self.path} is closed")
        encoded = _encode_record(dict(record))
        self._file.write(encoded)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())
        self._records.append(dict(record))
        self.appended += 1
        _COUNTERS["appends"] += 1
        if _KILL_SWITCH["after"] is not None:
            _KILL_SWITCH["count"] += 1
            if _KILL_SWITCH["count"] >= _KILL_SWITCH["after"]:
                if _KILL_SWITCH["torn"]:
                    self.tear()
                os.kill(os.getpid(), 9)  # SIGKILL — no cleanup, by design
        if self.on_append is not None:
            self.on_append(len(self._records) - 1)
        return len(self._records) - 1

    def tear(self, fraction: float = 0.5) -> None:
        """Deliberately write a torn half-record (no trailing newline)
        and flush it — the torture harness calls this immediately before
        SIGKILLing the process, so recovery paths face realistic
        mid-write death, not just clean record boundaries."""
        if self._file is None:
            return
        encoded = _encode_record({"type": "torn", "note": "mid-write death"})
        cut = max(3, int(len(encoded) * fraction))
        self._file.write(encoded[:cut])
        self._file.flush()

    def reset(self) -> None:
        """Drop every record: rewrite the file to a bare header (atomic)
        and continue appending from empty."""
        if self._file is not None:
            self._file.close()
        self._atomic_write(_HEADER)
        self._records = []
        self._open_for_append()

    # -- read side -----------------------------------------------------

    def records(self) -> list:
        """Every live record (recovered prefix + this session's
        appends), in order.  Copies, so callers cannot corrupt the
        journal's view."""
        return [dict(record) for record in self._records]

    def __len__(self) -> int:
        return len(self._records)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.flush()
                if self.sync:
                    os.fsync(self._file.fileno())
            except (OSError, ValueError):
                pass
            self._file.close()
            self._file = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._file is None else "open"
        return f"Journal({self.path}, {len(self._records)} records, {state})"


def coerce_journal(journal, sync: bool = True):
    """``Journal`` instances pass through; paths are opened.  ``None``
    stays ``None``."""
    if journal is None or isinstance(journal, Journal):
        return journal
    if isinstance(journal, (str, os.PathLike)):
        return Journal(journal, sync=sync)
    raise JournalError(
        f"journal must be a path or Journal, got {type(journal).__name__}"
    )


def mark_replay(count: int = 1) -> None:
    """Count ``count`` records replayed instead of recomputed (the
    checkpoint layer calls this; the observability layer reads it)."""
    _COUNTERS["replays"] += count
