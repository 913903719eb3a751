"""Append-only, fsync-on-append write-ahead log for votes.

The online loop's durability contract is *log before apply*: a vote is
appended (and fsynced) to the WAL before it enters the optimizer's
pending buffer, so once ``submit()`` returns, a crash at any later
point cannot lose it — recovery replays the log tail onto the newest
snapshot and reproduces the pre-crash state deterministically.

File format: one JSON record per line, ::

    {"seq": 42, "vote": {"query": ..., "ranked_answers": [...],
                         "best_answer": ..., "weight": 1.0}}

``seq`` is a strictly increasing sequence number assigned at append
time; snapshots record the last sequence they cover, and rotation
drops every record at or below that mark.

Torn-write tolerance: a crash can leave a *partial final line* (the
append was cut mid-write, which also means it never fsynced and the
vote was never acknowledged).  On open, such a tail is truncated away
and counted on ``wal_torn_records_total``.  A final line that *is*
newline-terminated but fails to parse is also dropped — usually the
crash landed inside a buffered flush — but because a terminated record
may instead be an fsynced (acknowledged) vote whose bytes rotted
later, that case is additionally logged as a warning so the operator
can tell the two apart.  A malformed record anywhere *before* the
tail means real corruption and raises
:class:`~repro.errors.PersistenceError` instead of guessing.

The sequence counter is in-memory state seeded at open time.  A WAL
that was rotated empty carries no record of the sequences it already
handed out, so :class:`~repro.persistence.store.DurableStore` re-seeds
the counter from its newest snapshot via :meth:`VoteWAL.ensure_seq_at_least`
— without that, a restart after a draining checkpoint would reuse
sequence numbers at or below the snapshot's and recovery would filter
the new votes out as already applied.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import PersistenceError
from repro.utils.sync import mutator
from repro.graph.persistence import fsync_directory
from repro.obs import MetricsRegistry, get_registry, observe
from repro.votes.types import Vote

__all__ = ["WalRecord", "VoteWAL", "vote_to_payload", "vote_from_payload"]

logger = logging.getLogger(__name__)

#: JSON-native scalar types a vote's node ids may use.  Anything else
#: (tuples, custom objects) would not survive the JSON round trip
#: losslessly, so the WAL rejects it up front.
_SCALAR_TYPES = (str, int, float, bool)


def _check_scalar(value: object, what: str) -> None:
    if not isinstance(value, _SCALAR_TYPES):
        raise PersistenceError(
            f"{what} {value!r} is not JSON-serializable; WAL votes must "
            f"use str/int/float node ids"
        )


def vote_to_payload(vote: Vote) -> dict:
    """A vote as a JSON-serializable mapping (lossless for scalar ids)."""
    _check_scalar(vote.query, "vote query")
    for answer in vote.ranked_answers:
        _check_scalar(answer, "vote answer")
    return {
        "query": vote.query,
        "ranked_answers": list(vote.ranked_answers),
        "best_answer": vote.best_answer,
        "weight": vote.weight,
    }


def vote_from_payload(payload: dict) -> Vote:
    """Rebuild a :class:`~repro.votes.types.Vote` from its WAL payload."""
    try:
        return Vote(
            query=payload["query"],
            ranked_answers=tuple(payload["ranked_answers"]),
            best_answer=payload["best_answer"],
            weight=float(payload.get("weight", 1.0)),
        )
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed WAL vote payload: {payload!r}") from exc


@dataclass(frozen=True)
class WalRecord:
    """One durable vote: its sequence number and the vote itself.

    ``links`` optionally captures the voted query's out-link mapping
    (``((entity, weight), ...)``) at submit time.  Both ingest paths
    record it so recovery can re-attach tail-vote queries to the graph
    before replaying them — a vote logged just before a crash may
    reference a query node no snapshot ever saw, or one re-linked since
    the snapshot.  Old logs without it parse fine.
    """

    seq: int
    vote: Vote
    links: "tuple[tuple, ...] | None" = None


def _record_payload(record: WalRecord) -> dict:
    """A record as the JSON payload written to the log."""
    payload: dict = {
        "seq": record.seq,
        "vote": vote_to_payload(record.vote),
    }
    if record.links is not None:
        payload["links"] = [
            [entity, weight] for entity, weight in record.links
        ]
    return payload


def _record_line(record: WalRecord) -> bytes:
    return (
        json.dumps(
            _record_payload(record), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        + b"\n"
    )


def _parse_record(line: bytes, *, path: Path, line_no: int) -> WalRecord:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"{path}:{line_no}: corrupt WAL record (not valid JSON)"
        ) from exc
    if not isinstance(payload, dict) or "seq" not in payload or "vote" not in payload:
        raise PersistenceError(
            f"{path}:{line_no}: corrupt WAL record (missing seq/vote)"
        )
    seq = payload["seq"]
    if not isinstance(seq, int) or seq < 1:
        raise PersistenceError(
            f"{path}:{line_no}: corrupt WAL record (bad sequence {seq!r})"
        )
    links = payload.get("links")
    parsed_links: "tuple[tuple, ...] | None" = None
    if links is not None:
        try:
            parsed_links = tuple(
                (entity, float(weight)) for entity, weight in links
            )
        except (TypeError, ValueError) as exc:
            raise PersistenceError(
                f"{path}:{line_no}: corrupt WAL record (bad links)"
            ) from exc
    return WalRecord(
        seq=seq,
        vote=vote_from_payload(payload["vote"]),
        links=parsed_links,
    )


def _scan(path: Path) -> tuple[list[WalRecord], int, int]:
    """Parse a WAL file: ``(records, valid_byte_length, torn_records)``.

    The *last* line is allowed to be torn (missing newline or unparsable)
    — it is dropped and counted.  Any earlier parse failure raises.
    """
    raw = path.read_bytes()
    records: list[WalRecord] = []
    valid_end = 0
    offset = 0
    line_no = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        line_no += 1
        if newline == -1:
            # No terminator: the final append was cut mid-write.
            return records, valid_end, 1
        line = raw[offset:newline]
        try:
            record = _parse_record(line, path=path, line_no=line_no)
        except PersistenceError as exc:
            if newline == len(raw) - 1:
                # Terminated but unparsable final line: treated as a torn
                # tail (e.g. the crash landed inside a buffered flush) —
                # but unlike the missing-newline case this record *may*
                # have been fsynced and acknowledged before rotting, so
                # say so out loud instead of only bumping a counter.
                logger.warning(
                    "%s: discarding newline-terminated but unparsable final "
                    "WAL record (%s); if this record was ever acknowledged, "
                    "one vote has been lost to corruption",
                    path,
                    exc,
                )
                return records, valid_end, 1
            raise
        if records and record.seq <= records[-1].seq:
            raise PersistenceError(
                f"{path}:{line_no}: WAL sequence went backwards "
                f"({records[-1].seq} -> {record.seq})"
            )
        records.append(record)
        valid_end = newline + 1
        offset = newline + 1
    return records, valid_end, 0


class VoteWAL:
    """The vote write-ahead log over one JSONL file.

    Parameters
    ----------
    path:
        The log file; created (with parents) when missing.  Opening an
        existing file replays it into memory, truncates a torn tail,
        and resumes the sequence counter after the last valid record.
    registry:
        Metrics registry for the ``wal_*`` series (defaults to the
        process-wide one).
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # Serializes the ingest thread's append against the optimizer
        # worker's rotate: both touch the file handle, the in-memory
        # record mirror, and the sequence counter.
        self._wal_lock = threading.Lock()
        self.registry = registry if registry is not None else get_registry()
        self._m_appends = self.registry.counter("wal_appends_total")
        self._m_rotations = self.registry.counter("wal_rotations_total")
        self._m_torn = self.registry.counter("wal_torn_records_total")
        self._g_last_seq = self.registry.gauge("wal_last_seq")
        self._h_append = self.registry.histogram("wal_append_seconds")

        if self._path.exists():
            self._records, valid_end, torn = _scan(self._path)
            if torn:
                self._m_torn.inc(torn)
                with open(self._path, "r+b") as handle:
                    handle.truncate(valid_end)
                    os.fsync(handle.fileno())
        else:
            self._records = []
        self._file = open(self._path, "ab")
        fsync_directory(self._path.parent)
        self._last_seq = self._records[-1].seq if self._records else 0
        self._g_last_seq.set(self._last_seq)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The underlying log file."""
        return self._path

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    def records(self, *, after_seq: int = 0) -> list[WalRecord]:
        """Durable records with ``seq > after_seq``, in log order."""
        return [r for r in self._records if r.seq > after_seq]

    def ensure_seq_at_least(self, seq: int) -> None:
        """Advance the sequence counter to at least ``seq``.

        The counter only lives in the log's records, so a rotation that
        drains the WAL forgets every sequence already handed out; on
        reopen the owner must bump the counter past the newest
        snapshot's ``last_applied_seq``, or fresh appends would reuse
        acknowledged sequence numbers and recovery would silently
        filter them out as already applied.  Never rewinds.
        """
        if seq < 0:
            raise PersistenceError(f"sequence floor must be ≥ 0, got {seq}")
        with self._wal_lock:
            if seq > self._last_seq:
                self._last_seq = seq
                self._g_last_seq.set(seq)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # the durability-critical operations
    # ------------------------------------------------------------------
    @mutator
    def append(
        self,
        vote: Vote,
        *,
        links: "tuple[tuple, ...] | None" = None,
    ) -> int:
        """Durably log one vote; returns its sequence number.

        The record is written, flushed, and **fsynced** before this
        method returns — once the caller sees the sequence number, no
        crash can lose the vote.  ``links`` optionally records the
        voted query's out-link mapping so recovery can re-attach the
        query before replaying (the concurrent ingest path's
        log-before-enqueue contract).
        """
        if links is not None:
            for entity, _weight in links:
                _check_scalar(entity, "vote query link entity")
        with observe("wal.append", self._h_append) as op:
            with self._wal_lock:
                if self._file.closed:
                    raise PersistenceError(f"{self._path}: WAL is closed")
                seq = self._last_seq + 1
                record = WalRecord(seq=seq, vote=vote, links=links)
                self._file.write(_record_line(record))
                self._file.flush()
                os.fsync(self._file.fileno())
                self._records.append(record)
                self._last_seq = seq
            self._m_appends.inc()
            self._g_last_seq.set(seq)
            op.set(seq=seq)
        return seq

    def rotate(self, *, up_to_seq: int) -> int:
        """Drop every record with ``seq <= up_to_seq``; returns kept count.

        Called after a snapshot covering ``up_to_seq`` is durable: the
        dropped records are fully reflected in the snapshot and replay
        must not see them again.  The survivors are rewritten to a
        temporary file that atomically replaces the log, so a crash
        mid-rotation leaves either the full old log (harmless: recovery
        filters ``seq <= snapshot``) or the complete trimmed one.
        Holds the WAL lock throughout — a concurrent append lands
        either in the old file before the swap or in the new one after,
        never in the replaced orphan.
        """
        with self._wal_lock:
            survivors = [r for r in self._records if r.seq > up_to_seq]
            if len(survivors) == len(self._records):
                return len(survivors)
            tmp = self._path.with_name(self._path.name + ".tmp")
            with open(tmp, "wb") as handle:
                for record in survivors:
                    handle.write(_record_line(record))
                handle.flush()
                os.fsync(handle.fileno())
            self._file.close()
            os.replace(tmp, self._path)
            fsync_directory(self._path.parent)
            self._file = open(self._path, "ab")
            self._records = survivors
            # The sequence counter never rewinds: new appends continue
            # strictly after every sequence ever handed out.
        self._m_rotations.inc()
        return len(survivors)

    def close(self) -> None:
        """Close the underlying file handle (records stay on disk)."""
        with self._wal_lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "VoteWAL":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VoteWAL path={str(self._path)!r} records={len(self._records)} "
            f"last_seq={self._last_seq}>"
        )
