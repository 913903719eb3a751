"""The durable feedback store: one WAL plus one snapshot directory.

:class:`DurableStore` is what the online loop actually talks to.  The
protocol (enforced by :class:`~repro.optimize.online.OnlineOptimizer`
in durable mode) is:

1. **log before apply** — every vote is :meth:`log_vote`\\ d (fsynced)
   *before* it enters the pending buffer;
2. **snapshot after flush** — after a batch is solved and applied,
   :meth:`checkpoint` atomically snapshots the graph stamped with the
   batch's last sequence, then rotates the WAL past it;
3. **recover = newest snapshot + WAL tail** — :meth:`recover` loads
   the newest valid snapshot and returns the WAL records past its
   sequence, which the optimizer replays through the *same* batching
   policy and solvers to reproduce the pre-crash weights bit for bit.

Crash windows and why each is safe:

- after ``log_vote``, before the batch fires: the vote is in the WAL
  tail, replay re-buffers it;
- during a flush (solve applied in memory, checkpoint not yet durable):
  the snapshot still predates the batch and the WAL still contains it,
  so replay re-runs the identical deterministic solve;
- during ``checkpoint`` itself: the snapshot rename is atomic, and a
  WAL left un-rotated only holds records ``<= snapshot seq`` that
  recovery filters out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from repro.graph.augmented import AugmentedGraph
from repro.obs import MetricsRegistry, get_registry, observe
from repro.obs.recorder import active_recorder
from repro.persistence.snapshot import SnapshotStore
from repro.persistence.wal import VoteWAL, WalRecord
from repro.votes.types import Vote

__all__ = ["DurableStore", "RecoveredState"]

#: File name of the vote WAL inside a store directory.
WAL_FILENAME = "votes.wal"


@dataclass(frozen=True)
class RecoveredState:
    """What :meth:`DurableStore.recover` found on disk.

    Attributes
    ----------
    aug:
        The graph from the newest valid snapshot, or ``None`` when no
        snapshot exists yet (the caller supplies the bootstrap graph).
    snapshot_seq:
        The WAL sequence the snapshot covers (0 without a snapshot).
    tail:
        WAL records past ``snapshot_seq``, in log order — the votes
        whose effects the snapshot does not yet include.
    """

    aug: "AugmentedGraph | None"
    snapshot_seq: int
    tail: tuple[WalRecord, ...] = field(default_factory=tuple)


class DurableStore:
    """A WAL + snapshot pair rooted in one directory.

    Parameters
    ----------
    directory:
        Store root; the WAL lives at ``<directory>/votes.wal`` and
        snapshots at ``<directory>/snapshot-*.json``.
    keep_snapshots:
        Retention bound forwarded to :class:`SnapshotStore`.
    registry:
        Metrics registry for the ``wal_*``/``snapshot_*`` series.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        keep_snapshots: int = 2,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else get_registry()
        self.wal = VoteWAL(self._directory / WAL_FILENAME, registry=self.registry)
        self.snapshots = SnapshotStore(self._directory, registry=self.registry)
        # The WAL's sequence counter lives only in its records, so a
        # checkpoint that rotated the log empty forgets every sequence
        # already handed out; seed it past the newest snapshot or the
        # next append would reuse an acknowledged sequence and recovery
        # would filter the new vote out as already applied.
        self.wal.ensure_seq_at_least(self.snapshots.newest_seq())
        self._m_replayed = self.registry.counter("wal_replayed_total")
        self._m_recoveries = self.registry.counter("snapshot_recoveries_total")
        self._h_recover = self.registry.histogram("snapshot_recover_seconds")
        self._g_wal_lag = self.registry.gauge("wal_lag_records")
        self._g_snapshot_age = self.registry.gauge("snapshot_age_seconds")
        self._refresh_staleness()

    def _refresh_staleness(self) -> None:
        """Update the two staleness gauges a recovery-time estimate needs.

        ``wal_lag_records`` is the sequence distance between the WAL tail
        and the newest snapshot — the number of votes a recovery would
        replay (appends assign contiguous sequences, so distance equals
        record count in the normal regime).  ``snapshot_age_seconds`` is
        the newest snapshot file's write-time age (wall clock via
        ``datetime`` — monotonic time cannot be compared to an mtime).
        """
        snapshot_seq = self.snapshots.newest_seq()
        self._g_wal_lag.set(max(0, self.wal.last_seq - snapshot_seq))
        newest = self.snapshots.newest_path()
        if newest is not None:
            try:
                mtime = newest.stat().st_mtime
            except OSError:
                return
            age = datetime.now().timestamp() - mtime
            self._g_snapshot_age.set(max(0.0, age))

    @property
    def directory(self) -> Path:
        """The store's root directory."""
        return self._directory

    def log_vote(
        self,
        vote: Vote,
        *,
        links: "tuple[tuple, ...] | None" = None,
    ) -> int:
        """Durably append one vote; returns its WAL sequence number.

        ``links`` optionally records the voted query's out-link mapping
        with the record (see :class:`~repro.persistence.wal.WalRecord`)
        so recovery can re-attach queries a snapshot never saw.
        """
        seq = self.wal.append(vote, links=links)
        self._g_wal_lag.set(max(0, seq - self.snapshots.newest_seq()))
        return seq

    def checkpoint(self, aug: AugmentedGraph, last_applied_seq: int) -> Path:
        """Snapshot ``aug`` as covering ``last_applied_seq``, trim the WAL.

        The snapshot becomes durable (atomic rename) *before* any WAL
        record is dropped, so there is no ordering in which a vote is
        neither in a snapshot nor in the log.
        """
        path = self.snapshots.write(aug, last_applied_seq=last_applied_seq)
        self.wal.rotate(up_to_seq=last_applied_seq)
        self._refresh_staleness()
        rec = active_recorder()
        if rec is not None:
            rec.record(
                "wal.checkpoint",
                last_applied_seq=last_applied_seq,
                wal_records_kept=len(self.wal),
            )
        return path

    def recover(self) -> RecoveredState:
        """Load the newest valid snapshot and the WAL tail past it."""
        with observe("snapshot.recover", self._h_recover) as op:
            latest = self.snapshots.latest()
            if latest is None:
                aug: "AugmentedGraph | None" = None
                snapshot_seq = 0
            else:
                aug, snapshot_seq = latest
            tail = tuple(self.wal.records(after_seq=snapshot_seq))
            self._m_recoveries.inc()
            if tail:
                self._m_replayed.inc(len(tail))
            op.set(
                snapshot_seq=snapshot_seq,
                tail_records=len(tail),
                has_snapshot=aug is not None,
            )
        self._refresh_staleness()
        return RecoveredState(aug=aug, snapshot_seq=snapshot_seq, tail=tail)

    def close(self) -> None:
        """Release the WAL file handle."""
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DurableStore dir={str(self._directory)!r} "
            f"wal_last_seq={self.wal.last_seq}>"
        )
