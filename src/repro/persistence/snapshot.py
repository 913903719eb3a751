"""Periodic snapshots of the augmented graph, keyed by WAL sequence.

A snapshot is one atomically written augmented-graph JSON file (via
:func:`~repro.graph.persistence.save_augmented_graph`) whose ``meta``
mapping records ``last_applied_seq`` — the newest WAL sequence whose
vote is fully reflected in the stored weights.  Recovery loads the
newest *valid* snapshot and replays only the WAL records past that
mark; snapshots that fail to parse (e.g. a stray partial file from a
pre-atomic-write era, or bit rot) are skipped with a counter rather
than wedging recovery on the newest file.

File naming: ``snapshot-<seq:016d>.json`` inside the store directory,
so lexicographic order is recovery order and the directory doubles as
a human-readable history.  ``keep`` bounds how many old snapshots
survive each write.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import GraphError, PersistenceError
from repro.graph.augmented import AugmentedGraph
from repro.graph.persistence import (
    load_augmented_graph,
    read_augmented_graph_meta,
    save_augmented_graph,
)
from repro.obs import MetricsRegistry, get_registry, observe

__all__ = ["SnapshotStore"]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{16})\.json$")


class SnapshotStore:
    """Atomic, sequence-stamped snapshots of one augmented graph.

    Parameters
    ----------
    directory:
        Where snapshots live; created (with parents) when missing.
    keep:
        How many snapshots to retain after each :meth:`write` (the
        newest ones).  At least 1.
    registry:
        Metrics registry for the ``snapshot_*`` series.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        keep: int = 2,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if keep < 1:
            raise PersistenceError(f"keep must be ≥ 1, got {keep}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self.registry = registry if registry is not None else get_registry()
        self._m_writes = self.registry.counter("snapshot_writes_total")
        self._m_invalid = self.registry.counter("snapshot_invalid_total")
        self._g_last_seq = self.registry.gauge("snapshot_last_seq")
        self._h_write = self.registry.histogram("snapshot_write_seconds")

    @property
    def directory(self) -> Path:
        """The snapshot directory."""
        return self._directory

    def _snapshot_files(self) -> list[tuple[int, Path]]:
        """``(seq, path)`` pairs for every well-named file, newest first."""
        found = []
        for path in self._directory.iterdir():
            match = _SNAPSHOT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        found.sort(reverse=True)
        return found

    def write(self, aug: AugmentedGraph, *, last_applied_seq: int) -> Path:
        """Durably snapshot ``aug`` as covering ``last_applied_seq``.

        The write is atomic (temp file + rename), so a crash mid-write
        cannot shadow an older valid snapshot with a torn one.
        """
        if last_applied_seq < 0:
            raise PersistenceError(
                f"last_applied_seq must be ≥ 0, got {last_applied_seq}"
            )
        path = self._directory / f"snapshot-{last_applied_seq:016d}.json"
        with observe("snapshot.write", self._h_write, seq=last_applied_seq):
            save_augmented_graph(
                aug, path, meta={"last_applied_seq": last_applied_seq}
            )
            self._m_writes.inc()
            self._g_last_seq.set(last_applied_seq)
        self.prune()
        return path

    def prune(self) -> int:
        """Delete all but the ``keep`` newest snapshots; returns removed count."""
        removed = 0
        for _, path in self._snapshot_files()[self._keep:]:
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def newest_seq(self) -> int:
        """The highest sequence any on-disk snapshot claims to cover.

        Judged from the file names alone (no parsing): :meth:`write`
        derives the name from ``last_applied_seq``, and the caller —
        the durable store re-seeding its WAL counter — only needs a
        floor that no acknowledged sequence exceeds, so even a stray
        over-numbered file merely leaves a harmless gap.  Returns 0
        when no snapshot exists.
        """
        files = self._snapshot_files()
        return files[0][0] if files else 0

    def newest_path(self) -> "Path | None":
        """The newest on-disk snapshot file (by claimed sequence), or
        ``None`` — what staleness gauges ``stat`` for the write time."""
        files = self._snapshot_files()
        return files[0][1] if files else None

    def latest(self) -> "tuple[AugmentedGraph, int] | None":
        """The newest *loadable* snapshot as ``(graph, last_applied_seq)``.

        Invalid snapshot files are skipped (and counted on
        ``snapshot_invalid_total``); ``None`` means no usable snapshot
        exists at all.  "Invalid" covers any failure to read the file
        or make sense of its structure — not just well-formed
        :class:`~repro.errors.GraphError` rejections but also missing
        keys, mis-shaped edge entries, non-numeric weights, and a file
        deleted between listing and reading — so one rotten snapshot
        can never wedge recovery when an older valid one exists.
        """
        for name_seq, path in self._snapshot_files():
            try:
                # Meta first: rejecting a bad sequence is cheap, the
                # graph parse is not.
                meta = read_augmented_graph_meta(path)
                seq = meta.get("last_applied_seq", name_seq)
                # bool is an int subclass; True must not pass as seq 1.
                if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
                    self._m_invalid.inc()
                    continue
                aug = load_augmented_graph(path)
            except (GraphError, KeyError, TypeError, ValueError, OSError):
                self._m_invalid.inc()
                continue
            return aug, seq
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        files = self._snapshot_files()
        newest = files[0][0] if files else None
        return (
            f"<SnapshotStore dir={str(self._directory)!r} "
            f"count={len(files)} newest_seq={newest}>"
        )
