"""The versioned similarity-serving engine.

The seed serving path rebuilt the full CSR adjacency matrix from the
graph's Python dicts on *every* ``QASystem.ask()`` — an ``O(|E|)``
reconstruction per question that dwarfs the ``O(L·|E|)`` propagation the
truncated inverse P-distance (Section IV-A) was designed to make cheap.
:class:`SimilarityEngine` turns the graph into a long-lived serving
asset:

- it serves from one immutable *epoch* at a time: a sparse adjacency
  matrix over the *persistent* nodes (entities + answers), built by the
  graph's vectorized :meth:`~repro.graph.digraph.WeightedDiGraph.csr`,
  its node index and sorted answers, the push backend's state (built
  from that matrix on first use), and the epoch's own score LRU.  A
  writer mutates the live graph inside
  :meth:`SimilarityEngine.publish` and returns the :class:`Patch` it
  wrote, from which the engine builds the *next* epoch, published by
  one reference swap: a re-weighted edge finds its CSR entry by binary
  search over the row's column-sorted indices (one vectorized pass per
  patch) and patches a copy of the data array, and each new answer
  (document) appends one CSR row.  A change nobody announced moves the
  persistent graph's version, which each epoch records, and costs the
  next serve a rebuild;
- query nodes never enter the matrix at all.  A query has out-links
  only, so no walk mass ever returns to it: seeding the propagation
  directly with the query's out-link weights is *bitwise identical* to
  running the dynamic program with the query row/column present (the
  removed entries only ever multiply zero mass).  Attaching or
  detaching a query therefore costs the engine nothing and publishes no
  epoch, so repeated questions keep hitting the cache while transient
  query nodes churn;
- a serve reads ``_current`` once and uses only that epoch, so it never
  sees a half-applied batch and never waits for a writer: while a
  publish holds the state lock on another thread, serves keep reading
  the previous epoch;
- each epoch owns its LRU, so no cached vector is ever re-keyed.  A
  successor epoch starts from a copy of its predecessor's entries when
  the change cannot alter any cached score (answer-row appends,
  zero-delta patches), from a *repaired* copy after an optimizer weight
  patch — the engine computes the exact correction each cached vector
  needs via delta propagation (:mod:`repro.serving.delta` — work scales
  with the changed edges' L-hop neighborhood, not ``|E|``; a patch too
  dense to localize drops the dense entries instead) — and empty after
  a rebuild;
- every counter and per-stage latency (cache hits/misses, patches,
  row appends, rebuilds avoided, builds, propagations, delta passes)
  is an ``engine_*`` series in the metrics registry, labeled with the
  engine's ``engine_label``; each timed stage is one
  :func:`~repro.obs.observe` operation, so the same call feeds its
  histogram, its span under ``engine.serve``, and the flight recorder.

Batched serving (:meth:`score_batch`) stacks the seed vectors of many
queries into one dense block and shares the ``L`` sparse matrix
products, mirroring :func:`repro.similarity.inverse_pdistance.inverse_pdistance_batch`.

A miss runs one of the two kernels of :mod:`repro.similarity.backend`,
named by ``params.backend``.  The ``"dense"`` kernel is bitwise a cold
:func:`~repro.similarity.inverse_pdistance.inverse_pdistance`
recompute; the ``"push"`` kernel (:mod:`repro.similarity.push`)
serves from a sparse residual frontier over an epoch's out-edge CSR,
touching only edges near the query.  Push results carry their
touched-node set and derived error bound,
which lets a weight patch repair push entries the way delta
propagation repairs dense vectors: a cached push entry whose touched
set avoids every patched edge head is provably still within its error
budget and carries over verbatim; otherwise it is re-pushed locally on
the patched matrix.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.devtools.contracts import (
    check_delta_scores,
    check_finite_csr_data,
    check_push_scores,
    check_same_csr,
    contracts_enabled,
)
from repro.errors import EvaluationError, GraphError, NodeNotFoundError
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.obs import MetricsRegistry, get_registry, observe
from repro.obs.recorder import active_recorder
from repro.serving.delta import (
    DEFAULT_DELTA_DENSITY_THRESHOLD,
    DeltaCorrector,
    DeltaFallbackError,
)
from repro.serving.params import SimilarityParams
from repro.utils.sync import mutator, serve_path
from repro.similarity.backend import DenseBackend, PushBackend
from repro.similarity.push import (
    PropagationResult,
    amplification_bound,
    out_adjacency,
)
from repro.similarity.ranking import rank_vector, repr_order

#: Default bound on the per-query score-vector LRU cache.
DEFAULT_CACHE_SIZE = 256

#: Buckets for ``engine_push_error_bound`` (accounted dropped mass per
#: push query, a score error on [0, 1) — powers of ten, not latencies).
PUSH_ERROR_BOUND_BUCKETS: tuple[float, ...] = (
    1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

#: A single revalidation re-pushing this many cached entries is a
#: "repush storm" — the optimizer's patch frontier keeps hitting the
#: cached queries' touched sets — and fires the flight recorder.
REPUSH_STORM_THRESHOLD = 8

#: Distinguishes the metric series of multiple engines in one process.
_ENGINE_SEQ = itertools.count()

#: The kernels a miss runs, by ``params.backend``.
_DENSE = DenseBackend()
_PUSH = PushBackend()

#: One LRU entry: the frozen score vector, plus the push result that
#: produced it (touched set + error accounting) or ``None``.
_Entry = tuple[np.ndarray, "PropagationResult | None"]

#: The push backend's state for one matrix: its out-edge CSR and ρ.
_PushState = tuple[sparse.csr_matrix, float]


class Patch(NamedTuple):
    """What one :meth:`SimilarityEngine.publish` batch wrote: the
    knowledge-graph edges it re-weighted and the answers it attached.
    The engine re-reads their weights and links off the live graph.
    """

    edges: Collection[tuple[Node, Node]] = ()
    answers: Sequence[Node] = ()


class _Epoch:
    """One generation of the engine's served state.

    ``matrix`` (``M[i, j] = w(v_j, v_i)`` over the persistent nodes),
    ``index`` (node -> row), ``answers`` (the answer nodes, distinct
    and sorted by ``repr``: a serve's default targets, ranked as they
    stand) and ``answer_rows`` (their rows) never change once the epoch
    is published — writers build the next epoch instead, and
    ``version`` is the persistent graph version the matrix reflects (or
    ``None``, which no version equals).  The score LRU belongs to this
    epoch alone, so a vector cached here always
    describes this matrix; every vector is frozen on the way in
    (constructor and :meth:`store`), so no caller holding a served array
    can poison a later hit.  ``push`` is the out-edge CSR of ``matrix``
    and its ρ, built on first use: it depends on this matrix alone.
    """

    def __init__(
        self,
        number: int,
        version: "int | None",
        matrix: sparse.csr_matrix,
        index: dict[Node, int],
        answers: tuple[Node, ...],
        *,
        lru_lock: threading.Lock,
        capacity: int,
        entries: "Iterable[tuple[tuple, _Entry]]" = (),
    ) -> None:
        self.number = number
        self.version = version
        self.matrix = matrix
        self.index = index
        self.answers = answers
        self.answer_rows = np.fromiter(
            (index[answer] for answer in answers), dtype=np.int64, count=len(answers)
        )
        self.answer_rows.setflags(write=False)
        self.push: "_PushState | None" = None
        self._lru_lock = lru_lock
        self._capacity = capacity
        self._lru: "OrderedDict[tuple, _Entry]" = OrderedDict()
        for key, (vector, result) in entries:
            vector.setflags(write=False)
            self._lru[key] = (vector, result)

    def __len__(self) -> int:
        return len(self._lru)

    def lookup(self, key: tuple) -> "np.ndarray | None":
        """The cached vector for ``key`` (marked most recent), or ``None``."""
        with self._lru_lock:
            entry = self._lru.get(key)
            if entry is None:
                return None
            self._lru.move_to_end(key)
        return entry[0]

    def store(
        self,
        key: tuple,
        vector: np.ndarray,
        result: "PropagationResult | None" = None,
    ) -> None:
        """Freeze ``vector`` and cache it, evicting past the capacity."""
        vector.setflags(write=False)
        with self._lru_lock:
            self._lru[key] = (vector, result)
            self._lru.move_to_end(key)
            while len(self._lru) > self._capacity:
                self._lru.popitem(last=False)

    def entries(self) -> "list[tuple[tuple, _Entry]]":
        """The LRU's entries, least recently used first."""
        with self._lru_lock:
            return list(self._lru.items())

    def push_state(self) -> _PushState:
        """The out-edge CSR of ``matrix`` and its ρ, built on first use."""
        push = self.push
        if push is None:
            out = out_adjacency(self.matrix)
            push = self.push = (out, amplification_bound(out))
        return push

    def offsets(self, edges: Sequence[tuple[Node, Node]]) -> "list[int | None]":
        """Offsets of the ``(head, tail)`` edges in the matrix's data.

        Edge ``head -> tail`` is the entry ``M[index[tail], index[head]]``,
        found by binary search over that row's indices, which are
        column-sorted by construction (built rows and appended answer
        rows alike).  All the searches advance together, one array step
        per halving, so a publish pays a few dozen numpy calls however
        many edges it patches.  ``None`` where an endpoint is outside the
        matrix (a query) or the edge is not one of its entries.
        """
        count = len(edges)
        index = self.index
        rows = np.fromiter(
            (index.get(tail, -1) for _, tail in edges), dtype=np.int64, count=count
        )
        cols = np.fromiter(
            (index.get(head, -1) for head, _ in edges), dtype=np.int64, count=count
        )
        known = np.flatnonzero((rows >= 0) & (cols >= 0))
        rows = rows[known]
        cols = cols[known]
        indices = self.matrix.indices
        indptr = self.matrix.indptr
        # Per search: entries before lo are < col, entries from hi on are >= col.
        lo = indptr[rows].astype(np.int64)
        end = indptr[rows + 1].astype(np.int64)
        hi = end.copy()
        while True:
            active = np.flatnonzero(lo < hi)
            if not active.size:
                break
            mid = (lo[active] + hi[active]) // 2
            below = indices[mid] < cols[active]
            lo[active[below]] = mid[below] + 1
            hi[active[~below]] = mid[~below]
        hit = lo < end
        hit[hit] = indices[lo[hit]] == cols[hit]
        offsets: list[int | None] = [None] * count
        for i, position in zip(known[hit].tolist(), lo[hit].tolist()):
            offsets[i] = position
        return offsets


class SimilarityEngine:
    """Versioned, incrementally maintained similarity serving.

    All served state is one immutable epoch, ``_current``.  Writers
    (:meth:`publish`, or a serve that finds the graph moved) build the
    next epoch under ``_state_lock`` and publish it with one
    assignment; a serve reads ``_current`` once and never waits for a
    writer.

    Parameters
    ----------
    aug:
        The live augmented graph to serve.
    params:
        Default :class:`SimilarityParams`; per-call overrides accepted.
    cache_size:
        Bound on the per-query score-vector LRU cache (0 disables it).
    registry:
        The :class:`~repro.obs.MetricsRegistry` receiving the engine's
        ``engine_*`` metric series (labeled ``engine="<n>"`` per
        instance).  Defaults to the process-wide registry.

    Notes
    -----
    Cached score vectors stay warm across announced weight patches
    through exact delta-propagation corrections
    (:mod:`repro.serving.delta`); a patch whose correction frontier
    outgrows :data:`~repro.serving.delta.DEFAULT_DELTA_DENSITY_THRESHOLD`
    times the matrix's edge count drops the dense entries instead.
    The engine assumes the paper's augmented-graph construction
    (Section III-A): query nodes have out-links only.  Writes announced
    through :meth:`publish` are patched into the next epoch; any other
    write to the persistent graph moves its version and costs the next
    serve a rebuild.  Scores are served at the graph's current state,
    except that a serve overlapping a publish on another thread reads
    the epoch before it.
    """

    def __init__(
        self,
        aug: AugmentedGraph,
        *,
        params: "SimilarityParams | None" = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be ≥ 0, got {cache_size}")
        self._aug = aug
        # Serializes writers: a publish (apply + next epoch) and a serve
        # that rebuilds.  Re-entrant because publish() holds it across
        # apply, and a serve inside apply re-enters.
        self._state_lock = threading.RLock()
        # Guards the LRU of every epoch this engine builds; held only
        # for one dict operation or one snapshot copy.
        self._lru_lock = threading.Lock()
        self.params = params if params is not None else SimilarityParams()
        self._cache_size = cache_size
        self._current: "_Epoch | None" = None
        # Metric handles are bound once here so hot-path increments are
        # a single attribute add, never a registry lookup.
        self.registry = registry if registry is not None else get_registry()
        self.engine_label = str(next(_ENGINE_SEQ))
        label = {"engine": self.engine_label}
        counter = self.registry.counter
        self._m_builds = counter("engine_builds_total", **label)
        self._m_rebuilds_avoided = counter("engine_rebuilds_avoided_total", **label)
        self._m_weight_patches = counter("engine_weight_patches_total", **label)
        self._m_rows_appended = counter("engine_rows_appended_total", **label)
        self._m_cache_hits = counter("engine_cache_hits_total", **label)
        self._m_cache_misses = counter("engine_cache_misses_total", **label)
        self._m_serves = counter("engine_serves_total", **label)
        self._m_batch_serves = counter("engine_batch_serves_total", **label)
        self._m_delta_revalidations = counter(
            "engine_delta_revalidations_total", **label
        )
        self._m_delta_entries = counter(
            "engine_delta_entries_patched_total", **label
        )
        self._m_delta_fallbacks = counter(
            "engine_delta_fallbacks_total", **label
        )
        self._m_delta_rekeys = counter("engine_delta_rekeys_total", **label)
        self._m_push_serves = counter("engine_push_serves_total", **label)
        self._m_push_repushes = counter("engine_push_repushes_total", **label)
        self._m_push_rekeys = counter("engine_push_rekeys_total", **label)
        self._g_cache_entries = self.registry.gauge("engine_cache_entries", **label)
        self._h_build = self.registry.histogram("engine_build_seconds", **label)
        self._h_propagate = self.registry.histogram(
            "engine_propagate_seconds", **label
        )
        self._h_delta = self.registry.histogram("engine_delta_seconds", **label)
        self._h_push_edges = self.registry.histogram(
            "engine_push_edges_touched", **label
        )
        self._h_push_error = self.registry.histogram(
            "engine_push_error_bound",
            buckets=PUSH_ERROR_BOUND_BUCKETS,
            **label,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @mutator
    def close(self) -> None:
        """Drop the published epoch and its caches; a later serve rebuilds."""
        with self._state_lock:
            self._current = None

    @property
    def version(self) -> int:
        """The served graph's current mutation version."""
        return self._aug.graph.version

    @property
    def epoch(self) -> int:
        """The published epoch's number (monotonic; 0 before the first build)."""
        current = self._current
        return current.number if current is not None else 0

    # ------------------------------------------------------------------
    # writers: announced patches and version checks -> next epoch
    # ------------------------------------------------------------------
    def _fresh(self, epoch: _Epoch) -> bool:
        """Whether ``epoch`` still reflects the persistent graph."""
        return (
            epoch.version is not None
            and epoch.version == self._aug.persistent_version
        )

    @mutator
    def publish(self, apply: "Callable[[], Patch | None]") -> int:
        """Apply one batch to the live graph and publish it as one epoch.

        ``apply`` mutates the live graph and returns the :class:`Patch`
        it wrote; ``_state_lock`` is held across it *and* the next
        epoch's build, while serves on other threads read the previous
        epoch.  A version that moved before ``apply``, or behind an
        empty patch, means unannounced writes: the publish rebuilds.  An
        empty patch on an unmoved graph publishes nothing, and before
        the first build ``apply`` only runs.  If ``apply`` raises,
        nothing is published; the version tells the next serve.

        Returns the number of the epoch serving the batch (0 before the
        first build).
        """
        with self._state_lock:
            before = self._current
            fresh = before is not None and self._fresh(before)
            patch = apply() or Patch()
            current = self._current
            if current is None:
                return 0
            if not fresh:
                return self._catch_up().number
            epoch = self._advance(current, patch)
            if epoch is not current:
                self._current = epoch
                self._g_cache_entries.set(len(epoch))
            # Contract seam: the patch named every write, so the epoch
            # equals a fresh build.  No-op unless REPRO_CONTRACTS is on.
            if contracts_enabled():
                check_same_csr(
                    epoch.matrix,
                    self._aug.graph.csr(epoch.index),
                    seam="engine.publish",
                )
            return epoch.number

    def _serving_epoch(self) -> _Epoch:
        """The epoch a serve reads: ``_current``, caught up when free to.

        A serve that sees the version moved rebuilds if ``_state_lock``
        is free; a publish holding it is writing the live graph, and the
        serve reads the previous epoch rather than wait.  Only a serve
        before the first build blocks.
        """
        epoch = self._current
        if epoch is None:
            return self._catch_up()
        if self._fresh(epoch):
            self._m_rebuilds_avoided.inc()
            return epoch
        if not self._state_lock.acquire(blocking=False):
            return epoch
        try:
            return self._catch_up()
        finally:
            self._state_lock.release()

    @mutator
    def _catch_up(self) -> _Epoch:
        """``_current`` if it reflects the graph, else a rebuild of it."""
        with self._state_lock:
            current = self._current
            if current is not None and self._fresh(current):
                return current
            epoch = self._rebuild(current.number + 1 if current is not None else 1)
            self._current = epoch
            self._g_cache_entries.set(len(epoch))
            return epoch

    def _advance(self, current: _Epoch, patch: Patch) -> _Epoch:
        """``current`` with ``patch`` applied: weights patched, rows appended.

        ``current`` itself for an empty patch on an unmoved graph; a
        rebuild when the patch cannot account for the change.  An answer
        already in the epoch, or named again in the patch, is skipped:
        each new answer appends exactly one row.
        """
        version = self._aug.persistent_version
        edges = list(patch.edges)
        answers = [
            node
            for node in dict.fromkeys(patch.answers)
            if node not in current.index
        ]
        if not edges and not answers and version == current.version:
            self._m_rebuilds_avoided.inc()
            return current
        offsets = current.offsets(edges)
        if None in offsets or not (edges or answers):
            return self._rebuild(current.number + 1)
        epoch = current
        try:
            if edges:
                epoch = self._patch(epoch, version, offsets, edges)
            if answers:
                epoch = self._append_answer_rows(epoch, version, answers)
        except (KeyError, GraphError):
            # An announced edge is gone, or an answer links outside the
            # matrix: structural changes only a rebuild applies.
            return self._rebuild(current.number + 1)
        self._m_rebuilds_avoided.inc()
        return epoch

    def _new_epoch(
        self,
        number: int,
        version: "int | None",
        matrix: sparse.csr_matrix,
        index: dict[Node, int],
        answers: tuple[Node, ...],
        *,
        entries: "Iterable[tuple[tuple, _Entry]]" = (),
    ) -> _Epoch:
        return _Epoch(
            number,
            version,
            matrix,
            index,
            answers,
            lru_lock=self._lru_lock,
            capacity=self._cache_size,
            entries=entries,
        )

    def _rebuild(self, number: int) -> _Epoch:
        """A fresh epoch built from the live graph (the safe path).

        The base matrix is ``M[i, j] = w(v_j, v_i)`` over every
        non-query node, built by the graph's vectorized
        :meth:`~repro.graph.digraph.WeightedDiGraph.csr` — the same
        canonical column-sorted layout the cold
        :meth:`~repro.graph.digraph.WeightedDiGraph.adjacency_matrix`
        has, so propagation results match it bitwise.  Edges into a
        query node (none exist by construction) are left out with the
        query rows.  The epoch's LRU starts empty.  The version is read
        before the graph, so a write racing the build can only make the
        epoch look stale, never current.
        """
        with observe("engine.rebuild", self._h_build) as op:
            version = self._aug.persistent_version
            is_query = self._aug.is_query
            persistent = (
                node for node in self._aug.graph.nodes() if not is_query(node)
            )
            index = {node: i for i, node in enumerate(persistent)}
            matrix = self._aug.graph.csr(index)
            op.set(nodes=len(index), edges=matrix.nnz)
            check_finite_csr_data(matrix.data, seam="engine.rebuild")
            self._m_builds.inc()
        answers = tuple(sorted(self._aug.answer_nodes, key=repr))
        return self._new_epoch(number, version, matrix, index, answers)

    def _patch(
        self,
        prev: _Epoch,
        version: "int | None",
        offsets: "Sequence[int | None]",
        edges: Sequence[tuple[Node, Node]],
    ) -> _Epoch:
        """The epoch after re-reading ``edges``' weights, copy-on-write.

        ``offsets`` are the edges' positions in the matrix's data.  The
        data array is copied, those entries re-read from the live graph,
        and rebound as a fresh matrix sharing the (immutable) index
        structure.  The LRU starts from the predecessor's entries,
        delta-repaired.
        """
        matrix = prev.matrix
        data = matrix.data.copy()
        positions, first = np.unique(
            np.asarray(offsets, dtype=np.int64), return_index=True
        )
        old_values = data[positions]
        weight = self._aug.graph.weight
        data[positions] = np.fromiter(
            (weight(*edges[i]) for i in first.tolist()),
            dtype=np.float64,
            count=positions.size,
        )
        # Contract seam: every patched CSR entry is a finite positive
        # weight.  No-op unless REPRO_CONTRACTS is on.
        check_finite_csr_data(
            data, positions=positions.tolist(), seam="engine.patch"
        )
        self._m_weight_patches.inc(positions.size)
        epoch = self._new_epoch(
            prev.number + 1,
            version,
            sparse.csr_matrix(
                (data, matrix.indices, matrix.indptr), shape=matrix.shape
            ),
            prev.index,
            prev.answers,
        )
        entries = prev.entries()
        if entries:
            self._delta_revalidate(epoch, entries, positions, old_values)
        return epoch

    def _append_answer_rows(
        self, prev: _Epoch, version: "int | None", answers: Sequence[Node]
    ) -> _Epoch:
        """The epoch with one empty column + one in-link row per answer.

        Answer nodes have no out-edges, so their columns stay empty; all
        their in-links land in the single new row, which makes CSR row
        append the exact incremental form of a rebuild.  For the same
        reason no cached score can change: the successor starts from a
        copy of the predecessor's LRU.
        """
        with observe("engine.append_rows", self._h_build, answers=len(answers)):
            matrix = prev.matrix
            index = dict(prev.index)
            data_parts = [matrix.data]
            index_parts = [matrix.indices]
            indptr = list(matrix.indptr)
            offset = len(matrix.data)
            for answer in answers:
                links = self._aug.answer_links(answer)
                # Column-sorted, like every built row: offsets() relies on it.
                entries = sorted(
                    (index[entity], float(weight))
                    for entity, weight in links.items()
                )
                index[answer] = len(index)
                offset += len(entries)
                data_parts.append(
                    np.asarray([w for _, w in entries], dtype=float)
                )
                index_parts.append(
                    np.asarray([j for j, _ in entries], dtype=np.int32)
                )
                indptr.append(offset)
            n = len(index)
            appended = sparse.csr_matrix(
                (
                    np.concatenate(data_parts),
                    np.concatenate(index_parts),
                    np.asarray(indptr, dtype=np.int64),
                ),
                shape=(n, n),
            )
            check_finite_csr_data(appended.data, seam="engine.append_rows")
            self._m_rows_appended.inc(len(answers))
        carried = prev.entries()
        if carried:
            self._m_delta_rekeys.inc(len(carried))
        return self._new_epoch(
            prev.number + 1,
            version,
            appended,
            index,
            tuple(sorted(prev.answers + tuple(answers), key=repr)),
            entries=carried,
        )

    def _cold_vector(
        self,
        epoch: _Epoch,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
    ) -> np.ndarray:
        """The dense kernel's vector outside any operation, for contract
        checking only."""
        seed_idx, seed_weights = self._seed_arrays(epoch, links)
        return _DENSE.propagate(
            epoch.matrix, seed_idx, seed_weights, target_idx, params=params
        ).scores

    def _delta_revalidate(
        self,
        epoch: _Epoch,
        entries: "list[tuple[tuple, _Entry]]",
        positions: np.ndarray,
        old_values: np.ndarray,
    ) -> None:
        """Fill the patched ``epoch``'s LRU with repaired predecessor entries.

        ``entries`` (the predecessor's LRU) are partitioned by the
        kernel that produced each (its key's backend):

        - **dense** entries receive the exact delta-propagation
          correction; a :class:`~repro.serving.delta.DeltaFallbackError`
          (patch too dense) or unknown node drops *only* the dense
          entries — the honest cold-invalidation fallback, per kind;
        - **push** entries (those carrying a push result) carry over
          verbatim when provably unaffected — no patched edge's head is
          in the entry's touched set and the patched matrix's ρ is no
          larger than the one the entry was pushed under, so the
          computed mass is unchanged and its error bound still holds —
          and are re-pushed locally on the patched matrix otherwise.
        """
        matrix = epoch.matrix
        deltas = matrix.data[positions] - old_values
        changed = np.flatnonzero(deltas)
        if changed.size == 0:
            # The "patch" rewrote identical weights; nothing can differ.
            for key, (vector, result) in entries:
                epoch.store(key, vector, result)
            self._m_delta_rekeys.inc(len(entries))
            return
        requests = {key: self._cache_request(key) for key, _ in entries}
        dense_keys = [
            key for key, (_, _, params) in requests.items()
            if params.backend == "dense"
        ]
        push_keys = [key for key, (_, result) in entries if result is not None]
        cached = dict(entries)
        corrected: dict[tuple, np.ndarray] = {}
        dense_ok = True
        if dense_keys:
            max_length = max(requests[key][2].max_length for key in dense_keys)
            with observe(
                "engine.delta",
                self._h_delta,
                edges=int(changed.size),
                entries=len(dense_keys),
            ) as op:
                try:
                    # A data position's row (the edge's tail) is the
                    # indptr bucket holding it; its column (the head)
                    # is indices[position].
                    moved = positions[changed]
                    corrector = DeltaCorrector(
                        matrix,
                        np.searchsorted(matrix.indptr, moved, side="right") - 1,
                        matrix.indices[moved].astype(np.int64),
                        deltas[changed],
                        max_length=max_length,
                        density_threshold=DEFAULT_DELTA_DENSITY_THRESHOLD,
                    )
                    for key in dense_keys:
                        links, targets, params = requests[key]
                        seed_idx, seed_weights = self._seed_arrays(epoch, links)
                        target_idx = self._target_indices(epoch, targets)
                        vector = cached[key][0] + corrector.correction(
                            seed_idx,
                            seed_weights,
                            target_idx,
                            max_length=params.max_length,
                            restart_prob=params.restart_prob,
                            targets_key=targets,
                        )
                        # Contract seam: the revalidated vector must
                        # agree with a cold recompute within tolerance.
                        # No-op unless REPRO_CONTRACTS is on.
                        if contracts_enabled():
                            check_delta_scores(
                                vector,
                                self._cold_vector(
                                    epoch, links, target_idx, params
                                ),
                                seam="engine.delta",
                            )
                        corrected[key] = vector
                    op.set(frontier_nnz=corrector.frontier_nnz)
                except (DeltaFallbackError, KeyError, NodeNotFoundError) as exc:
                    dense_ok = False
                    corrected.clear()
                    self._m_delta_fallbacks.inc()
                    op.set(fallback=str(exc) or type(exc).__name__)
                    rec = active_recorder()
                    if rec is not None:
                        detail = str(exc) or type(exc).__name__
                        rec.record(
                            "engine.delta_fallback",
                            engine=self.engine_label,
                            entries_dropped=len(dense_keys),
                            edges_changed=int(changed.size),
                            error=detail,
                        )
                        rec.trigger(
                            "delta_fallback",
                            detail=(
                                f"engine {self.engine_label}: dropped "
                                f"{len(dense_keys)} dense cache entries "
                                f"({detail})"
                            ),
                        )
            if dense_ok:
                self._m_delta_revalidations.inc()
                self._m_delta_entries.inc(len(dense_keys))
        repushed: dict[tuple, PropagationResult] = {}
        kept: set[tuple] = set()
        if push_keys:
            _, rho = epoch.push_state()
            changed_heads = np.unique(matrix.indices[positions[changed]])
            for key in push_keys:
                meta = cached[key][1]
                if (
                    meta.touched_nodes is not None
                    and rho <= meta.rho
                    and not np.isin(
                        changed_heads, meta.touched_nodes, assume_unique=True
                    ).any()
                ):
                    # The tracked push only ever read out-edges of its
                    # touched nodes, and its error bound only grows with
                    # ρ: with those edges unchanged and ρ no larger, the
                    # cached vector is still within its bound.
                    kept.add(key)
                    continue
                links, targets, params = requests[key]
                try:
                    target_idx = self._target_indices(epoch, targets)
                    result = self._push_compute(epoch, links, target_idx, params)
                except (KeyError, NodeNotFoundError):
                    continue
                self._m_push_repushes.inc()
                repushed[key] = result
            if kept:
                self._m_push_rekeys.inc(len(kept))
        # Refill in LRU order; entries with no repair rule (dense after a
        # fallback, failed re-pushes) simply fall out.
        for key, (vector, result) in entries:
            if key in corrected:
                epoch.store(key, corrected[key])
            elif key in repushed:
                result = repushed[key]
                epoch.store(key, result.scores, result)
            elif key in kept:
                epoch.store(key, vector, result)
        rec = active_recorder()
        if rec is not None:
            rec.record(
                "engine.revalidate",
                engine=self.engine_label,
                edges_changed=int(changed.size),
                entries_patched=len(corrected),
                dense_fallback=not dense_ok,
                push_repushes=len(repushed),
                push_rekeys=len(kept),
                entries_kept=len(epoch),
            )
            if len(repushed) >= REPUSH_STORM_THRESHOLD:
                rec.trigger(
                    "repush_storm",
                    detail=(
                        f"engine {self.engine_label}: one revalidation "
                        f"re-pushed {len(repushed)} cached entries "
                        f"(threshold {REPUSH_STORM_THRESHOLD})"
                    ),
                )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _resolve_targets(
        self, epoch: _Epoch, targets: "Iterable[Node] | None"
    ) -> Sequence[Node]:
        # By default, every answer of the served epoch: one attached by a
        # publish still in flight is not part of it yet.
        return epoch.answers if targets is None else list(targets)

    def _target_indices(self, epoch: _Epoch, targets: Sequence[Node]) -> np.ndarray:
        if targets is epoch.answers:
            return epoch.answer_rows
        try:
            return np.array([epoch.index[t] for t in targets], dtype=int)
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def _seed_links(self, query: Node) -> dict[Node, float]:
        if not self._aug.is_query(query):
            raise EvaluationError(
                f"{query!r} is not a query node of the augmented graph"
            )
        return self._aug.query_links(query)

    def _cache_key(
        self,
        links: Mapping[Node, float],
        targets: Sequence[Node],
        params: SimilarityParams,
    ) -> tuple:
        # Each epoch owns its LRU, so the key names only the propagation.
        # The out-links are canonicalized (sorted by node repr): two
        # queries with identical links in different insertion order are
        # the same propagation and must share one cache entry.  The
        # backend name leads the key (different kernels may return
        # different vectors), and the push tolerance is part of it so the
        # same query at two error budgets never aliases.
        return (
            params.backend,
            tuple(sorted(links.items(), key=lambda item: repr(item[0]))),
            tuple(targets),
            params.max_length,
            params.restart_prob,
            params.push_tolerance,
        )

    @staticmethod
    def _cache_request(
        key: tuple,
    ) -> "tuple[dict[Node, float], tuple[Node, ...], SimilarityParams]":
        """The out-links, targets and parameters a :meth:`_cache_key` names."""
        backend, links, targets, max_length, restart_prob, tolerance = key
        params = SimilarityParams(
            max_length=max_length,
            restart_prob=restart_prob,
            backend=backend,
            push_tolerance=tolerance,
        )
        return dict(links), targets, params

    def _cache_get(self, epoch: _Epoch, key: tuple) -> "np.ndarray | None":
        if not self._cache_size:
            return None
        scores = epoch.lookup(key)
        if scores is None:
            self._m_cache_misses.inc()
            return None
        self._m_cache_hits.inc()
        return scores

    def _cache_put(
        self,
        epoch: _Epoch,
        key: tuple,
        scores: np.ndarray,
        result: "PropagationResult | None" = None,
    ) -> None:
        # Into the epoch the scores were computed on, even if a publish
        # has retired it since: the successor never sees the entry.
        if not self._cache_size:
            return
        epoch.store(key, scores, result)
        self._g_cache_entries.set(len(epoch))

    def _seed_arrays(
        self, epoch: _Epoch, links: Mapping[Node, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """A query's out-link mapping as (entity indices, weights)."""
        index = epoch.index
        seed_idx = np.fromiter(
            (index[entity] for entity in links),
            dtype=np.int64,
            count=len(links),
        )
        seed_weights = np.fromiter(
            links.values(), dtype=np.float64, count=len(links)
        )
        return seed_idx, seed_weights

    def _propagate_one(
        self,
        epoch: _Epoch,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
    ) -> np.ndarray:
        """One dense propagation with the first step pre-seeded.

        The dense kernel mirrors
        :func:`repro.similarity.inverse_pdistance.inverse_pdistance`
        operation-for-operation from ``t = 1`` on, so the result is
        bitwise equal to a cold recompute on the full graph.
        """
        with observe(
            "engine.propagate",
            self._h_propagate,
            batch=1,
            max_length=params.max_length,
        ):
            seed_idx, seed_weights = self._seed_arrays(epoch, links)
            result = _DENSE.propagate(
                epoch.matrix, seed_idx, seed_weights, target_idx, params=params
            )
        return result.scores

    def _propagate_many(
        self,
        epoch: _Epoch,
        link_columns: Sequence[Mapping[Node, float]],
        target_idx: np.ndarray,
        params: SimilarityParams,
    ) -> np.ndarray:
        """Stacked propagation: one dense block, ``L`` sparse products."""
        with observe(
            "engine.propagate",
            self._h_propagate,
            batch=len(link_columns),
            max_length=params.max_length,
        ):
            seed_columns = [
                self._seed_arrays(epoch, links) for links in link_columns
            ]
            result = _DENSE.propagate_batch(
                epoch.matrix, seed_columns, target_idx, params=params
            )
        return result.scores

    def _push_compute(
        self,
        epoch: _Epoch,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
    ) -> PropagationResult:
        """One local-push evaluation against ``epoch``'s out-CSR.

        The ``engine.push`` operation carries the query's cost and
        accuracy (``edges_touched``, ``error_bound``) as attributes, and
        both feed their histograms (the sublinearity series).  With
        contracts armed, the pushed vector is checked against a cold
        dense recompute within the result's own error bound.
        """
        with observe(
            "engine.push", self._h_propagate, batch=1, max_length=params.max_length
        ) as op:
            out_matrix, rho = epoch.push_state()
            seed_idx, seed_weights = self._seed_arrays(epoch, links)
            result = _PUSH.propagate(
                out_matrix,
                seed_idx,
                seed_weights,
                target_idx,
                params=params,
                rho=rho,
            )
            if op.recording:
                op.set(
                    edges_touched=int(result.edges_touched),
                    error_bound=float(result.error_bound),
                )
        self._h_push_edges.observe(float(result.edges_touched))
        self._h_push_error.observe(float(result.error_bound))
        if contracts_enabled():
            check_push_scores(
                result.scores,
                self._cold_vector(epoch, links, target_idx, params),
                budget=result.error_bound,
                seam="engine.push",
            )
        return result

    def _miss(
        self,
        epoch: _Epoch,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
    ) -> tuple[np.ndarray, "PropagationResult | None"]:
        """One query's scores on a cache miss, and its push result if any.

        Local push (counting one push serve) for the ``"push"`` kernel,
        one dense propagation for ``"dense"``.
        """
        self._check_links(epoch, links)
        if params.backend == "push":
            result = self._push_compute(epoch, links, target_idx, params)
            self._m_push_serves.inc()
            return result.scores, result
        return self._propagate_one(epoch, links, target_idx, params), None

    @staticmethod
    def _check_links(epoch: _Epoch, links: Mapping[Node, float]) -> None:
        for entity in links:
            if entity not in epoch.index:
                raise NodeNotFoundError(entity)

    def _serve(
        self,
        links: Mapping[Node, float],
        targets: "Iterable[Node] | None",
        params: SimilarityParams,
    ) -> tuple[Sequence[Node], np.ndarray]:
        """One serve: its targets and their frozen score vector.

        ``targets`` defaults to the serving epoch's answers.  Counts one
        serve and one cache hit or miss.  The ``engine.serve`` operation
        carries the backend, cache outcome and epoch, plus a push miss's
        own cost and accuracy.
        """
        with observe("engine.serve") as op:
            self._m_serves.inc()
            epoch = self._serving_epoch()
            target_list = self._resolve_targets(epoch, targets)
            key = self._cache_key(links, target_list, params)
            vector = self._cache_get(epoch, key)
            hit = vector is not None
            result: "PropagationResult | None" = None
            if vector is None:
                target_idx = self._target_indices(epoch, target_list)
                vector, result = self._miss(epoch, links, target_idx, params)
                self._cache_put(epoch, key, vector, result)
            if op.recording:
                op.set(
                    engine=self.engine_label,
                    backend=params.backend,
                    cache="hit" if hit else "miss",
                    epoch=epoch.number,
                )
                if result is not None:
                    op.set(
                        edges_touched=int(result.edges_touched),
                        error_bound=float(result.error_bound),
                    )
        return target_list, vector

    @serve_path
    def scores(
        self,
        links: Mapping[Node, float],
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, float]:
        """``Φ_L`` scores for a *virtual* query given its entity links.

        ``links`` is the query's normalized out-link mapping
        (``entity -> weight``); the query node itself does not need to
        exist in the graph.  Unknown entities raise
        :class:`~repro.errors.NodeNotFoundError`.  The dict keeps the
        order of ``targets`` (default: every answer, in ``repr`` order).
        """
        params = params if params is not None else self.params
        target_list, vector = self._serve(links, targets, params)
        return dict(zip(target_list, vector.tolist()))

    @serve_path
    def scores_for_query(
        self,
        query: Node,
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, float]:
        """``Φ_L`` scores for an attached query node."""
        return self.scores(self._seed_links(query), targets, params=params)

    @serve_path
    def score_batch(
        self,
        queries: Sequence[Node],
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, dict[Node, float]]:
        """Batched ``Φ_L`` for many attached queries at once.

        Cached queries are answered from the LRU; the remainder share
        one stacked propagation (``L`` sparse-dense products total).
        """
        params = params if params is not None else self.params
        query_list = list(queries)
        if not query_list:
            return {}
        with observe("engine.serve_batch") as op:
            self._m_batch_serves.inc()
            epoch = self._serving_epoch()
            target_list = self._resolve_targets(epoch, targets)
            links_by_query = {q: self._seed_links(q) for q in query_list}
            vectors: dict[Node, np.ndarray] = {}
            pending: list[Node] = []
            keys: dict[Node, tuple] = {}
            for query in query_list:
                key = keys[query] = self._cache_key(
                    links_by_query[query], target_list, params
                )
                cached = self._cache_get(epoch, key)
                if cached is not None:
                    vectors[query] = cached
                else:
                    pending.append(query)
            if pending:
                target_idx = self._target_indices(epoch, target_list)
                if params.backend == "dense":
                    # Dense misses share one stacked block.  Push
                    # localizes per query, so it has no block to stack.
                    for query in pending:
                        self._check_links(epoch, links_by_query[query])
                    block = self._propagate_many(
                        epoch,
                        [links_by_query[q] for q in pending],
                        target_idx,
                        params,
                    )
                    for column, query in enumerate(pending):
                        vector = vectors[query] = block[:, column].copy()
                        self._cache_put(epoch, keys[query], vector)
                else:
                    for query in pending:
                        vector, result = self._miss(
                            epoch, links_by_query[query], target_idx, params
                        )
                        vectors[query] = vector
                        self._cache_put(epoch, keys[query], vector, result)
            if op.recording:
                op.set(
                    engine=self.engine_label,
                    backend=params.backend,
                    queries=len(query_list),
                    cache_hits=len(query_list) - len(pending),
                    epoch=epoch.number,
                )
        return {q: dict(zip(target_list, vectors[q].tolist())) for q in query_list}

    @serve_path
    def top_k(
        self,
        query: Node,
        *,
        k: "int | None" = None,
        targets: "Iterable[Node] | None" = None,
        params: "SimilarityParams | None" = None,
    ) -> list[tuple[Node, float]]:
        """Ranked top-k ``(answer, score)`` for an attached query node.

        The order is :func:`~repro.similarity.ranking.rank_vector`'s,
        on the served score vector.  ``targets`` defaults to the
        serving epoch's answers; explicit targets are served without
        repeats, in ``repr`` order.
        """
        params = params if params is not None else self.params
        limit = k if k is not None else params.k
        if limit < 1:
            raise ValueError(f"k must be at least 1, got {limit}")
        links = self._seed_links(query)
        if targets is not None:
            targets = repr_order(targets)
        target_list, vector = self._serve(links, targets, params)
        return rank_vector(target_list, vector.tolist(), limit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        epoch = self._current
        built = epoch.matrix.shape[0] if epoch is not None else None
        cached = len(epoch) if epoch is not None else 0
        return (
            f"<SimilarityEngine version={self.version} nodes={built} "
            f"cache={cached}/{self._cache_size}>"
        )
