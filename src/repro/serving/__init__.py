"""Versioned, production-style similarity serving.

The seed code treated the augmented graph as a per-call throwaway:
every ``ask()`` rebuilt the CSR adjacency matrix from Python dicts.
This subpackage treats it as a long-lived serving asset instead:

- :mod:`repro.serving.params` — :class:`SimilarityParams`, the single
  validated bundle of the similarity parameters ``(k, L, c)`` threaded
  through the whole stack;
- :mod:`repro.serving.engine` — :class:`SimilarityEngine`, which owns a
  versioned cached sparse adjacency matrix maintained incrementally
  from the :class:`Patch` each publish announces (in-place weight
  patches, CSR row appends for new documents, zero-cost query
  attach/detach), a bounded LRU of per-query score vectors, and
  batched serving, with its counters as ``engine_*`` registry series;
- :mod:`repro.serving.delta` — :class:`DeltaCorrector`, the exact
  delta-propagation correction that keeps the engine's cached score
  vectors warm across sparse optimizer weight patches instead of
  cold-invalidating the LRU;
- :mod:`repro.serving.worker` — :class:`OptimizerWorker` and
  :class:`VoteQueue`, the concurrent ingest path: votes are WAL-logged
  on the serve thread, solved on a background thread against a shadow
  graph, and published to the engine as atomic weight-patch epochs.
"""

from repro.serving.params import (
    DEFAULT_K,
    SimilarityParams,
    resolve_similarity_params,
)
from repro.serving.delta import (
    DEFAULT_DELTA_DENSITY_THRESHOLD,
    DeltaCorrector,
    DeltaFallbackError,
)
from repro.serving.engine import DEFAULT_CACHE_SIZE, Patch, SimilarityEngine
#: Re-exported lazily (PEP 562): :mod:`repro.serving.worker` imports the
#: optimize/votes stack, which itself imports :mod:`repro.serving.params`
#: during package init — an eager import here would be circular.
_WORKER_EXPORTS = frozenset(
    {"DEFAULT_QUEUE_SIZE", "IngestItem", "OptimizerWorker", "VoteQueue"}
)


def __getattr__(name: str) -> object:
    if name in _WORKER_EXPORTS:
        from repro.serving import worker

        return getattr(worker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_K",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_DELTA_DENSITY_THRESHOLD",
    "DEFAULT_QUEUE_SIZE",
    "IngestItem",
    "OptimizerWorker",
    "VoteQueue",
    "SimilarityParams",
    "resolve_similarity_params",
    "DeltaCorrector",
    "DeltaFallbackError",
    "Patch",
    "SimilarityEngine",
]
