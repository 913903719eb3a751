"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type to handle any library
failure while letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for structural problems in a graph (missing node/edge, ...)."""


class NodeNotFoundError(GraphError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, head: object, tail: object) -> None:
        super().__init__(f"edge {head!r} -> {tail!r} is not in the graph")
        self.head = head
        self.tail = tail


class InvalidWeightError(GraphError):
    """Raised when an edge weight is outside its legal domain.

    Edge weights in this library are transition probabilities, so every
    weight must be a finite real number in ``(0, 1]`` and the out-weights
    of a node may not sum to more than ``1 + tolerance``.
    """


class AugmentationError(GraphError):
    """Raised for invalid query/answer attachment to a knowledge graph."""


class PersistenceError(ReproError):
    """Raised when the durability layer cannot log, snapshot, or recover.

    Covers vote write-ahead-log corruption (a broken record that is
    *not* the torn final line), snapshot directories with no usable
    snapshot, and votes whose node ids cannot be serialized to JSON.
    """


class SimilarityError(ReproError):
    """Raised when a similarity evaluation cannot be performed."""


class ConvergenceError(SimilarityError):
    """Raised when an iterative similarity computation fails to converge."""


class UnknownBackendError(SimilarityError, KeyError):
    """Raised when a propagation-backend name is neither ``"dense"`` nor
    ``"push"``.

    Subclasses :class:`KeyError` as well, since the kernels are looked
    up by name; the custom ``__str__`` keeps the message readable
    (``KeyError`` would ``repr`` it).
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class SGPError(ReproError):
    """Base class for signomial-geometric-programming errors."""


class SGPModelError(SGPError):
    """Raised for malformed SGP problems (unknown variables, bad bounds)."""


class SGPSolverError(SGPError):
    """Raised when the SGP solver cannot produce a usable solution."""


class VoteError(ReproError):
    """Raised for malformed votes (best answer missing from the list, ...)."""


class InfeasibleVoteError(VoteError):
    """Raised when a vote fails the extreme-condition feasibility judgment.

    Section V of the paper: a vote whose best answer cannot outrank the
    answer above it even under the most favourable weight assignment is
    unsatisfiable, and encoding it would poison the SGP.
    """


class WorkerError(ReproError):
    """Raised for concurrent-serving lifecycle misuse.

    Covers submitting to a closed ingest queue, a ``put`` that timed
    out against sustained backpressure, and starting/stopping the
    background optimizer worker out of order.
    """


class ClusteringError(ReproError):
    """Raised when vote clustering cannot be carried out."""


class CorpusError(ReproError):
    """Raised for malformed QA corpora or entity vocabularies."""


class EvaluationError(ReproError):
    """Raised when a metric is asked to evaluate inconsistent inputs."""
