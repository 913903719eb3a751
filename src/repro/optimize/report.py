"""The shared return contract of the three optimization drivers.

``QASystem.optimize()`` can run any of the paper's three strategies, and
each used to return an unrelated report class — callers had to switch on
a three-way union to read even the timing fields.  All three report
classes now derive from :class:`OptimizeReport`, which guarantees:

- ``elapsed`` — wall-clock seconds of the whole run;
- ``solve_time`` — seconds spent inside the SGP solver(s);
- ``changed_edges`` — ``{(head, tail): (old_weight, new_weight)}`` of
  every knowledge-graph edge the run actually modified (a dataclass
  field on the batch strategies, a derived property on the greedy
  single-vote strategy);
- ``written_edges`` — every knowledge-graph edge the run wrote, changed
  or not: the patch an in-place run hands a serving engine;
- ``summary()`` — a one-line human-readable digest.

Subclasses keep their strategy-specific extras (constraint counts,
cluster structure, per-vote outcomes, ...) on top of this contract.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.obs import get_registry, observe
from repro.obs.operation import Operation, Timer

if TYPE_CHECKING:
    from collections.abc import Mapping


@dataclass
class OptimizeReport:
    """Base record of one edge-weight optimization run.

    Concrete subclasses: :class:`~repro.optimize.single_vote.SingleVoteReport`,
    :class:`~repro.optimize.multi_vote.MultiVoteReport`, and
    :class:`~repro.optimize.split_merge.SplitMergeReport`.  Every
    subclass provides ``changed_edges`` (field or property).
    """

    #: Human-readable strategy name, overridden per subclass.
    strategy: ClassVar[str] = "optimize"

    elapsed: float = 0.0
    solve_time: float = 0.0
    written_edges: frozenset = frozenset()

    if TYPE_CHECKING:
        # Declared here for the type checker only: every subclass provides
        # it as a dataclass field or a derived property, so adding it as a
        # runtime field would shadow those and change their signatures.
        changed_edges: "Mapping[tuple, tuple[float, float]]"

    @property
    def num_changed_edges(self) -> int:
        """How many knowledge-graph edges the run modified."""
        return len(self.changed_edges)

    def summary(self) -> str:
        """One-line digest of the run, uniform across strategies."""
        return (
            f"{self.strategy}: {self.num_changed_edges} edge(s) changed in "
            f"{self.elapsed:.3f}s (solve {self.solve_time:.3f}s)"
        )


@contextmanager
def observe_run(
    name: str, report: OptimizeReport
) -> "Iterator[Operation | Timer]":
    """Observe one driver run as ``name``; ``optimize_run_seconds`` and
    ``report.elapsed`` get the same reading.

    A run that leaves the block, early returns included (all votes
    filtered, nothing encodable), counts into ``optimize_runs_total``
    (attempts, not successes) and ``optimize_changed_edges_total``.
    """
    registry = get_registry()
    strategy = report.strategy
    with observe(
        name, registry.histogram("optimize_run_seconds", strategy=strategy)
    ) as op:
        yield op
    report.elapsed = op.elapsed
    registry.counter("optimize_runs_total", strategy=strategy).inc()
    registry.counter("optimize_changed_edges_total", strategy=strategy).inc(
        len(report.changed_edges)
    )
