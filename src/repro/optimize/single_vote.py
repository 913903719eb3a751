"""The single-vote solution (Algorithm 1, Section IV).

Negative votes are processed one at a time, greedily: each vote becomes
its own SGP (hard constraints, no deviation variables), the program is
solved, the weights are written back and re-normalized, and the next
vote starts from the *updated* graph.  Positive votes are ignored — in
the single-vote setting the top answer is already on top, so there is
nothing to solve (Section IV-B).

The paper discusses the consequences (Section V): later votes overwrite
earlier ones, conflicts are not reconciled, and positive feedback is
wasted — which is exactly what Tables IV/V show, and why the multi-vote
solution exists.  This implementation preserves those semantics
faithfully so the comparison can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SGPModelError, SGPSolverError
from repro.graph.augmented import AugmentedGraph
from repro.obs import observe
from repro.optimize.apply import apply_edge_weights, solution_edge_weights
from repro.optimize.encoder import (
    DEFAULT_LOWER,
    DEFAULT_MARGIN,
    DEFAULT_UPPER,
    encode_votes,
)
from repro.optimize.objectives import distance_signomial
from repro.optimize.report import OptimizeReport, observe_run
from repro.serving.params import SimilarityParams
from repro.sgp.solver import SGPSolution, solve_sgp
from repro.votes.types import Vote, VoteSet


@dataclass
class VoteOutcome:
    """What happened to one negative vote during Algorithm 1."""

    vote: Vote
    solution: "SGPSolution | None"
    changed_edges: dict = field(default_factory=dict)
    skipped_reason: str = ""

    @property
    def solved(self) -> bool:
        """Whether an SGP was actually solved for this vote."""
        return self.solution is not None


@dataclass
class SingleVoteReport(OptimizeReport):
    """Aggregate record of a single-vote optimization run.

    Extends :class:`~repro.optimize.report.OptimizeReport` (``elapsed``,
    ``solve_time``, ``changed_edges``, ``summary()``) with the per-vote
    outcomes of the greedy Algorithm 1 loop.
    """

    strategy = "single-vote"

    outcomes: list[VoteOutcome] = field(default_factory=list)
    encode_time: float = 0.0

    @property
    def num_solved(self) -> int:
        """How many votes produced (and solved) an SGP."""
        return sum(1 for o in self.outcomes if o.solved)

    @property
    def num_skipped(self) -> int:
        """How many votes were skipped (positive, or nothing to encode)."""
        return sum(1 for o in self.outcomes if not o.solved)

    @property
    def changed_edges(self) -> dict:
        """Union of per-vote edge changes; later votes win (greedy order).

        ``{(head, tail): (old, new)}`` where ``old`` comes from the last
        vote that touched the edge — the greedy loop rewrites the graph
        between votes, so a global "before" does not exist here.
        """
        merged: dict = {}
        for outcome in self.outcomes:
            merged.update(outcome.changed_edges)
        return merged

    def all_changed_edges(self) -> dict:
        """Backward-compatible alias for :attr:`changed_edges`."""
        return self.changed_edges

    def summary(self) -> str:
        base = super().summary()
        return f"{base}; {self.num_solved} vote(s) solved, {self.num_skipped} skipped"


def solve_single_votes(
    aug: AugmentedGraph,
    votes: "VoteSet | list[Vote]",
    *,
    params: "SimilarityParams | None" = None,
    margin: float = DEFAULT_MARGIN,
    lower: float = DEFAULT_LOWER,
    upper: float = DEFAULT_UPPER,
    max_iter: int = 200,
    normalize: bool = True,
    in_place: bool = False,
) -> tuple[AugmentedGraph, SingleVoteReport]:
    """Run Algorithm 1 over the negative votes of ``votes``.

    Parameters
    ----------
    aug:
        The augmented graph ``G`` to optimize.  Left untouched unless
        ``in_place`` is set; the optimized graph ``G*`` is returned.
    votes:
        The vote set ``T``; only ``T⁻`` (negative votes) is used.
    params:
        Similarity parameters
        (:class:`~repro.serving.params.SimilarityParams`); the paper
        defaults when omitted.
    max_iter:
        Passed to :func:`repro.sgp.solver.solve_sgp`.
    normalize:
        Run ``NormalizeEdges`` after each vote (Algorithm 1 line 16).
    in_place:
        Mutate ``aug`` directly instead of copying (the split-and-merge
        driver uses this on its own working copies).

    Returns
    -------
    (optimized graph, report)
    """
    if params is None:
        params = SimilarityParams()
    max_length = params.max_length
    restart_prob = params.restart_prob
    report = SingleVoteReport()
    with observe_run("optimize.single_vote", report) as op:
        result = aug if in_place else aug.copy()
        negative = [v for v in votes if v.is_negative]
        for index, vote in enumerate(negative):
            with observe(
                "optimize.vote", index=index, query=str(vote.query)
            ) as vote_op:
                try:
                    with observe("optimize.encode", num_votes=1) as encode_op:
                        encoded = encode_votes(
                            result,
                            [vote],
                            use_deviations=False,
                            max_length=max_length,
                            restart_prob=restart_prob,
                            margin=margin,
                            lower=lower,
                            upper=upper,
                        )
                except SGPModelError as exc:
                    vote_op.set(skipped=str(exc))
                    report.outcomes.append(
                        VoteOutcome(vote=vote, solution=None, skipped_reason=str(exc))
                    )
                    continue
                if not encoded.constraint_votes:
                    vote_op.set(skipped="no constraints")
                    report.outcomes.append(
                        VoteOutcome(
                            vote=vote, solution=None, skipped_reason="no constraints"
                        )
                    )
                    continue
                report.encode_time += encode_op.elapsed

                initial = encoded.problem.x0[: encoded.num_edge_vars]
                encoded.problem.set_objective(distance_signomial(initial))
                try:
                    solution = solve_sgp(encoded.problem, max_iter=max_iter)
                except SGPSolverError as exc:
                    vote_op.set(skipped=str(exc))
                    report.outcomes.append(
                        VoteOutcome(vote=vote, solution=None, skipped_reason=str(exc))
                    )
                    continue
                report.solve_time += solution.elapsed

                changes, written = apply_edge_weights(
                    result,
                    solution_edge_weights(encoded, solution),
                    normalize=normalize,
                )
                report.written_edges |= written
                vote_op.set(
                    changed_edges=len(changes),
                    solver_nit=solution.nit,
                    max_residual=solution.max_residual,
                )
                report.outcomes.append(
                    VoteOutcome(vote=vote, solution=solution, changed_edges=changes)
                )
        op.set(
            num_votes=len(negative),
            num_solved=report.num_solved,
            num_skipped=report.num_skipped,
            changed_edges=len(report.changed_edges),
        )
    return result, report
