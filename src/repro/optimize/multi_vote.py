"""The multi-vote solution (Section V).

All votes — negative *and* positive — are encoded into a single SGP:

- every constraint carries a deviation variable ``d`` (Eq. 15), so
  conflicting votes do not make the program infeasible;
- the objective (Eq. 19) combines the minimal-change distance (Eq. 12)
  with the smoothed count of violated constraints (Eq. 18), weighted by
  the preference parameters ``λ1``/``λ2``;
- erroneous votes that cannot be satisfied by any weight assignment are
  removed up front by the extreme-condition feasibility judgment.

Positive votes contribute "keep the top answer on top" constraints, so
the solver is penalized for edits that would dethrone confirmed
answers — the ingredient whose absence makes the single-vote solution
*degrade* overall quality in Tables IV/V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devtools.contracts import check_monotone_deviations, check_weight_bounds
from repro.errors import SGPModelError
from repro.graph.augmented import AugmentedGraph
from repro.obs import get_registry, observe
from repro.optimize.apply import apply_edge_weights, solution_edge_weights
from repro.optimize.encoder import (
    DEFAULT_LOWER,
    DEFAULT_MARGIN,
    DEFAULT_UPPER,
    EncodedProgram,
    encode_votes,
)
from repro.optimize.objectives import (
    DEFAULT_SIGMOID_W,
    combined_objective,
    distance_objective,
    sigmoid_deviation_objective,
    step_count,
)
from repro.optimize.report import OptimizeReport, observe_run
from repro.serving.params import SimilarityParams, resolve_similarity_params
from repro.sgp.solver import SGPSolution, solve_sgp
from repro.votes.feasibility import filter_feasible
from repro.votes.types import Vote, VoteSet


#: Fixed buckets for the deviation-variable magnitude histogram: the
#: Eq. 15 deviations live on [0, ~1), far below the latency scale.
DEVIATION_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass
class MultiVoteReport(OptimizeReport):
    """Record of one multi-vote optimization run.

    Extends :class:`~repro.optimize.report.OptimizeReport` (``elapsed``,
    ``solve_time``, ``changed_edges``, ``summary()``) with the batch
    SGP's specifics.
    """

    strategy = "multi-vote"

    solution: "SGPSolution | None" = None
    encoded: "EncodedProgram | None" = None
    changed_edges: dict = field(default_factory=dict)
    discarded_votes: list[Vote] = field(default_factory=list)
    num_votes_encoded: int = 0
    num_constraints: int = 0
    num_violated_deviations: int = 0
    filter_time: float = 0.0
    encode_time: float = 0.0

    @property
    def num_satisfied_constraints(self) -> int:
        """Constraints satisfied at the solution (soft form)."""
        if self.solution is None:
            return 0
        return self.solution.num_satisfied

    def summary(self) -> str:
        base = super().summary()
        return (
            f"{base}; {self.num_satisfied_constraints}/{self.num_constraints} "
            f"constraints satisfied, {len(self.discarded_votes)} vote(s) "
            f"discarded"
        )


def solve_multi_vote(
    aug: AugmentedGraph,
    votes: "VoteSet | list[Vote]",
    *,
    lambda1: float = 0.5,
    lambda2: float = 0.5,
    sigmoid_w: float = DEFAULT_SIGMOID_W,
    feasibility_filter: bool = True,
    params: "SimilarityParams | None" = None,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    margin: float = DEFAULT_MARGIN,
    lower: float = DEFAULT_LOWER,
    upper: float = DEFAULT_UPPER,
    max_iter: int = 300,
    normalize: bool = False,
    in_place: bool = False,
) -> tuple[AugmentedGraph, MultiVoteReport]:
    """Solve all of ``votes`` in one batch SGP.

    Unlike Algorithm 1, the multi-vote solution does *not* re-normalize
    out-weights after the solve (the paper's ``NormalizeEdges`` step
    appears only in the single-vote algorithm): re-normalization resets
    any change routed through an out-degree-1 node — the majority of
    nodes on sparse graphs — which would undo most of the optimization.
    The box bounds already keep each weight a valid probability; pass
    ``normalize=True`` to restore per-node mass anyway.

    Parameters
    ----------
    lambda1, lambda2:
        The Eq. 19 preference weights on minimal graph change vs. vote
        satisfaction (paper experiments use 0.5/0.5).
    sigmoid_w:
        Steepness of the step-function approximation (paper: 300).
    feasibility_filter:
        Run the extreme-condition judgment first (Section V) and drop
        unsatisfiable votes.
    params:
        Similarity parameters
        (:class:`~repro.serving.params.SimilarityParams`); the bare
        ``max_length``/``restart_prob`` keywords were removed and raise
        ``TypeError``.
    Other parameters as in
    :func:`repro.optimize.single_vote.solve_single_votes`.

    Returns
    -------
    (optimized graph, report)
        When every vote is filtered out (or nothing is encodable) the
        graph is returned unchanged and the report's ``solution`` is
        ``None``.
    """
    params = resolve_similarity_params(
        params, max_length=max_length, restart_prob=restart_prob
    )
    max_length = params.max_length
    restart_prob = params.restart_prob
    report = MultiVoteReport()
    with observe_run("optimize.multi_vote", report) as op:
        result = aug if in_place else aug.copy()
        vote_list = list(votes)
        if feasibility_filter:
            with observe(
                "votes.feasibility_filter", num_votes=len(vote_list)
            ) as filter_op:
                kept, discarded = filter_feasible(
                    result,
                    VoteSet(vote_list),
                    max_length=max_length,
                    restart_prob=restart_prob,
                )
                filter_op.set(kept=len(kept), discarded=len(discarded))
            report.filter_time = filter_op.elapsed
            report.discarded_votes = discarded
            vote_list = list(kept)
        if not vote_list:
            op.set(num_votes=0, discarded=len(report.discarded_votes))
            return result, report

        try:
            with observe("optimize.encode", num_votes=len(vote_list)) as encode_op:
                encoded = encode_votes(
                    result,
                    vote_list,
                    use_deviations=True,
                    max_length=max_length,
                    restart_prob=restart_prob,
                    margin=margin,
                    lower=lower,
                    upper=upper,
                )
        except SGPModelError:
            # Nothing adjustable within reach of any vote: return unchanged.
            op.set(num_votes=len(vote_list), encodable=False)
            return result, report
        report.encode_time = encode_op.elapsed
        report.encoded = encoded
        report.num_votes_encoded = len(vote_list) - len(encoded.skipped_votes)
        report.num_constraints = encoded.problem.num_constraints

        num_vars = encoded.problem.num_vars
        distance = distance_objective(
            encoded.problem.x0[: encoded.num_edge_vars],
            num_vars,
            var_ids=range(encoded.num_edge_vars),
        )
        deviation = sigmoid_deviation_objective(
            encoded.deviation_ids,
            num_vars,
            w=sigmoid_w,
            weights=encoded.constraint_weights,
        )
        encoded.problem.set_objective(
            combined_objective(distance, deviation, lambda1=lambda1, lambda2=lambda2)
        )

        solution = solve_sgp(encoded.problem, max_iter=max_iter)
        report.solve_time = solution.elapsed
        report.solution = solution
        report.num_violated_deviations = step_count(
            encoded.deviation_values(solution.x)
        )
        deviations = np.abs(encoded.deviation_values(solution.x))
        # Contract seams: the solved edge weights respect the Eq. 2 box
        # and the Eq. 15 deviation variables stayed within their cap.
        check_weight_bounds(
            solution.x[: encoded.num_edge_vars],
            encoded.problem.lower[: encoded.num_edge_vars],
            encoded.problem.upper[: encoded.num_edge_vars],
            seam="optimize.multi_vote",
        )
        check_monotone_deviations(deviations, seam="optimize.multi_vote")
        if deviations.size:
            deviation_hist = get_registry().histogram(
                "optimize_deviation_magnitude", buckets=DEVIATION_BUCKETS
            )
            for magnitude in deviations:
                deviation_hist.observe(float(magnitude))
        op.set(
            num_votes=len(vote_list),
            num_constraints=report.num_constraints,
            num_satisfied=report.num_satisfied_constraints,
            num_violated_deviations=report.num_violated_deviations,
            max_deviation=float(deviations.max()) if deviations.size else 0.0,
            max_residual=solution.max_residual,
            solver_nit=solution.nit,
        )

        report.changed_edges, report.written_edges = apply_edge_weights(
            result,
            solution_edge_weights(encoded, solution),
            normalize=normalize,
        )
        op.set(changed_edges=len(report.changed_edges))
        return result, report
