"""repro — Optimizing Knowledge Graphs through Voting-based User Feedback.

A complete, from-scratch Python reproduction of Yang, Lin, Xu, Yang & He
(ICDE 2020): an interactive framework that refines knowledge-graph edge
weights from user votes by casting the adjustment as a signomial
geometric program over a truncated Personalized-PageRank similarity
(the *extended inverse P-distance*).

Quick start::

    from repro import (
        generate_helpdesk_corpus, build_knowledge_graph,
        QASystem, SimilarityParams, get_registry, summary_table,
    )

    corpus = generate_helpdesk_corpus(seed=0)
    kg = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
    system = QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=10))
    system.add_documents(corpus.document_texts())

    answers = system.ask("refund_0 not arriving", question_id="q0")
    system.vote("q0", best_doc=answers[2][0])   # a negative vote
    report = system.optimize(strategy="multi")  # adjust edge weights
    print(report.summary())
    print(summary_table(get_registry()))        # counters and latencies

Every timed operation (an ask, a serve, a propagation, a solve, a WAL
append) is one :func:`observe` call that feeds its latency histogram,
its tracing span and the flight recorder; the engine's counters are
``engine_*`` series in :func:`get_registry`.  See DESIGN.md for the
architecture and EXPERIMENTS.md for the reproduced tables and figures.
"""

from repro.errors import ReproError
from repro.graph import (
    AugmentedGraph,
    WeightedDiGraph,
    helpdesk_graph,
    konect_like,
    random_digraph,
)
from repro.similarity import (
    get_backend,
    inverse_pdistance,
    ppr_vector,
    rank_answers,
    random_walk_similarity,
)
from repro.votes import (
    GroundTruthOracle,
    Vote,
    VoteSet,
    filter_feasible,
    generate_synthetic_votes,
    generate_votes_from_oracle,
)
from repro.optimize import (
    solve_multi_vote,
    solve_single_votes,
    solve_split_merge,
)
from repro.qa import (
    EntityVocabulary,
    QASystem,
    build_knowledge_graph,
    generate_helpdesk_corpus,
    ir_rank,
)
from repro.eval import evaluate_test_set
from repro.eval.harness import vote_omega_avg
from repro.obs import (
    MetricsRegistry,
    get_registry,
    last_trace,
    metrics_to_prometheus,
    recent_traces,
    observe,
    summary_table,
    trace_span,
)
from repro.serving import SimilarityEngine, SimilarityParams

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "WeightedDiGraph",
    "AugmentedGraph",
    "random_digraph",
    "konect_like",
    "helpdesk_graph",
    "ppr_vector",
    "inverse_pdistance",
    "random_walk_similarity",
    "rank_answers",
    "get_backend",
    "Vote",
    "VoteSet",
    "generate_synthetic_votes",
    "generate_votes_from_oracle",
    "GroundTruthOracle",
    "filter_feasible",
    "solve_single_votes",
    "solve_multi_vote",
    "solve_split_merge",
    "EntityVocabulary",
    "generate_helpdesk_corpus",
    "build_knowledge_graph",
    "QASystem",
    "ir_rank",
    "evaluate_test_set",
    "vote_omega_avg",
    "SimilarityParams",
    "SimilarityEngine",
    "MetricsRegistry",
    "get_registry",
    "observe",
    "trace_span",
    "last_trace",
    "recent_traces",
    "summary_table",
    "metrics_to_prometheus",
    "__version__",
]
