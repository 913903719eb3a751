"""The interactive Q&A framework (Fig. 1's loop, end to end).

:class:`QASystem` wires the substrates into the workflow the paper
describes: documents are attached as answer nodes; a question is
attached as a query node and answered with a ranked top-k list; the
user's vote (explicit, or implicit as in the e-commerce/click examples
of Section I) is recorded; accumulated votes are turned into an edge
weight optimization with any of the three solution strategies; and the
improved graph immediately serves the next question.

Every serve goes through one
:class:`~repro.serving.engine.SimilarityEngine` (the versioned
cached-adjacency subsystem), so repeated questions against an unchanged
graph cost a cache lookup instead of an ``O(|E|)`` matrix rebuild, and
:meth:`QASystem.ask_many` answers whole batches with one stacked
propagation.  Similarity parameters travel as one
:class:`~repro.serving.params.SimilarityParams` object (which also
selects the propagation backend).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence

from repro.errors import CorpusError, EvaluationError, VoteError
from repro.eval.harness import EvaluationResult, evaluate_test_set
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import WeightedDiGraph
from repro.obs import get_registry, observe
from repro.obs.recorder import active_recorder
from repro.optimize.multi_vote import solve_multi_vote
from repro.optimize.report import OptimizeReport
from repro.optimize.single_vote import solve_single_votes
from repro.optimize.split_merge import solve_split_merge
from repro.qa.entities import EntityVocabulary
from repro.serving.engine import Patch, SimilarityEngine
from repro.serving.params import SimilarityParams
from repro.similarity.top_k import rank_answers, scores_to_ranked_list
from repro.utils.sync import mutator, serve_path
from repro.votes.types import Vote, VoteSet

__all__ = ["QASystem"]

#: The optimization strategies, by ``QASystem.optimize`` name.
_STRATEGIES: "dict[str, Callable[..., tuple[AugmentedGraph, OptimizeReport]]]" = {
    "multi": solve_multi_vote,
    "single": solve_single_votes,
    "split-merge": solve_split_merge,
}


class QASystem:
    """A knowledge-graph Q&A system with voting-based optimization.

    Parameters
    ----------
    kg:
        The entity knowledge graph (e.g. from
        :func:`repro.qa.kg_builder.build_knowledge_graph`).
    vocabulary:
        Entity extractor used to link questions/documents to the graph.
    params:
        The :class:`~repro.serving.params.SimilarityParams` bundle
        (``k``, ``max_length``, ``restart_prob``); the paper defaults
        when omitted.

    Questions are served by :attr:`engine`, a
    :class:`~repro.serving.engine.SimilarityEngine` over the live
    augmented graph with the default score-LRU bound.
    """

    def __init__(
        self,
        kg: WeightedDiGraph,
        vocabulary: EntityVocabulary,
        *,
        params: "SimilarityParams | None" = None,
    ) -> None:
        self._params = params if params is not None else SimilarityParams()
        self._aug = AugmentedGraph(kg)
        self._vocabulary = vocabulary
        self._engine = SimilarityEngine(self._aug, params=self._params)
        self._shown: dict[str, tuple[str, ...]] = {}
        self._votes = VoteSet()
        # itertools.count, not an int += 1: allocation is a single
        # C-level next() call, so concurrent asks can never mint the
        # same question id (the int read-modify-write could interleave).
        self._question_ids = itertools.count()
        registry = get_registry()
        self._m_asks = registry.counter("qa_asks_total")
        self._m_votes = registry.counter("qa_votes_total")
        self._h_ask = registry.histogram("qa_ask_seconds")

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def params(self) -> SimilarityParams:
        """The similarity parameters used for serving and optimization."""
        return self._params

    @params.setter
    def params(self, value: SimilarityParams) -> None:
        if not isinstance(value, SimilarityParams):
            raise TypeError(f"params must be SimilarityParams, got {value!r}")
        self._params = value
        self._engine.params = value

    @property
    def k(self) -> int:
        """Answer-list length (``params.k``)."""
        return self._params.k

    @k.setter
    def k(self, value: int) -> None:
        self.params = self._params.replace(k=value)

    @property
    def max_length(self) -> int:
        """Walk pruning threshold ``L`` (``params.max_length``)."""
        return self._params.max_length

    @max_length.setter
    def max_length(self, value: int) -> None:
        self.params = self._params.replace(max_length=value)

    @property
    def restart_prob(self) -> float:
        """Restart probability ``c`` (``params.restart_prob``)."""
        return self._params.restart_prob

    @restart_prob.setter
    def restart_prob(self, value: float) -> None:
        self.params = self._params.replace(restart_prob=value)

    # ------------------------------------------------------------------
    # serving internals
    # ------------------------------------------------------------------
    @property
    def engine(self) -> SimilarityEngine:
        """The serving engine."""
        return self._engine

    # ------------------------------------------------------------------
    # corpus attachment
    # ------------------------------------------------------------------
    def _entity_counts(self, text: str) -> dict:
        """The graph entities ``text`` mentions, with their counts."""
        counts = self._vocabulary.extract(text)
        return {e: c for e, c in counts.items() if self._aug.is_entity(e)}

    def add_document(self, doc_id: str, text: str) -> bool:
        """Attach a HELP document as an answer node.

        Returns ``False`` (and attaches nothing) when the document
        mentions no known entity — it could never be reached by a
        random walk anyway.
        """
        return bool(self.add_documents({doc_id: text}))

    def add_documents(self, documents: Mapping[str, str]) -> list[str]:
        """Attach many documents as one engine epoch; returns the ids attached."""
        attached: list[str] = []

        def attach() -> Patch:
            for doc_id, text in documents.items():
                counts = self._entity_counts(text)
                if counts:
                    self._aug.add_answer(doc_id, counts)
                    attached.append(doc_id)
            return Patch(answers=attached)

        self._engine.publish(attach)
        return attached

    # ------------------------------------------------------------------
    # the ask / vote loop
    # ------------------------------------------------------------------
    def _attach_question(self, question: str, question_id: str) -> None:
        """Link a question to the graph as a query node (re-attach ok)."""
        counts = self._entity_counts(question)
        if not counts:
            raise CorpusError(
                f"question {question!r} mentions no entity known to the graph"
            )
        if self._aug.is_query(question_id):
            self._aug.remove_query(question_id)
        self._aug.add_query(question_id, counts)

    def _next_question_id(self) -> str:
        return f"__q{next(self._question_ids)}"

    def _record_shown(
        self, question_id: str, ranked: Sequence[tuple]
    ) -> list[tuple[str, float]]:
        self._shown[question_id] = tuple(answer for answer, _ in ranked)
        return [(str(answer), score) for answer, score in ranked]

    @serve_path
    def ask(self, question: str, *, question_id: "str | None" = None) -> list[tuple[str, float]]:
        """Answer a question with a ranked top-k document list.

        The question is linked to the graph through its extracted
        entities and the shown list is remembered so a later
        :meth:`vote` can reference it.

        Raises
        ------
        CorpusError
            When the question mentions no entity known to the graph.
        """
        if question_id is None:
            question_id = self._next_question_id()
        with observe("qa.ask", self._h_ask) as op:
            self._attach_question(question, question_id)
            ranked = rank_answers(
                self._aug,
                question_id,
                params=self._params,
                engine=self._engine,
            )
            self._m_asks.inc()
            if op.recording:
                op.set(question_id=question_id, num_answers=len(ranked))
        return self._record_shown(question_id, ranked)

    @serve_path
    def ask_many(
        self,
        questions: Mapping[str, str],
        *,
        skip_unlinkable: bool = False,
    ) -> dict[str, list[tuple[str, float]]]:
        """Answer a batch of questions with one stacked propagation.

        Parameters
        ----------
        questions:
            ``question_id -> question text``.  Each question is attached
            exactly as :meth:`ask` would, but all of them are scored
            together through the engine's batched path (``L``
            sparse-dense products total instead of ``L`` per question).
        skip_unlinkable:
            Silently drop questions that mention no known entity instead
            of raising :class:`~repro.errors.CorpusError`.

        Returns
        -------
        dict
            ``question_id -> ranked (doc, score) list``, in input order;
            shown lists are recorded for :meth:`vote` like ``ask``'s.
        """
        with observe("qa.ask_many", self._h_ask) as op:
            attached: list[str] = []
            for question_id, text in questions.items():
                try:
                    self._attach_question(text, question_id)
                except CorpusError:
                    if skip_unlinkable:
                        continue
                    raise
                attached.append(question_id)
            if op.recording:
                op.set(num_questions=len(questions), num_attached=len(attached))
            if not attached:
                return {}
            all_scores = self._engine.score_batch(attached, params=self._params)
            ranked = {
                question_id: scores_to_ranked_list(all_scores[question_id])[
                    : self._params.k
                ]
                for question_id in attached
            }
            results = {
                question_id: self._record_shown(question_id, ranked[question_id])
                for question_id in attached
            }
            self._m_asks.inc(len(attached))
        return results

    @mutator
    def vote(self, question_id: str, best_doc: str) -> Vote:
        """Record the user's vote for ``question_id``'s best document.

        The vote is positive when ``best_doc`` was already on top of the
        shown list, negative otherwise (Definition 2).
        """
        shown = self._shown.get(question_id)
        if shown is None:
            raise VoteError(
                f"no answer list was shown for question {question_id!r}"
            )
        if best_doc not in shown:
            raise VoteError(
                f"{best_doc!r} was not among the answers shown for "
                f"{question_id!r}"
            )
        vote = Vote(query=question_id, ranked_answers=shown, best_answer=best_doc)
        self._votes.add(vote)
        self._m_votes.inc()
        rec = active_recorder()
        if rec is not None:
            rec.record(
                "qa.vote",
                question_id=question_id,
                positive=bool(shown and shown[0] == best_doc),
                pending=len(self._votes),
            )
        return vote

    @property
    def pending_votes(self) -> VoteSet:
        """Votes collected since the last :meth:`optimize`."""
        return self._votes

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    @mutator
    def optimize(
        self,
        *,
        strategy: str = "multi",
        clear_votes: bool = True,
        **options,
    ) -> OptimizeReport:
        """Optimize the graph against the pending votes.

        Parameters
        ----------
        strategy:
            ``"multi"`` (Section V), ``"single"`` (Algorithm 1), or
            ``"split-merge"`` (Section VI).
        clear_votes:
            Drop the pending votes after applying them (they are spent).
        options:
            Forwarded to the chosen driver (``lambda1``, ``sigmoid_w``,
            ``max_iter``, ``num_workers``, ...).  Similarity
            parameters default to this system's ``params``; override
            with ``params=SimilarityParams(...)``.

        Returns
        -------
        OptimizeReport
            The strategy's report; all three share the
            :class:`~repro.optimize.report.OptimizeReport` contract
            (``elapsed``, ``solve_time``, ``changed_edges``,
            ``summary()``).
        """
        if not len(self._votes):
            raise VoteError("no pending votes to optimize against")
        run = _STRATEGIES.get(strategy)
        if run is None:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected {list(_STRATEGIES)}"
            )
        options.setdefault("params", self._params)
        with observe(
            "qa.optimize", strategy=strategy, num_votes=len(self._votes)
        ) as op:
            reports: list[OptimizeReport] = []

            def solve() -> Patch:
                _, report = run(self._aug, self._votes, in_place=True, **options)
                reports.append(report)
                return Patch(edges=report.written_edges)

            # The whole in-place solve lands as one engine epoch,
            # delta-revalidated off the serve path: asks on other
            # threads read the pre-solve epoch meanwhile, and the first
            # post-optimize ask hits a warm cache.
            self._engine.publish(solve)
            (report,) = reports
            op.set(
                changed_edges=report.num_changed_edges,
                elapsed=round(report.elapsed, 6),
            )
        if clear_votes:
            self._votes = VoteSet()
        return report

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def persist(self, path: str) -> None:
        """Atomically write the augmented graph (weights + roles) to disk.

        The write goes through
        :func:`~repro.graph.persistence.save_augmented_graph` (temp
        file + rename), so a crash mid-save never leaves a torn file.
        Pair with :meth:`restore` to survive restarts; for continuous
        crash-safety of the vote stream itself, drive optimization
        through a durable
        :class:`~repro.optimize.online.OnlineOptimizer` instead.
        """
        from repro.graph.persistence import save_augmented_graph

        save_augmented_graph(self._aug, path)

    @mutator
    def restore(self, path: str) -> None:
        """Replace the live graph with one previously :meth:`persist`\\ ed.

        The serving engine is rebuilt over the restored graph, so its
        matrix epoch starts fresh and the score LRU can never serve
        vectors computed against the pre-restore weights.  Per-session
        state tied to the old graph — shown answer lists and pending
        votes — is cleared; in a durable deployment pending votes live
        in the write-ahead log, not here.
        """
        from repro.graph.persistence import load_augmented_graph

        aug = load_augmented_graph(path)
        self._aug = aug
        self._engine = SimilarityEngine(aug, params=self._params)
        self._shown.clear()
        self._votes = VoteSet()
        # Keep auto-generated question ids collision-free with any
        # __qN queries the restored graph carries, and monotonic past
        # everything this instance already minted.
        floor = next(self._question_ids)
        for node in aug.query_nodes:
            text = str(node)
            if text.startswith("__q") and text[3:].isdigit():
                floor = max(floor, int(text[3:]) + 1)
        self._question_ids = itertools.count(floor)

    # ------------------------------------------------------------------
    # evaluation & access
    # ------------------------------------------------------------------
    @property
    def augmented_graph(self) -> AugmentedGraph:
        """The live augmented graph (entities + questions + documents)."""
        return self._aug

    def evaluate(
        self,
        test_questions: Mapping[str, str],
        test_pairs: Mapping[str, str],
        *,
        k_values: Sequence[int] = (1, 3, 5, 10),
    ) -> EvaluationResult:
        """Evaluate ranking quality on held-out question–document pairs.

        Parameters
        ----------
        test_questions:
            ``question_id -> question text``; attached temporarily.
        test_pairs:
            ``question_id -> ground-truth best document id``.
        """
        attached: list[str] = []
        pairs: dict[str, str] = {}
        try:
            for question_id, text in test_questions.items():
                counts = self._entity_counts(text)
                if not counts or question_id not in test_pairs:
                    continue
                if not self._aug.is_answer(test_pairs[question_id]):
                    continue
                self._aug.add_query(question_id, counts)
                attached.append(question_id)
                pairs[question_id] = test_pairs[question_id]
            if not pairs:
                raise EvaluationError(
                    "no test question could be linked to the graph"
                )
            return evaluate_test_set(
                self._aug,
                pairs,
                k_values=k_values,
                params=self._params,
                engine=self._engine,
            )
        finally:
            for question_id in attached:
                self._aug.remove_query(question_id)
