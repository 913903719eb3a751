"""End-to-end observability: the engine's registry series and traces.

A mixed workload must drive every engine series it claims to cover, and
a single ``QASystem.ask()`` plus one ``optimize`` call must produce a
nested trace (``qa.ask`` → ``engine.serve`` → ``engine.propagate``; an
optimize root → SGP solve with iteration counts and residuals)
exportable as JSONL and renderable as a console tree, with latency
histograms for both serve and solve.
"""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    clear_traces,
    get_registry,
    last_trace,
    set_registry,
)
from repro.qa import QASystem, build_knowledge_graph, generate_helpdesk_corpus
from repro.serving import SimilarityParams


@pytest.fixture(autouse=True)
def fresh_registry():
    """Run every test against a throwaway process-wide registry."""
    previous = set_registry(MetricsRegistry())
    clear_traces()
    yield get_registry()
    set_registry(previous)
    clear_traces()


@pytest.fixture(scope="module")
def corpus():
    # The CLI demo's corpus: seed 0 is known to yield an encodable,
    # solvable negative vote (the SGP actually runs).
    return generate_helpdesk_corpus(seed=0)


@pytest.fixture
def system(corpus):
    kg = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
    system = QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=8))
    system.add_documents(corpus.document_texts())
    return system


def _engine_value(registry, engine, name):
    return registry.value(name, engine=engine.engine_label)


class TestEngineRegistrySeries:
    def test_mixed_workload(self, corpus, system, fresh_registry):
        """A realistic mixed run drives every engine series it covers."""
        engine = system.engine
        questions = [q.text for q in corpus.train_pairs[:4]]

        # Query churn + repeated asks (cache misses then hits).
        for i, text in enumerate(questions):
            system.ask(text, question_id=f"w{i}")
        for i, text in enumerate(questions):
            system.ask(text, question_id=f"w{i}")

        # Weight patches: a vote and an optimization pass.
        answers = system.ask(questions[0], question_id="voted")
        system.vote("voted", answers[2][0])
        system.optimize(strategy="multi", feasibility_filter=False)

        # Answer appends: new documents attached after the first build.
        system.add_document("late_doc", questions[1])
        system.ask(questions[2], question_id="after_append")

        # A batched serve for good measure.
        system.ask_many({"b0": questions[0], "b1": questions[3]})

        def value(name):
            return _engine_value(fresh_registry, engine, name)

        # The workload must actually have exercised every code path.
        assert value("engine_builds_total") >= 1
        assert value("engine_rebuilds_avoided_total") >= 1
        assert value("engine_cache_hits_total") >= 1
        assert value("engine_cache_misses_total") >= 1
        assert value("engine_weight_patches_total") >= 1
        assert value("engine_rows_appended_total") >= 1
        assert value("engine_serves_total") >= 1
        assert value("engine_batch_serves_total") >= 1
        assert value("engine_cache_entries") >= 1
        assert value("engine_build_seconds")["count"] >= 1
        assert value("engine_propagate_seconds")["count"] >= 1

    def test_two_engines_do_not_mix_series(self, corpus):
        kg = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
        a = QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=4))
        b = QASystem(kg.copy(), corpus.vocabulary, params=SimilarityParams(k=4))
        a.add_documents(corpus.document_texts())
        b.add_documents(corpus.document_texts())
        assert a.engine.engine_label != b.engine.engine_label
        a.ask(corpus.train_pairs[0].text, question_id="qa")
        registry = get_registry()
        assert _engine_value(registry, a.engine, "engine_serves_total") == 1
        assert _engine_value(registry, b.engine, "engine_serves_total") == 0


class TestAcceptanceTrace:
    def test_ask_produces_nested_trace(self, corpus, system):
        system.ask(corpus.train_pairs[0].text, question_id="t0")
        trace = last_trace()
        assert trace.root.name == "qa.ask"
        assert trace.root.attrs["question_id"] == "t0"
        # qa.ask -> engine.serve -> engine.propagate (the first serve
        # also builds the matrix, under the same serve).
        (serve,) = trace.root.children
        assert serve.name == "engine.serve"
        assert serve.attrs["cache"] == "miss"
        assert [span.name for span in serve.children] == [
            "engine.rebuild",
            "engine.propagate",
        ]

    def test_optimize_produces_solver_telemetry(self, corpus, system):
        answers = system.ask(corpus.train_pairs[0].text, question_id="t0")
        system.vote("t0", answers[2][0])
        system.optimize(strategy="multi", feasibility_filter=False)
        trace = last_trace()
        assert trace.root.name == "qa.optimize"
        names = trace.span_names()
        assert "optimize.multi_vote" in names
        assert "optimize.encode" in names
        solve = trace.find("sgp.solve")
        assert solve is not None
        assert solve.attrs["nit"] >= 1
        assert "max_residual" in solve.attrs
        assert "num_satisfied" in solve.attrs

    def test_trace_exports_as_jsonl_and_renders(self, corpus, system):
        answers = system.ask(corpus.train_pairs[0].text, question_id="t0")
        system.vote("t0", answers[2][0])
        system.optimize(strategy="multi", feasibility_filter=False)
        trace = last_trace()
        records = [json.loads(line) for line in trace.to_json_lines()]
        root = records[0]
        assert root["name"] == "qa.optimize" and root["parent_id"] is None
        solver_rows = [r for r in records if r["name"] == "sgp.solve"]
        assert solver_rows and solver_rows[0]["depth"] >= 1
        rendered = trace.render()
        assert rendered.splitlines()[0].startswith("qa.optimize")
        assert "  optimize.multi_vote" in rendered

    def test_latency_histograms_recorded(self, corpus, system, fresh_registry):
        answers = system.ask(corpus.train_pairs[0].text, question_id="t0")
        system.vote("t0", answers[2][0])
        system.optimize(strategy="multi", feasibility_filter=False)
        registry = fresh_registry
        ask = registry.value("qa_ask_seconds")
        assert ask["count"] >= 1 and ask["sum"] > 0
        solve = registry.value("sgp_solve_seconds")
        assert solve["count"] >= 1
        assert registry.value("optimize_runs_total", strategy="multi-vote") == 1
        deviations = registry.value("optimize_deviation_magnitude")
        assert deviations["count"] >= 1
