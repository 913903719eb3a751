"""Tests for post-mortem rendering (repro/obs/diag.py) and ``repro-kg diag``.

The acceptance scenario at the bottom is the one the flight recorder
exists for: an armed run that hits a dense-delta fallback *and* a
contract violation must leave behind a complete bundle that renders a
full health report with no live process — via the library and via the
CLI.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.devtools.contracts import ContractViolation, check_weight_bounds
from repro.graph.augmented import AugmentedGraph
from repro.graph.generators import random_digraph
from repro.obs import MetricsRegistry
from repro.obs.diag import (
    DiagBundle,
    _merged_histogram,
    _parse_series_key,
    load_bundle,
    render_bundle_report,
    render_health_report,
)
from repro.obs.recorder import arm_recorder, disarm_recorder
from repro.serving import Patch, SimilarityEngine, SimilarityParams
from tests.engine_series import engine_series

PARAMS = SimilarityParams(k=5, max_length=6, restart_prob=0.2)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def disarmed():
    from repro.obs import recorder as mod

    previous = disarm_recorder()
    yield
    mod._active = previous


class TestSeriesKeyParsing:
    def test_bare_name(self):
        assert _parse_series_key("qa_asks_total") == ("qa_asks_total", {})

    def test_labeled_name(self):
        name, labels = _parse_series_key(
            'engine_serves_total{backend="push",engine="0"}'
        )
        assert name == "engine_serves_total"
        assert labels == {"backend": "push", "engine": "0"}


class TestMergedHistogram:
    def test_snapshot_buckets_become_cumulative(self, registry):
        h = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        merged = _merged_histogram(registry.snapshot(), "qa_ask_seconds")
        assert merged is not None
        bounds, cumulative = merged
        assert bounds == (0.1, 1.0)
        # Must match the live histogram's own cumulative view, not the
        # snapshot's raw per-bucket counts.
        assert cumulative == h.cumulative_counts() == [1, 3, 4]

    def test_label_series_merge(self, registry):
        a = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0), op="a")
        b = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0), op="b")
        a.observe(0.05)
        b.observe(0.5)
        merged = _merged_histogram(registry.snapshot(), "qa_ask_seconds")
        assert merged == ((0.1, 1.0), [1, 2, 2])

    def test_absent_metric_is_none(self, registry):
        assert _merged_histogram(registry.snapshot(), "qa_ask_seconds") is None


class TestLoadBundle:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nope")

    def test_directory_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path)

    def test_partial_bundle_loads(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"reason": "manual"}\n')
        bundle = load_bundle(tmp_path)
        assert isinstance(bundle, DiagBundle)
        assert bundle.manifest["reason"] == "manual"
        assert bundle.metrics == {}
        assert bundle.events == []


class TestHealthReport:
    def test_minimal_snapshot_still_renders(self):
        report = render_health_report({})
        assert "SLO attainment" in report
        assert "no data" in report
        assert "Serving cache" in report

    def test_live_snapshot_sections(self, registry):
        registry.counter("qa_asks_total").inc(7)
        registry.counter("engine_cache_hits_total", engine="0").inc(6)
        registry.counter("engine_cache_misses_total", engine="0").inc(2)
        registry.counter("engine_serves_total", engine="0").inc(8)
        h = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0))
        for _ in range(20):
            h.observe(0.01)
        report = render_health_report(registry.snapshot())
        assert "Workload: 7 asks" in report
        assert "75.00%" in report  # 6 hits / 8 lookups
        assert "ok" in report  # fast asks attain the SLO
        assert "ask latency" in report  # the distribution section

    def test_breach_is_visible(self, registry):
        h = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0))
        for _ in range(50):
            h.observe(5.0)
        report = render_health_report(registry.snapshot())
        assert "BREACH" in report

    def test_durability_section_sums_series(self, registry):
        registry.gauge("wal_last_seq").set(40)
        registry.gauge("wal_lag_records").set(3)
        registry.gauge("snapshot_age_seconds").set(12.5)
        report = render_health_report(registry.snapshot())
        assert "Durability" in report
        assert "12.5s" in report


def build_aug(seed=3, num_entities=14, num_answers=4, num_queries=3):
    kg = random_digraph(num_entities, avg_degree=3.0, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    for i in range(num_answers):
        aug.add_answer(
            f"a{i}",
            {entities[(i + j) % len(entities)]: 1.0 + j for j in range(3)},
        )
    for i in range(num_queries):
        aug.add_query(
            f"q{i}",
            {entities[i]: 1.0, entities[(i + 5) % len(entities)]: 2.0},
        )
    return aug


class TestEndToEndAcceptance:
    def test_armed_failure_run_yields_diagnosable_bundle(
        self, tmp_path, registry, disarmed, capsys
    ):
        """Contract violation + dense-delta fallback → complete bundle →
        ``repro-kg diag`` renders it with no live process."""
        flight_dir = tmp_path / "flight"
        arm_recorder(flight_dir, registry=registry, min_dump_interval=0.0)

        aug = build_aug()
        engine = SimilarityEngine(
            aug, params=PARAMS, registry=registry, delta_density_threshold=0.0
        )
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)  # miss → push/propagate
        engine.scores_for_query("q0", targets)  # hit
        # A weight patch too dense for localization: fallback seam fires.
        edges = sorted(((e.head, e.tail) for e in aug.kg_edges()), key=repr)[:2]

        def reweight():
            for edge in edges:
                aug.set_kg_weight(*edge, aug.kg_weight(*edge) * 0.7)
            return Patch(edges=edges)

        engine.publish(reweight)
        engine.scores_for_query("q0", targets)
        assert engine_series(engine)["engine_delta_fallbacks_total"] == 1

        with pytest.raises(ContractViolation):
            check_weight_bounds(np.array([9.0]), 0.1, 1.0, seam="e2e-test")

        disarm_recorder()
        fallback_bundles = list(flight_dir.glob("flight-*-delta_fallback"))
        violation_bundles = list(flight_dir.glob("flight-*-contract_violation"))
        assert len(fallback_bundles) == 1
        assert len(violation_bundles) == 1

        # Library rendering, straight from the files.
        bundle = load_bundle(violation_bundles[0])
        kinds = {e["kind"] for e in bundle.events}
        assert "engine.serve" in kinds
        assert "engine.delta_fallback" in kinds
        assert "contract.violation" in kinds
        report = render_bundle_report(bundle)
        assert "Flight bundle: reason='contract_violation'" in report
        assert "e2e-test" in report
        assert "Serving cache" in report
        assert "recorder events" in report

        # CLI rendering — the dead-process path operators actually use.
        assert main(["diag", str(violation_bundles[0])]) == 0
        out = capsys.readouterr().out
        assert "Flight bundle" in out
        assert "SLO attainment" in out

    def test_fallback_bundle_carries_cost_attribution(
        self, tmp_path, registry, disarmed
    ):
        flight_dir = tmp_path / "flight"
        arm_recorder(flight_dir, registry=registry, min_dump_interval=0.0)
        aug = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS, registry=registry)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        rec = disarm_recorder()
        serves = [e for e in rec.events() if e.kind == "engine.serve"]
        assert serves, "serve seam must record when armed"
        (serve,) = serves
        assert serve.attrs["cache"] == "miss"
        assert serve.latency is not None
        assert serve.attrs["backend"] == str(engine.params.backend)

    @pytest.mark.parametrize("backend", ["dense", "push"])
    def test_serve_event_fields_per_outcome(
        self, tmp_path, registry, disarmed, backend
    ):
        arm_recorder(tmp_path / "flight", registry=registry)
        aug = build_aug()
        engine = SimilarityEngine(
            aug, params=PARAMS.replace(backend=backend), registry=registry
        )
        engine.top_k("q0")  # miss
        engine.top_k("q0")  # hit
        rec = disarm_recorder()
        miss, hit = [
            {k: v for k, v in e.to_dict().items() if k not in ("kind", "t")}
            for e in rec.events()
            if e.kind == "engine.serve"
        ]
        common = {"latency", "engine", "backend", "cache", "epoch"}
        cost = {"edges_touched", "error_bound"} if backend == "push" else set()
        assert set(miss) == common | cost
        assert set(hit) == common
        assert (miss["cache"], hit["cache"]) == ("miss", "hit")
        for attrs in (miss, hit):
            assert attrs["engine"] == engine.engine_label
            assert attrs["backend"] == backend
            assert attrs["epoch"] == engine.epoch == 1
        if backend == "push":
            assert miss["edges_touched"] > 0
            assert 0.0 <= miss["error_bound"] < 1.0


class TestDiagCli:
    def test_requires_an_input(self, capsys):
        assert main(["diag"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_metrics_json_input(self, tmp_path, registry, capsys):
        h = registry.histogram("qa_ask_seconds", buckets=(0.1, 1.0))
        for _ in range(10):
            h.observe(0.02)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["diag", "--metrics-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO attainment" in out
        assert "ok" in out

    def test_missing_bundle_is_an_error(self, tmp_path, capsys):
        assert main(["diag", str(tmp_path / "nope")]) == 1
        assert "MANIFEST.json" in capsys.readouterr().err
