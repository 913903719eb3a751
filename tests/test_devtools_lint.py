"""The custom AST lint pass: every rule catches its seeded violation,
suppression and exemptions work, and the shipped source tree is clean.
"""

import textwrap

import pytest

from repro.devtools.lint import (
    RULES,
    LintViolation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
)


def rules_of(source, **kwargs):
    return [v.rule for v in lint_source(textwrap.dedent(source), **kwargs)]


# ----------------------------------------------------------------------
# R001: CSR buffer mutation
# ----------------------------------------------------------------------
class TestR001:
    def test_subscript_assignment_fires(self):
        assert rules_of("matrix.data[3] = 0.5\n") == ["R001"]

    def test_aug_assignment_fires(self):
        assert rules_of("self._matrix.data[pos] *= 2.0\n") == ["R001"]

    def test_buffer_rebinding_fires(self):
        assert rules_of("m.indptr = new_indptr\n") == ["R001"]

    def test_indices_fires(self):
        assert rules_of("m.indices[0] = 7\n") == ["R001"]

    def test_unrelated_attribute_clean(self):
        assert rules_of("m.values[3] = 0.5\nself.data = {}\n") == []

    def test_engine_file_is_exempt(self):
        assert (
            rules_of(
                "m.data[3] = 0.5\n", path="src/repro/serving/engine.py"
            )
            == []
        )


# ----------------------------------------------------------------------
# R002: obs names must come from the catalog
# ----------------------------------------------------------------------
class TestR002:
    def test_unknown_span_fires(self):
        assert rules_of("with trace_span('qa.bogus'):\n    pass\n") == ["R002"]

    def test_known_span_clean(self):
        assert rules_of("with trace_span('qa.ask'):\n    pass\n") == []

    def test_unknown_counter_fires(self):
        assert rules_of("registry.counter('typo_total').inc()\n") == ["R002"]

    def test_known_counter_clean(self):
        assert rules_of("registry.counter('qa_asks_total').inc()\n") == []

    def test_unknown_histogram_fires(self):
        assert rules_of("r.histogram('wat_seconds').observe(1)\n") == ["R002"]

    def test_dynamic_name_not_flagged(self):
        # Only literal first arguments are checkable statically.
        assert rules_of("registry.counter(name).inc()\n") == []

    def test_unknown_observed_operation_fires(self):
        assert rules_of("with observe('ghost.op'):\n    pass\n") == ["R002"]

    def test_known_observed_operation_clean(self):
        assert rules_of("with observe('qa.ask', histogram):\n    pass\n") == []

    def test_unknown_driver_run_fires(self):
        assert rules_of(
            "with observe_run('optimize.ghost', report):\n    pass\n"
        ) == ["R002"]


# ----------------------------------------------------------------------
# R003: print in library code
# ----------------------------------------------------------------------
class TestR003:
    def test_print_fires(self):
        assert rules_of("print('debugging')\n") == ["R003"]

    def test_logging_clean(self):
        assert rules_of("import logging\nlogging.getLogger(__name__).info('x')\n") == []


# ----------------------------------------------------------------------
# R004: module-level / unseeded randomness
# ----------------------------------------------------------------------
class TestR004:
    def test_stdlib_random_import_fires(self):
        assert rules_of("import random\n") == ["R004"]

    def test_stdlib_random_from_import_fires(self):
        assert rules_of("from random import choice\n") == ["R004"]

    def test_legacy_global_state_fires(self):
        assert rules_of(
            """
            import numpy as np

            def f():
                return np.random.rand(3)
            """
        ) == ["R004"]

    def test_unseeded_default_rng_fires(self):
        assert rules_of(
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """
        ) == ["R004"]

    def test_module_level_rng_fires(self):
        assert rules_of(
            "import numpy as np\nRNG = np.random.default_rng(0)\n"
        ) == ["R004"]

    def test_seeded_rng_in_function_clean(self):
        assert rules_of(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_from_import_unseeded_default_rng_fires(self):
        assert rules_of(
            """
            from numpy.random import default_rng

            def f():
                return default_rng()
            """
        ) == ["R004"]

    def test_from_import_seeded_default_rng_clean(self):
        assert rules_of(
            """
            from numpy.random import default_rng

            def f(seed):
                return default_rng(seed)
            """
        ) == []

    def test_from_import_aliased_unseeded_fires(self):
        assert rules_of(
            """
            from numpy.random import default_rng as mk

            def f():
                return mk()
            """
        ) == ["R004"]

    def test_generator_construction_fires_attribute_form(self):
        assert rules_of(
            """
            import numpy as np

            def f(bitgen):
                return np.random.Generator(bitgen)
            """
        ) == ["R004"]

    def test_generator_construction_fires_from_import_form(self):
        assert rules_of(
            """
            from numpy.random import Generator

            def f(bitgen):
                return Generator(bitgen)
            """
        ) == ["R004"]

    def test_generator_annotation_clean(self):
        # Type annotations mention Generator without constructing one.
        assert rules_of(
            """
            import numpy as np

            def f(rng: "np.random.Generator"):
                return rng
            """
        ) == []

    def test_rng_module_is_exempt(self):
        assert (
            rules_of("import random\n", path="src/repro/utils/rng.py") == []
        )


# ----------------------------------------------------------------------
# R005: raw time.time()
# ----------------------------------------------------------------------
class TestR005:
    def test_time_time_fires(self):
        assert rules_of(
            "import time\n\ndef f():\n    return time.time()\n"
        ) == ["R005"]

    def test_from_import_alias_fires(self):
        assert rules_of(
            "from time import time as now\n\ndef f():\n    return now()\n"
        ) == ["R005"]

    def test_perf_counter_clean(self):
        assert rules_of(
            "import time\n\ndef f():\n    return time.perf_counter()\n"
        ) == []


# ----------------------------------------------------------------------
# R006: direct similarity-kernel calls outside similarity/
# ----------------------------------------------------------------------
class TestR006:
    def test_bare_kernel_call_fires(self):
        assert rules_of("scores = inverse_pdistance(g, q, targets)\n") == [
            "R006"
        ]

    def test_attribute_kernel_call_fires(self):
        assert rules_of(
            "import repro\n\nv = repro.ppr_vector(g, q)\n"
        ) == ["R006"]

    def test_batch_variant_fires(self):
        assert rules_of("inverse_pdistance_batch(g, qs, pool)\n") == ["R006"]

    def test_backend_resolution_clean(self):
        assert rules_of(
            """
            from repro.similarity.backend import get_backend

            def f(graph, query, targets, params):
                return get_backend(params.backend).scores(
                    graph, query, targets, params=params
                )
            """
        ) == []

    def test_import_alone_clean(self):
        # Importing constants from the kernel module is fine; only
        # *calls* bypass get_backend.
        assert rules_of(
            "from repro.similarity.inverse_pdistance import DEFAULT_MAX_LENGTH\n"
        ) == []

    def test_similarity_package_is_exempt(self):
        assert (
            rules_of(
                "inverse_pdistance(g, q, targets)\n",
                path="src/repro/similarity/backend.py",
            )
            == []
        )

    def test_relative_similarity_path_is_exempt(self):
        assert (
            rules_of(
                "ppr_scores = ppr_vector(g, q)\n",
                path="similarity/top_k.py",
            )
            == []
        )


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_noqa_bare_suppresses_everything(self):
        assert rules_of("print('x')  # noqa\n") == []

    def test_noqa_specific_rule_suppresses(self):
        assert rules_of("print('x')  # noqa: R003\n") == []

    def test_noqa_other_rule_does_not_suppress(self):
        assert rules_of("print('x')  # noqa: R001\n") == ["R003"]

    def test_rules_filter(self):
        source = "import random\nprint('x')\n"
        assert rules_of(source) == ["R004", "R003"] or rules_of(source) == [
            "R004",
            "R003",
        ]
        assert rules_of(source, rules={"R003"}) == ["R003"]

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n")
        assert [v.rule for v in violations] == ["E999"]

    def test_violations_sorted_by_location(self):
        source = "print('b')\nimport random\n"
        violations = lint_source(source)
        assert [v.line for v in violations] == sorted(
            v.line for v in violations
        )

    def test_render_is_editor_clickable(self):
        violation = LintViolation("R003", "pkg/mod.py", 3, 0, "no print")
        assert violation.render() == "pkg/mod.py:3:0: R003 no print"

    def test_format_violations_clean(self):
        assert format_violations([]) == "lint: clean"

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["does/not/exist"])

    def test_lint_file_reads_disk(self, tmp_path):
        target = tmp_path / "sample.py"
        target.write_text("print('x')\n")
        assert [v.rule for v in lint_file(target)] == ["R003"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("import random\n")
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        violations = lint_paths([tmp_path])
        assert [v.rule for v in violations] == ["R004"]

    def test_every_rule_has_a_description(self):
        assert set(RULES) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008", "R010",
        }
        assert all(RULES.values())

    def test_graph_rules_are_declared_rules(self):
        from repro.devtools.lint import GRAPH_RULES

        assert GRAPH_RULES == {"R008", "R010"}
        assert GRAPH_RULES <= set(RULES)

    def test_violations_to_json_shape(self):
        from repro.devtools.lint import violations_to_json

        payload = violations_to_json(
            [LintViolation("R003", "pkg/mod.py", 3, 0, "no print")]
        )
        assert payload["clean"] is False
        assert payload["count"] == 1
        assert payload["violations"][0] == {
            "rule": "R003",
            "path": "pkg/mod.py",
            "line": 3,
            "col": 0,
            "message": "no print",
        }
        assert violations_to_json([]) == {
            "clean": True,
            "count": 0,
            "violations": [],
        }


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_shipped_source_tree_is_clean(self):
        violations = lint_paths(["src"])
        assert violations == [], format_violations(violations)

    def test_obs_catalog_is_internally_consistent(self):
        from repro.obs.catalog import catalog_errors

        assert catalog_errors() == []

    def test_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["lint", "src"]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("print('x')\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R003" in out

    def test_cli_lint_json_format(self, tmp_path, capsys):
        import json

        from repro.cli import main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("print('x')\n")
        assert (
            main(["lint", str(dirty), "--rules", "R003", "--format", "json"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["violations"][0]["rule"] == "R003"
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert (
            main(["lint", str(clean), "--rules", "R003", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"clean": True, "count": 0, "violations": []}


# ----------------------------------------------------------------------
# R007: dead catalog entries (the inverse of R002)
# ----------------------------------------------------------------------
class TestR007:
    @staticmethod
    def _tree(tmp_path, source):
        (tmp_path / "mod.py").write_text(textwrap.dedent(source))
        return [tmp_path]

    def test_phantom_metric_fires(self, tmp_path):
        from repro.devtools.lint import find_dead_series

        paths = self._tree(
            tmp_path, 'registry.counter("qa_asks_total").inc()\n'
        )
        violations = find_dead_series(
            paths,
            metrics=["qa_asks_total", "phantom_series_total"],
            spans=[],
        )
        assert [v.rule for v in violations] == ["R007"]
        assert "phantom_series_total" in violations[0].message
        assert violations[0].path.endswith("catalog.py")

    def test_phantom_span_fires(self, tmp_path):
        from repro.devtools.lint import find_dead_series

        paths = self._tree(tmp_path, 'with trace_span("qa.ask"):\n    pass\n')
        violations = find_dead_series(
            paths, metrics=[], spans=["qa.ask", "ghost.span"]
        )
        assert [v.rule for v in violations] == ["R007"]
        assert "ghost.span" in violations[0].message

    def test_fully_emitted_catalog_is_clean(self, tmp_path):
        from repro.devtools.lint import find_dead_series

        paths = self._tree(
            tmp_path,
            '''
            with trace_span("qa.ask"):
                registry.counter("qa_asks_total").inc()
                registry.gauge("engine_cache_entries").set(1)
                registry.histogram("qa_ask_seconds").observe(0.1)
            ''',
        )
        assert find_dead_series(
            paths,
            metrics=["qa_asks_total", "engine_cache_entries", "qa_ask_seconds"],
            spans=["qa.ask"],
        ) == []

    def test_span_emitted_only_through_observe_is_not_dead(self, tmp_path):
        from repro.devtools.lint import find_dead_series

        paths = self._tree(
            tmp_path,
            '''
            with observe("engine.serve") as op:
                op.set(cache="hit")
            with observe_run("optimize.multi_vote", report):
                pass
            ''',
        )
        assert find_dead_series(
            paths,
            metrics=[],
            spans=["engine.serve", "optimize.multi_vote"],
        ) == []
        violations = find_dead_series(
            paths, metrics=[], spans=["engine.serve", "engine.serve_batch"]
        )
        assert [v.rule for v in violations] == ["R007"]
        assert "engine.serve_batch" in violations[0].message

    def test_local_alias_idiom_counts_as_emitted(self, tmp_path):
        from repro.devtools.lint import collect_emitted_names

        paths = self._tree(
            tmp_path,
            '''
            counter = registry.counter
            counter("engine_serves_total", engine="0")
            ''',
        )
        metrics, spans = collect_emitted_names(paths)
        assert metrics == {"engine_serves_total"}
        assert spans == set()

    def test_dynamic_names_are_invisible(self, tmp_path):
        from repro.devtools.lint import collect_emitted_names

        paths = self._tree(
            tmp_path, 'registry.counter(f"made_{kind}_total").inc()\n'
        )
        metrics, _ = collect_emitted_names(paths)
        assert metrics == set()

    def test_shipped_catalog_has_no_dead_series(self):
        from repro.devtools.lint import find_dead_series

        violations = find_dead_series(["src"])
        assert violations == [], format_violations(violations)

    def test_cli_lint_runs_r007(self, tmp_path, capsys):
        from repro.cli import main

        # A clean file emits nothing, so every catalog entry is dead
        # from this tree's point of view — restricting to R007 must
        # fail loudly rather than report "clean".
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), "--rules", "R007"]) == 1
        out = capsys.readouterr().out
        assert "R007" in out
        # And the shipped tree passes the same gate.
        assert main(["lint", "src", "--rules", "R007"]) == 0
