"""The AST call-graph builder: edges resolve through self/typed/import
paths, CHA stays suppressed for builtin-container method names, and
``@serve_path`` reachability honors ``@serve_exempt`` barriers.
"""

import textwrap

import pytest

from repro.devtools.callgraph import (
    CHA_SUPPRESSED,
    build_call_graph,
)


@pytest.fixture()
def pkg(tmp_path):
    """A small synthetic package exercising every resolution path."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "store.py").write_text(
        textwrap.dedent(
            """
            import os


            def helper(x):
                return x + 1


            class Store:
                def __init__(self):
                    self.items = []

                def put(self, value):
                    self.items.append(value)
                    return helper(value)

                def persist(self, fh):
                    fh.flush()
                    os.fsync(fh.fileno())

                def append(self, value):
                    # same name as list.append: CHA must not link
                    # untyped x.append(...) calls here
                    self.put(value)
            """
        )
    )
    (root / "serve.py").write_text(
        textwrap.dedent(
            """
            import time

            from pkg.store import Store, helper


            def serve_path(fn):
                return fn


            def serve_exempt(reason):
                def deco(fn):
                    return fn
                return deco


            @serve_exempt("diagnostics dump is an accepted cost")
            def diagnostics():
                with open("/tmp/x", "w") as fh:
                    fh.write("x")


            def slow():
                time.sleep(1)


            @serve_path
            def answer(q):
                s = Store()
                s.put(q)
                diagnostics()
                return helper(q)


            def untyped_append(x, value):
                x.append(value)
            """
        )
    )
    return build_call_graph([root])


class TestIndexing:
    def test_modules_and_functions_indexed(self, pkg):
        assert set(pkg.modules) == {"pkg", "pkg.store", "pkg.serve"}
        assert "pkg.store.Store.put" in pkg.functions
        assert "pkg.store.helper" in pkg.functions
        assert "pkg.serve.answer" in pkg.functions

    def test_methods_by_name(self, pkg):
        assert pkg.methods_by_name["put"] == ["pkg.store.Store.put"]

    def test_module_import_edges(self, pkg):
        assert "pkg.store" in pkg.module_imports["pkg.serve"]

    def test_syntax_error_file_skipped(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        graph = build_call_graph([tmp_path])
        assert graph.functions == {}


class TestResolution:
    def edges(self, pkg, qualname):
        return {site.target for site in pkg.callees(qualname)}

    def test_self_method_edge(self, pkg):
        assert "pkg.store.Store.put" in self.edges(pkg, "pkg.store.Store.append")

    def test_bare_function_edge(self, pkg):
        assert "pkg.store.helper" in self.edges(pkg, "pkg.store.Store.put")

    def test_imported_function_edge(self, pkg):
        assert "pkg.store.helper" in self.edges(pkg, "pkg.serve.answer")

    def test_typed_receiver_edge(self, pkg):
        # s = Store(); s.put(q) resolves through local type inference.
        sites = {
            site.target: site.via for site in pkg.callees("pkg.serve.answer")
        }
        assert sites.get("pkg.store.Store.put") == "typed"

    def test_external_call_target(self, pkg):
        assert "ext:os.fsync" in self.edges(pkg, "pkg.store.Store.persist")

    def test_external_time_sleep(self, pkg):
        assert "ext:time.sleep" in self.edges(pkg, "pkg.serve.slow")

    def test_open_write_mode_classified(self, pkg):
        assert "ext:open[w]" in self.edges(pkg, "pkg.serve.diagnostics")


class TestChaSuppression:
    def test_container_method_names_suppressed(self):
        assert {"append", "add", "get", "update", "pop", "write"} <= (
            CHA_SUPPRESSED
        )

    def test_untyped_append_does_not_link_to_store(self, pkg):
        # Store.append exists, but x.append on an unknown receiver must
        # not produce a CHA edge — list.append is the likely meaning.
        targets = {
            site.target for site in pkg.callees("pkg.serve.untyped_append")
        }
        assert "pkg.store.Store.append" not in targets

    def test_typed_receiver_still_resolves_suppressed_name(self, pkg):
        # self.items.append inside Store.put: also no false edge.
        targets = {site.target for site in pkg.callees("pkg.store.Store.put")}
        assert "pkg.store.Store.append" not in targets


class TestReachability:
    def test_serve_roots_detected(self, pkg):
        assert [fn.qualname for fn in pkg.serve_roots()] == [
            "pkg.serve.answer"
        ]

    def test_reachable_closure(self, pkg):
        reach = pkg.reachable(["pkg.serve.answer"])
        assert "pkg.store.Store.put" in reach.functions
        assert "pkg.store.helper" in reach.functions
        # slow() is never called from the root
        assert "pkg.serve.slow" not in reach

    def test_serve_exempt_is_barrier(self, pkg):
        reach = pkg.reachable(["pkg.serve.answer"])
        assert reach.barriers == {
            "pkg.serve.diagnostics": "diagnostics dump is an accepted cost"
        }
        # barrier excluded from .functions, so its open[w] never counts
        assert "pkg.serve.diagnostics" not in reach.functions

    def test_path_and_render(self, pkg):
        reach = pkg.reachable(["pkg.serve.answer"])
        assert reach.path("pkg.store.helper")[0] == "pkg.serve.answer"
        assert reach.path("pkg.store.helper")[-1] == "pkg.store.helper"
        rendered = reach.render_path("pkg.store.Store.put")
        assert rendered.startswith("pkg.serve.answer")
        assert " -> " in rendered

    def test_external_calls_exclude_barriers(self, pkg):
        reach = pkg.reachable(["pkg.serve.answer"])
        externals = {
            site.target for _, site in pkg.external_calls(reach)
        }
        assert "ext:open[w]" not in externals

    def test_root_is_never_its_own_barrier(self, pkg):
        # A @serve_exempt function used AS a root is still traversed.
        reach = pkg.reachable(["pkg.serve.diagnostics"])
        assert "pkg.serve.diagnostics" in reach.functions


class TestToJson:
    def test_shape_is_stable_and_serializable(self, pkg):
        import json

        payload = pkg.to_json()
        assert set(payload) >= {"modules", "functions", "module_imports"}
        assert "pkg.serve.answer" in payload["functions"]
        json.dumps(payload)  # must not raise


class TestWithStatements:
    def test_with_links_enter_and_exit_of_the_returned_context(self, tmp_path):
        root = tmp_path / "ctx"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "ops.py").write_text(
            textwrap.dedent(
                """
                import os


                class Quiet:
                    def __enter__(self):
                        return self

                    def __exit__(self, *exc):
                        return False


                class Loud:
                    def __exit__(self, *exc):
                        return False


                class Louder(Loud):
                    def __exit__(self, *exc):
                        os.fsync(0)


                def op(name) -> "Quiet | Loud":
                    return Quiet() if name else Loud()


                def serve():
                    with op("x"):
                        pass
                """
            )
        )
        graph = build_call_graph([root])
        targets = {(s.target, s.via) for s in graph.callees("ctx.ops.serve")}
        assert ("ctx.ops.Quiet.__enter__", "with") in targets
        assert ("ctx.ops.Quiet.__exit__", "with") in targets
        assert ("ctx.ops.Loud.__exit__", "with") in targets
        # A subclass of an annotated class may be what the call returns.
        assert ("ctx.ops.Louder.__exit__", "with") in targets
        reach = graph.reachable(["ctx.ops.serve"])
        externals = {site.target for _, site in graph.external_calls(reach)}
        assert "ext:os.fsync" in externals


class TestRealTree:
    def test_src_builds_and_finds_serve_roots(self):
        graph = build_call_graph(["src"])
        roots = {fn.qualname for fn in graph.serve_roots()}
        assert "repro.qa.system.QASystem.ask" in roots

    def test_ask_cannot_reach_fsync_or_snapshot_writes(self):
        # The acceptance property: the serve path is provably pure.
        graph = build_call_graph(["src"])
        reach = graph.reachable(["repro.qa.system.QASystem.ask"])
        externals = {site.target for _, site in graph.external_calls(reach)}
        assert "ext:os.fsync" not in externals
        assert "ext:open[w]" not in externals
        assert "ext:os.replace" not in externals
        # The optimizer worker's solver process is spawned off the ask path.
        assert not any(t.startswith("ext:subprocess.") for t in externals)

    def test_ask_proof_covers_the_observed_exit_path(self):
        graph = build_call_graph(["src"])
        reach = graph.reachable(["repro.qa.system.QASystem.ask"])
        assert "repro.obs.operation.Operation.__exit__" in reach.functions
        assert "repro.obs.recorder.FlightRecorder.append_event" in reach.functions
        assert "repro.obs.recorder.FlightRecorder.trigger" in reach.barriers
