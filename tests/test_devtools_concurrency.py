"""The concurrency analyzer: R008 and R010 each catch their seeded
violation on synthetic fixtures, the shipped tree is self-clean, and
the serve path provably cannot reach blocking I/O — verified both on
the real tree and by injecting an ``os.fsync`` and watching R010 fire.
"""

import shutil
import textwrap

import pytest

from repro.devtools.concurrency import (
    CONCURRENCY_RULES,
    analyze_paths,
    find_concurrency_violations,
)
from repro.utils.sync import SHARED_STATE, SharedState


def make_pkg(tmp_path, files):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, source in files.items():
        (root / name).write_text(textwrap.dedent(source))
    return root


STATES = (
    SharedState(
        name="Store._items",
        owner="pkg.store",
        guard="lock:_lock",
        description="test state under a lock",
    ),
    SharedState(
        name="Store._cache",
        owner="pkg.store",
        guard="gil-atomic",
        description="single-store cache",
    ),
    SharedState(
        name="Store._count",
        owner="pkg.store",
        guard="owner:pkg.store",
        description="owner-confined counter",
        writers=("pkg.front:Front.bump",),
    ),
)


def rules_of(tmp_path, files, states=STATES):
    root = make_pkg(tmp_path, files)
    return [
        (v.rule, v.line)
        for v in find_concurrency_violations([root], shared_state=states)
    ]


STORE_HEADER = """
    import threading


    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []
            self._cache = {}
            self._count = 0
"""


# ----------------------------------------------------------------------
# R008: ownership and lock discipline
# ----------------------------------------------------------------------
class TestR008:
    def test_unlocked_write_fires(self, tmp_path):
        files = {
            "store.py": STORE_HEADER
            + """
        def bad(self, v):
            self._items.append(v)
    """
        }
        assert [r for r, _ in rules_of(tmp_path, files)] == ["R008"]

    def test_locked_write_clean(self, tmp_path):
        files = {
            "store.py": STORE_HEADER
            + """
        def good(self, v):
            with self._lock:
                self._items.append(v)
    """
        }
        assert rules_of(tmp_path, files) == []

    def test_constructor_store_is_exempt(self, tmp_path):
        # STORE_HEADER's __init__ assigns all three states bare — the
        # pre-publication exemption keeps that legal.
        assert rules_of(tmp_path, {"store.py": STORE_HEADER}) == []

    def test_cross_module_write_fires(self, tmp_path):
        files = {
            "store.py": STORE_HEADER,
            "other.py": """
    def poke(store, v):
        store._items.append(v)
    """,
        }
        assert [r for r, _ in rules_of(tmp_path, files)] == ["R008"]

    def test_declared_writer_is_allowed(self, tmp_path):
        files = {
            "store.py": STORE_HEADER,
            "front.py": """
    class Front:
        def bump(self, store):
            store._count += 1

        def smash(self, store):
            store._count = 0
    """,
        }
        found = rules_of(tmp_path, files)
        # bump is declared in writers; smash is not.
        assert [r for r, _ in found] == ["R008"]
        assert found[0][1] == 7  # the smash line

    def test_module_global_unlocked_write_fires(self, tmp_path):
        states = (
            SharedState(
                name="ring._buffer",
                owner="pkg.ring",
                guard="lock:_ring_lock",
                description="module-global ring",
                kind="module-global",
            ),
        )
        files = {
            "ring.py": """
    import threading

    _ring_lock = threading.Lock()
    _buffer = []


    def bad(item):
        _buffer.append(item)


    def good(item):
        with _ring_lock:
            _buffer.append(item)
    """
        }
        assert [
            r for r, _ in rules_of(tmp_path, files, states)
        ] == ["R008"]

    def test_local_shadow_of_global_name_clean(self, tmp_path):
        states = (
            SharedState(
                name="ring._buffer",
                owner="pkg.ring",
                guard="lock:_ring_lock",
                description="module-global ring",
                kind="module-global",
            ),
        )
        files = {
            "ring.py": """
    import threading

    _ring_lock = threading.Lock()
    _buffer = []


    def local_only():
        _buffer = []
        return _buffer
    """
        }
        assert rules_of(tmp_path, files, states) == []


# ----------------------------------------------------------------------
# R010: serve-path purity
# ----------------------------------------------------------------------
SERVE_DECOS = """
    def serve_path(fn):
        return fn


    def serve_exempt(reason):
        def deco(fn):
            return fn
        return deco
"""


class TestR010:
    def test_blocking_fsync_on_serve_path_fires(self, tmp_path):
        files = {
            "serve.py": SERVE_DECOS
            + """

    import os


    def persist(fh):
        os.fsync(fh.fileno())


    @serve_path
    def answer(q, fh):
        persist(fh)
        return q
    """
        }
        found = rules_of(tmp_path, files, states=())
        assert [r for r, _ in found] == ["R010"]

    def test_violation_message_includes_call_chain(self, tmp_path):
        root = make_pkg(
            tmp_path,
            {
                "serve.py": textwrap.dedent(SERVE_DECOS)
                + textwrap.dedent(
                    """

    import time


    def nap():
        time.sleep(1)


    @serve_path
    def answer(q):
        nap()
        return q
    """
                )
            },
        )
        violations = find_concurrency_violations([root], shared_state=())
        assert len(violations) == 1
        assert "pkg.serve.answer -> pkg.serve.nap" in violations[0].message

    def test_serve_exempt_barrier_suppresses(self, tmp_path):
        files = {
            "serve.py": SERVE_DECOS
            + """

    import os


    @serve_exempt("accepted diagnostics cost")
    def dump(fh):
        os.fsync(fh.fileno())


    @serve_path
    def answer(q, fh):
        dump(fh)
        return q
    """
        }
        assert rules_of(tmp_path, files, states=()) == []

    def test_non_serve_safe_lock_acquisition_fires(self, tmp_path):
        states = (
            SharedState(
                name="Store._items",
                owner="pkg.serve",
                guard="lock:_big_lock",
                description="not serve-safe",
            ),
        )
        files = {
            "serve.py": SERVE_DECOS
            + """

    @serve_path
    def answer(self, q):
        with self._big_lock:
            return q
    """
        }
        assert [r for r, _ in rules_of(tmp_path, files, states)] == [
            "R010"
        ]

    def test_serve_safe_lock_acquisition_clean(self, tmp_path):
        states = (
            SharedState(
                name="Store._items",
                owner="pkg.serve",
                guard="lock:_big_lock",
                description="declared serve-safe",
                serve_safe=True,
            ),
        )
        files = {
            "serve.py": SERVE_DECOS
            + """

    @serve_path
    def answer(self, q):
        with self._big_lock:
            return q
    """
        }
        assert rules_of(tmp_path, files, states) == []


# ----------------------------------------------------------------------
# engine behaviors
# ----------------------------------------------------------------------
class TestEngine:
    def test_noqa_suppresses(self, tmp_path):
        files = {
            "store.py": STORE_HEADER
            + """
        def bad(self, v):
            self._items.append(v)  # noqa: R008
    """
        }
        assert rules_of(tmp_path, files) == []

    def test_rules_filter(self, tmp_path):
        files = {
            "store.py": STORE_HEADER
            + """
        def bad(self, v):
            self._items.append(v)
    """,
            "serve.py": SERVE_DECOS
            + """

    import os


    @serve_path
    def answer(q):
        os.fsync(0)
        return q
    """,
        }
        root = make_pkg(tmp_path, files)
        both = find_concurrency_violations([root], shared_state=STATES)
        assert {v.rule for v in both} == {"R008", "R010"}
        only_r008 = find_concurrency_violations(
            [root], rules={"R008"}, shared_state=STATES
        )
        assert {v.rule for v in only_r008} == {"R008"}

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyze_paths(["does/not/exist"])

    def test_concurrency_rules_constant(self):
        assert CONCURRENCY_RULES == {"R008", "R010"}

    def test_report_render_and_json(self, tmp_path):
        import json

        root = make_pkg(tmp_path, {"store.py": STORE_HEADER})
        report = analyze_paths([root], shared_state=STATES)
        assert report.violations == []
        payload = report.to_json()
        json.dumps(payload)  # must be serializable
        assert {row["name"] for row in payload["inventory"]} == {
            s.name for s in STATES
        }
        rendered = report.render()
        assert "shared-state inventory" in rendered
        assert "Store._cache" in rendered


# ----------------------------------------------------------------------
# the gate itself: the shipped tree honors its own declarations
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        report = analyze_paths(["src"])
        assert report.violations == [], [
            f"{v.rule} {v.path}:{v.line} {v.message}"
            for v in report.violations
        ]

    def test_every_declared_state_sees_writes(self):
        # A declared state with zero observed write sites means the
        # declaration (or the matcher) has gone stale.
        report = analyze_paths(["src"])
        silent = [
            row["name"] for row in report.inventory if row["writes"] == 0
        ]
        assert silent == []

    def test_ask_is_a_serve_root_with_barrier_report(self):
        report = analyze_paths(["src"])
        assert "repro.qa.system.QASystem.ask" in report.serve["roots"]
        assert any(
            name.endswith("FlightRecorder.trigger")
            for name in report.serve["barriers"]
        )

    def test_injected_fsync_is_caught(self, tmp_path):
        # The negative control for the acceptance property: add one
        # os.fsync to the ranking path and R010 must fire.
        target = tmp_path / "repro"
        shutil.copytree("src/repro", target)
        ranked = target / "similarity" / "top_k.py"
        source = ranked.read_text()
        import ast

        fn = next(
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and node.name == "rank_answers"
        )
        lines = source.splitlines(keepends=True)
        lines.insert(
            fn.body[0].lineno - 1,
            "    import os as _os\n    _os.fsync(0)\n",
        )
        ranked.write_text("".join(lines))
        violations = find_concurrency_violations(
            [tmp_path], rules={"R010"}
        )
        assert any(
            v.rule == "R010" and "fsync" in v.message for v in violations
        ), violations

    @pytest.mark.parametrize(
        "marker",
        [
            "        end = perf_counter()\n",  # Operation.__exit__
            "        _local.stack.pop()\n",  # a sampled-out root's exit
        ],
    )
    def test_injected_fsync_in_the_observed_exit_is_caught(self, tmp_path, marker):
        # Every timed serve-path operation leaves through observe's exit:
        # R010 must see a blocking call there too.
        target = tmp_path / "repro"
        shutil.copytree("src/repro", target)
        operation = target / "obs" / "operation.py"
        source = operation.read_text()
        assert source.count(marker) == 1
        operation.write_text(
            source.replace(
                marker, marker + "        import os as _os\n        _os.fsync(0)\n", 1
            )
        )
        violations = find_concurrency_violations(
            [tmp_path], rules={"R010"}
        )
        assert any(
            v.rule == "R010" and "fsync" in v.message for v in violations
        ), violations


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_analyze_src_is_clean(self, capsys):
        from repro.cli import main

        assert main(["analyze", "src"]) == 0
        out = capsys.readouterr().out
        assert "shared-state inventory" in out

    def test_analyze_json_format(self, capsys):
        import json

        from repro.cli import main

        assert main(["analyze", "src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["stats"]["functions"] > 0

    def test_analyze_output_file(self, tmp_path, capsys):
        import json

        from repro.cli import main

        report_path = tmp_path / "analysis.json"
        assert main(["analyze", "src", "--output", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["violations"] == []

    def test_analyze_unknown_rule_rejected(self, capsys):
        from repro.cli import main

        assert main(["analyze", "src", "--rules", "R099"]) != 0
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_runs_graph_rules(self, tmp_path, capsys):
        # lint with no rule filter now includes R008/R010 findings.
        from repro.cli import main

        pkg = make_pkg(
            tmp_path,
            {
                "serve.py": """
    import os


    def serve_path(fn):
        return fn


    @serve_path
    def answer(q):
        os.fsync(0)
        return q
    """
            },
        )
        assert main(["lint", str(pkg), "--rules", "R010"]) == 1
        out = capsys.readouterr().out
        assert "R010" in out


# ----------------------------------------------------------------------
# registry sanity
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_entries_validate(self):
        for state in SHARED_STATE:
            assert state.kind in ("attribute", "module-global")
            assert state.description

    def test_bad_guard_rejected(self):
        with pytest.raises(ValueError, match="guard"):
            SharedState(
                name="X._y", owner="pkg.x", guard="mutex", description="t"
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SharedState(
                name="X._y",
                owner="pkg.x",
                guard="gil-atomic",
                description="t",
                kind="thread-local",
            )
