"""``repro.obs.observe``: one reading feeds histogram, span and event.

Also guards that it stays the program's only way to time an operation:
no module outside ``repro/obs/`` opens a bare span or hand-records a
timed recorder event.
"""

import ast
import time
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    arm_recorder,
    clear_traces,
    last_trace,
    observe,
    recent_traces,
    set_trace_sampling,
)
from repro.obs import recorder as recorder_module


@pytest.fixture(autouse=True)
def _isolated():
    """Sampling at 1, an empty ring, and the process recorder restored."""
    previous = recorder_module.disarm_recorder()
    clear_traces()
    yield
    set_trace_sampling(1)
    clear_traces()
    recorder_module._active = previous


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def histogram(registry):
    return registry.histogram("qa_ask_seconds")


def armed(tmp_path, registry):
    return arm_recorder(tmp_path / "flight", registry=registry, slow_thresholds={})


def _sample_out_the_next_root():
    """Sampling at 100 with its first (always traced) root spent."""
    set_trace_sampling(100)
    with observe("qa.ask"):
        pass
    return len(recent_traces())


class TestOneReading:
    def test_histogram_span_and_event_agree(self, tmp_path, registry, histogram):
        rec = armed(tmp_path, registry)
        with observe("qa.ask", histogram, question_id="q0") as op:
            time.sleep(0.001)
            assert op.recording
            op.set(num_answers=3)
        assert op.elapsed >= 0.001
        assert (histogram.count, histogram.sum) == (1, op.elapsed)
        span = last_trace().root
        assert span.name == "qa.ask"
        assert span.duration == op.elapsed
        (event,) = rec.events()
        assert event.kind == "qa.ask"
        assert event.latency == op.elapsed
        assert event.to_dict()["latency"] == pytest.approx(op.elapsed, abs=1e-6)
        expected = {"question_id": "q0", "num_answers": 3}
        assert span.attrs == event.attrs == expected

    def test_nested_operations_build_the_trace_tree(self):
        with observe("qa.ask"):
            with observe("engine.serve") as serve:
                with observe("engine.propagate", batch=1):
                    pass
                serve.set(cache="miss")
        trace = last_trace()
        assert trace.span_names() == ["qa.ask", "engine.serve", "engine.propagate"]
        assert trace.find("engine.serve").attrs == {"cache": "miss"}

    def test_exception_closes_the_operation_once(
        self, tmp_path, registry, histogram
    ):
        rec = armed(tmp_path, registry)
        with pytest.raises(KeyError):
            with observe("qa.ask", histogram, question_id="q0") as op:
                raise KeyError("missing")
        assert histogram.count == 1
        assert histogram.sum == op.elapsed
        span = last_trace().root
        assert span.attrs["error"] == "KeyError"
        assert span.duration == op.elapsed
        (event,) = rec.events()
        assert event.attrs == {"question_id": "q0", "error": "KeyError"}
        assert event.latency == op.elapsed


class TestSampledOut:
    def test_sampled_out_and_disarmed_still_feeds_the_histogram(
        self, histogram
    ):
        traces = _sample_out_the_next_root()
        with observe("qa.ask", histogram, question_id="q1") as op:
            assert not op.recording
        assert histogram.count == 1
        assert histogram.sum == op.elapsed > 0
        assert len(recent_traces()) == traces

    def test_nested_under_a_sampled_out_root_feeds_its_histogram(
        self, registry
    ):
        propagate = registry.histogram("engine_propagate_seconds")
        traces = _sample_out_the_next_root()
        with observe("qa.ask"):
            with observe("engine.serve") as serve:
                with observe("engine.propagate", propagate) as inner:
                    pass
        assert not serve.recording and not inner.recording
        assert propagate.count == 1
        assert propagate.sum == inner.elapsed > 0
        # An operation nothing records still measures its elapsed time.
        assert serve.elapsed >= inner.elapsed
        assert len(recent_traces()) == traces

    def test_armed_recorder_sees_sampled_out_operations(self, tmp_path, registry):
        rec = armed(tmp_path, registry)
        traces = _sample_out_the_next_root()
        with observe("qa.ask"):
            with observe("engine.serve") as serve:
                assert serve.recording
                serve.set(cache="hit")
        assert len(recent_traces()) == traces
        kinds = [(e.kind, e.attrs) for e in rec.events()]
        assert kinds[-2:] == [("engine.serve", {"cache": "hit"}), ("qa.ask", {})]


class TestOnePrimitive:
    def test_program_code_times_only_through_observe(self):
        """Outside ``repro/obs/`` nothing opens a bare span or records a
        timed event by hand: each operation is one ``observe`` call."""
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = []
        for path in sorted(package.rglob("*.py")):
            if path.relative_to(package).parts[0] == "obs":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if name in ("trace_span", "record_timed"):
                    offenders.append(f"{path}:{node.lineno}: {name}")
        assert offenders == []
