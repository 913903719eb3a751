"""Tests for the flight recorder (repro/obs/recorder.py).

Covers the ring-buffer cost model (bounded, drop-counted), the trigger
seams (slow observed operations, contract violations), dump rate
limiting, and the bundle format — every file a post-mortem needs,
parseable without the live process.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.devtools.contracts import ContractViolation, check_weight_bounds
from repro.obs import MetricsRegistry, observe, trace_span
from repro.obs.recorder import (
    BUNDLE_FILES,
    BUNDLE_SCHEMA_VERSION,
    FlightRecorder,
    active_recorder,
    arm_recorder,
    disarm_recorder,
    record_violation,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def disarmed():
    """Run a test with no process-wide recorder; restore the prior one."""
    from repro.obs import recorder as mod

    previous = disarm_recorder()
    yield
    mod._active = previous


def make_recorder(tmp_path, registry, **kwargs):
    kwargs.setdefault("min_dump_interval", 0.0)
    return FlightRecorder(tmp_path / "flight", registry=registry, **kwargs)


def arm(tmp_path, registry, **kwargs):
    """Arm a process-wide recorder, the one ``observe`` appends to."""
    kwargs.setdefault("min_dump_interval", 0.0)
    return arm_recorder(tmp_path / "flight", registry=registry, **kwargs)


class TestRing:
    def test_bounded_with_drop_accounting(self, tmp_path, registry):
        rec = make_recorder(tmp_path, registry, capacity=3)
        for i in range(5):
            rec.record("qa.ask", i=i)
        events = rec.events()
        assert [e.attrs["i"] for e in events] == [2, 3, 4]  # oldest evicted
        assert registry.counter("obs_recorder_events_total").value == 5
        assert registry.counter("obs_recorder_dropped_total").value == 2

    def test_capacity_must_be_positive(self, tmp_path, registry):
        with pytest.raises(ValueError):
            make_recorder(tmp_path, registry, capacity=0)

    def test_event_to_dict_flattens_attrs(self, tmp_path, registry):
        rec = make_recorder(tmp_path, registry)
        rec.record("engine.serve", cache="hit", epoch=3)
        (event,) = rec.events()
        d = event.to_dict()
        assert d["kind"] == "engine.serve"
        assert d["cache"] == "hit" and d["epoch"] == 3
        assert isinstance(d["t"], float)


class TestTimedAndTriggers:
    def test_record_timed_attaches_latency(self, tmp_path, registry, disarmed):
        """An observed operation's event carries its latency."""
        rec = arm(tmp_path, registry)
        with observe("qa.ask", question_id="q1") as op:
            time.sleep(0.002)
        (event,) = rec.events()
        assert event.kind == "qa.ask"
        assert event.latency == op.elapsed >= 0.002
        assert event.attrs == {"question_id": "q1"}
        assert event.to_dict()["latency"] == round(op.elapsed, 6)

    def test_slow_op_triggers_dump(self, tmp_path, registry, disarmed):
        arm(tmp_path, registry, slow_thresholds={"qa.ask": 0.001})
        with observe("qa.ask"):
            time.sleep(0.01)
        bundles = list((tmp_path / "flight").glob("flight-*-slow_op"))
        assert len(bundles) == 1

    def test_fast_op_does_not_trigger(self, tmp_path, registry, disarmed):
        arm(tmp_path, registry, slow_thresholds={"qa.ask": 1.0})
        with observe("qa.ask"):
            pass
        assert not (tmp_path / "flight").exists()

    def test_unthresholded_kind_never_self_triggers(
        self, tmp_path, registry, disarmed
    ):
        arm(tmp_path, registry, slow_thresholds={})
        with observe("qa.ask"):
            time.sleep(0.01)
        assert not (tmp_path / "flight").exists()

    def test_rate_limit_suppresses_back_to_back_dumps(self, tmp_path, registry):
        rec = FlightRecorder(
            tmp_path / "flight", registry=registry, min_dump_interval=3600.0
        )
        first = rec.trigger("slo_breach")
        second = rec.trigger("slo_breach")
        assert first is not None
        assert second is None
        assert registry.counter("obs_recorder_dumps_total").value == 1

    def test_max_dumps_cap(self, tmp_path, registry):
        rec = make_recorder(tmp_path, registry, max_dumps=2)
        assert rec.trigger("a") is not None
        assert rec.trigger("b") is not None
        assert rec.trigger("c") is None
        assert registry.counter("obs_recorder_dumps_total").value == 2

    def test_dump_bypasses_limits(self, tmp_path, registry):
        rec = FlightRecorder(
            tmp_path / "flight",
            registry=registry,
            min_dump_interval=3600.0,
            max_dumps=1,
        )
        assert rec.dump().is_dir()
        assert rec.dump().is_dir()  # no rate limit, no cap

    def test_reason_is_sanitized_in_dir_name(self, tmp_path, registry):
        rec = make_recorder(tmp_path, registry)
        bundle = rec.dump(reason="weird/../reason !")
        assert "/.." not in bundle.name
        assert bundle.name.startswith("flight-001-")


class TestBundleFormat:
    def test_bundle_is_complete_and_parseable(self, tmp_path, registry, disarmed):
        registry.counter("qa_asks_total").inc(3)
        rec = arm(tmp_path, registry)
        rec.record("qa.ask", question_id="q0")
        with observe("engine.serve", cache="hit"):
            time.sleep(0.004)
        with trace_span("qa.ask"):
            pass
        bundle = rec.dump(reason="manual", detail="test dump")

        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["schema_version"] == BUNDLE_SCHEMA_VERSION
        assert manifest["reason"] == "manual"
        assert manifest["detail"] == "test dump"
        assert manifest["num_events"] == 2
        assert manifest["files"] == list(BUNDLE_FILES)
        for name in BUNDLE_FILES:
            assert (bundle / name).is_file()

        events = [
            json.loads(line)
            for line in (bundle / "events.jsonl").read_text().splitlines()
        ]
        assert [e["kind"] for e in events] == ["qa.ask", "engine.serve"]
        assert "latency" not in events[0]
        assert events[1]["latency"] >= 0.004
        assert events[1]["cache"] == "hit"

        metrics = json.loads((bundle / "metrics.json").read_text())
        assert metrics["qa_asks_total"] == 3

    def test_non_json_attrs_fall_back_to_repr(self, tmp_path, registry):
        rec = make_recorder(tmp_path, registry)
        rec.record("qa.ask", payload=object())
        bundle = rec.dump()
        (event,) = [
            json.loads(line)
            for line in (bundle / "events.jsonl").read_text().splitlines()
        ]
        assert event["payload"].startswith("<object object")


class TestArming:
    def test_arm_and_disarm_roundtrip(self, tmp_path, registry, disarmed):
        assert active_recorder() is None
        rec = arm_recorder(tmp_path / "flight", registry=registry)
        assert active_recorder() is rec
        assert disarm_recorder() is rec
        assert active_recorder() is None

    def test_rearming_replaces(self, tmp_path, registry, disarmed):
        first = arm_recorder(tmp_path / "a", registry=registry)
        second = arm_recorder(tmp_path / "b", registry=registry)
        assert first is not second
        assert active_recorder() is second

    def test_env_variable_arms_on_import(self, tmp_path):
        env = dict(os.environ, REPRO_FLIGHT_DIR=str(tmp_path / "flight"))
        env["PYTHONPATH"] = "src"
        code = (
            "from repro.obs.recorder import active_recorder\n"
            "rec = active_recorder()\n"
            "assert rec is not None, 'env arming failed'\n"
            "print(rec.dump_dir)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.getcwd(),
        )
        assert out.returncode == 0, out.stderr
        assert str(tmp_path / "flight") in out.stdout


class TestViolationHook:
    def test_record_violation_is_noop_when_disarmed(self, disarmed):
        record_violation("seam", "message")  # must not raise

    def test_record_violation_records_and_dumps(
        self, tmp_path, registry, disarmed
    ):
        arm_recorder(
            tmp_path / "flight", registry=registry, min_dump_interval=0.0
        )
        record_violation("delta.revalidate", "scores diverged")
        rec = active_recorder()
        (event,) = rec.events()
        assert event.kind == "contract.violation"
        assert event.attrs["seam"] == "delta.revalidate"
        bundles = list((tmp_path / "flight").glob("flight-*-contract_violation"))
        assert len(bundles) == 1

    def test_contract_violation_seam_fires_recorder(
        self, tmp_path, registry, disarmed
    ):
        # The suite runs contracts-armed (tests/conftest.py), so a bad
        # weight vector raises — and the recorder hook must have fired
        # *before* the raise, capturing the ring at violation time.
        arm_recorder(
            tmp_path / "flight", registry=registry, min_dump_interval=0.0
        )
        with pytest.raises(ContractViolation):
            check_weight_bounds(np.array([5.0]), 0.1, 1.0, seam="test-seam")
        rec = active_recorder()
        kinds = [e.kind for e in rec.events()]
        assert "contract.violation" in kinds
        bundles = list((tmp_path / "flight").glob("flight-*-contract_violation"))
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "MANIFEST.json").read_text())
        assert "test-seam" in manifest["detail"]
