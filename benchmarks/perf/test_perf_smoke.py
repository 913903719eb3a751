"""Wrapper-coverage smoke test for the perf harness.

Runs every workload traced on tiny graphs for a few seconds each, then
checks that every declared per-layer metric got at least one sample on
some workload, that the correctness gate passed, and that each trace
parses with valid parent links.  A moved import — a ``from … import``
rebinding the wrappers no longer reach — fails here instead of silently
zeroing a layer.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")


#: The suite may run with contracts or the recorder armed; the harness
#: refuses to time under either, so the runs under test get neither.
QUIET_ENV = {
    key: value for key, value in os.environ.items()
    if key not in ("REPRO_CONTRACTS", "REPRO_FLIGHT_DIR")
}


def _run(*args, env=QUIET_ENV):
    return subprocess.run(
        [sys.executable, RUN, "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, env=env,
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload's (process, result file, trace path), traced."""
    out = tmp_path_factory.mktemp("perf")
    runs = {}
    for name in WORKLOADS:
        result = out / f"result-{name}.json"
        done = _run("--workload", name, "--trace", "1", "--out", str(result))
        assert result.is_file(), done.stderr[-3000:]
        runs[name] = (done, json.loads(result.read_text()), out / f"trace-{name}.jsonl")
    return runs


def test_correctness_gate_passes(traced):
    for name, (done, result, _) in traced.items():
        assert done.returncode == 0, (name, result["failures"], done.stderr[-3000:])
        assert result["correct"] and result["failed"] == 0, name
        last = _last_json(done.stdout)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == set(PER_LAYER)


def test_every_layer_metric_sampled(traced):
    unsampled = [
        metric for metric in PER_LAYER
        if not any(result["samples"][metric] > 0 for _, result, _ in traced.values())
    ]
    assert not unsampled


def test_trace_parent_links(traced):
    for name, (_, _, path) in traced.items():
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent"] is None:
                continue
            parent = by_id[span["parent"]]
            assert parent["thread"] == span["thread"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_untraced_run_reports_every_end_to_end_metric():
    done = _run("--workload", "helpdesk-feedback")
    assert done.returncode == 0, done.stderr[-3000:]
    metrics = _last_json(done.stdout)["metrics"]
    assert set(metrics) == set(END_TO_END)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_refuses_to_time_with_contracts_armed():
    done = _run(
        "--workload", "helpdesk-ask", env={**QUIET_ENV, "REPRO_CONTRACTS": "1"}
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
