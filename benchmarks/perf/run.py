"""Perf harness for both loops of the system: ask, and vote → solve → publish.

Run from the repository root::

    python benchmarks/perf/run.py                      # all four workloads
    python benchmarks/perf/run.py --workload helpdesk-ask --seed 7
    python benchmarks/perf/run.py --trace              # per-layer breakdown
    python benchmarks/perf/run.py --repeat 5           # median, quartiles, spread
    python benchmarks/perf/run.py --smoke              # tiny graphs, seconds

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
the per-layer ones with ``--trace 1``).  Without it, or with
``--repeat``, each run is a fresh subprocess, one after another.  The
process exits non-zero when a correctness check fails, and refuses to
time at all when contracts or the flight recorder are armed.  See
``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: Default measured seconds per run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 16.0
SMOKE_SECONDS = 3.0
#: Head sampling of the program's own trace ring, as in production.
TRACE_SAMPLING = 100
#: A run whose median ask lateness exceeds this is marked invalid: the
#: load generator, not the program, fell behind.
MAX_ASK_LATE_P50_MS = 1.0


def _refusal() -> "str | None":
    """Why timing would be meaningless in this environment, if it would."""
    contracts = os.environ.get("REPRO_CONTRACTS", "").strip().lower()
    if contracts not in ("", "0", "false", "no", "off"):
        return "REPRO_CONTRACTS is set: contracts recompute cold on every serve"
    if os.environ.get("REPRO_FLIGHT_DIR", "").strip():
        return "REPRO_FLIGHT_DIR is set: the flight recorder arms at import"
    return None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds; BENCHMARK.json's command is run with "
        "--seconds <run_seconds>, and its bounds hold at that length only",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="traced run: report per-layer metrics (bare --trace means 1)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny graphs")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, seeds SEED..SEED+N-1; prints the spread",
    )
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def _git_sha() -> "str | None":
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> str:
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    from repro.devtools.contracts import contracts_enabled
    from repro.obs.recorder import active_recorder

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tmp_filesystem": _filesystem(OUT),
        "obs": {
            "trace_sampling": TRACE_SAMPLING,
            "recorder_armed": active_recorder() is not None,
            "contracts": contracts_enabled(),
        },
    }


def _table(rows) -> str:
    width = max((len(name) for name, _, _ in rows), default=0)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows
    )


def run_one(args) -> int:
    """One workload, in this process."""
    from repro.obs import set_trace_sampling

    import harness
    from metrics import END_TO_END, PER_LAYER, REPORTED
    from spans import Tracer
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    set_trace_sampling(TRACE_SAMPLING)
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    inputs = make_inputs(workload, args.seed, args.seconds, args.smoke)
    gen_s = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{workload.name}-{os.getpid()}"
    work_dir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        result = harness.measure(workload, inputs, args.seconds, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    suffix = "-trace" if args.trace else ""
    out = args.out or OUT / f"result-{workload.name}-{args.seed}{suffix}.json"
    if tracer is not None:
        tracer.write_jsonl(out.parent / f"trace-{workload.name}.jsonl")
    result["reported"]["gen_s"] = gen_s
    result["valid"] = result["reported"]["ask_late_p50_ms"] <= MAX_ASK_LATE_P50_MS
    result.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke, environment=_environment(),
    )
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    table = END_TO_END if not args.trace else PER_LAYER
    values = result["end_to_end"] if not args.trace else result["per_layer"]
    print(f"{workload.name} (seed {args.seed}, {args.seconds:g}s"
          f"{', traced' if args.trace else ''})")
    print(_table([(n, values[n], table[n][0]) for n in table]))
    if not args.trace:
        print("reported, not gated:")
        print(_table([
            (n, v, REPORTED[n][0]) for n, v in sorted(result["reported"].items())
        ]))
    if not result["valid"]:
        print(f"INVALID RUN: median ask lateness "
              f"{result['reported']['ask_late_p50_ms']:.3f} ms > "
              f"{MAX_ASK_LATE_P50_MS} ms")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": table[name][0]} for name in table
        },
    }), flush=True)
    return 0 if result["correct"] else 1


def _spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def run_many(args) -> int:
    """Every selected workload, ``--repeat`` times, each in a subprocess."""
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    runs = []
    status = 0
    for name in names:
        for offset in range(args.repeat):
            seed = args.seed + offset
            out = OUT / f"result-{name}-{seed}{suffix}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode != 0 or not out.is_file():
                status = 1
            if out.is_file():
                runs.append(json.loads(out.read_text()))
    key = "per_layer" if args.trace else "end_to_end"
    summary = {}
    for name in names:
        mine = [run for run in runs if run["workload"] == name]
        if not mine:
            continue
        summary[name] = {}
        print(f"\n{name}: {len(mine)} run(s)")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        merged = [
            {**run[key], **({} if args.trace else run["reported"])} for run in mine
        ]
        for metric in merged[0]:
            values = [metrics[metric] for metrics in merged]
            median, q1, q3, spread = _spread(values)
            summary[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
            print(f"  {metric:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    correct = bool(runs) and all(run["correct"] for run in runs) and not status
    print(json.dumps({
        "correct": correct,
        "runs": len(runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    refusal = _refusal()
    if refusal is not None:
        print(f"refusing to time: {refusal}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is not None and args.repeat == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
