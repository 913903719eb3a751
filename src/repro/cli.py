"""Command-line interface: run the paper's experiments from a shell.

Installed as the ``repro-kg`` console script::

    repro-kg datasets                      # Table II registry
    repro-kg demo                          # the ask/vote/optimize loop
    repro-kg effectiveness --seed 11       # Tables IV/V in miniature
    repro-kg scaling --votes 5 10 20       # Fig. 6 in miniature
    repro-kg similarity --answers 40 80    # Table VI in miniature
    repro-kg serve --wal-dir state/        # durable online loop (WAL)
    repro-kg recover --wal-dir state/      # crash recovery + replay report
    repro-kg diag flight-000-slo_breach/   # post-mortem health report

Every command prints aligned text tables (no plotting dependency) and
exits non-zero on failure, so the CLI is scriptable in CI.

Output goes through the ``repro.cli`` logger (``-v`` / ``--log-level``
select verbosity); the long-running commands accept ``--metrics-json
PATH`` to dump the observability registry snapshot after the run and
print a cost breakdown of where the time went.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from collections.abc import Sequence

from repro.utils.tables import format_table

_LOG = logging.getLogger("repro.cli")

#: Commands that exercise the serving/optimization stack and therefore
#: have a meaningful metrics snapshot to report afterwards.
_INSTRUMENTED_COMMANDS = frozenset(
    {"demo", "effectiveness", "scaling", "serve", "recover"}
)


def _configure_logging(level_name: str) -> None:
    """(Re)configure the CLI logger for one ``main()`` invocation.

    The stream handler is rebuilt on every call so it binds whatever
    ``sys.stdout`` currently is — required for pytest's ``capsys`` and
    harmless elsewhere.  Messages are emitted bare (``%(message)s``):
    the CLI's output is tables meant for humans, not log records.
    """
    level = getattr(logging, level_name.upper())
    _LOG.setLevel(level)
    for handler in list(_LOG.handlers):
        _LOG.removeHandler(handler)
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    _LOG.addHandler(handler)
    _LOG.propagate = False


def _cmd_datasets(_args) -> int:
    from repro.eval.datasets import dataset_table

    _LOG.info(
        format_table(
            ["DataSet", "|V|", "|E|", "AverageDegree"],
            dataset_table(),
            title="Table II datasets (published statistics)",
        )
    )
    return 0


def _cmd_demo(args) -> int:
    from repro import (
        QASystem,
        SimilarityParams,
        build_knowledge_graph,
        generate_helpdesk_corpus,
    )

    corpus = generate_helpdesk_corpus(seed=args.seed)
    kg = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
    system = QASystem(
        kg, corpus.vocabulary, params=SimilarityParams(k=args.k)
    )
    system.add_documents(corpus.document_texts())
    question = corpus.train_pairs[0]
    answers = system.ask(question.text, question_id="cli-demo")
    _LOG.info(f"question: {question.text!r}")
    _LOG.info(
        format_table(
            ["rank", "document", "similarity"],
            [[i, doc, f"{score:.5f}"] for i, (doc, score) in enumerate(answers, 1)],
            title="initial ranking",
        )
    )
    voted = answers[min(2, len(answers) - 1)][0]
    system.vote("cli-demo", voted)
    report = system.optimize(strategy="multi", feasibility_filter=False)
    _LOG.info(
        f"\nvoted {voted!r}; optimized "
        f"({report.num_satisfied_constraints}/{report.num_constraints} "
        f"constraints satisfied, {len(report.changed_edges)} weights changed)"
    )
    reranked = system.ask(question.text, question_id="cli-demo-2")
    _LOG.info(
        format_table(
            ["rank", "document", "similarity"],
            [
                [i, doc + (" <-- voted" if doc == voted else ""), f"{score:.5f}"]
                for i, (doc, score) in enumerate(reranked, 1)
            ],
            title="after optimization",
        )
    )
    return 0


def _cmd_effectiveness(args) -> int:
    import numpy as np

    from repro import (
        GroundTruthOracle,
        generate_votes_from_oracle,
        solve_multi_vote,
        solve_single_votes,
        vote_omega_avg,
    )
    from repro.eval.harness import evaluate_test_set
    from repro.graph import AugmentedGraph, helpdesk_graph
    from repro.graph.generators import perturb_weights

    truth_kg, _ = helpdesk_graph(num_topics=6, entities_per_topic=10, seed=args.seed)
    corrupted = perturb_weights(truth_kg, noise=args.noise, seed=args.seed + 1)

    def attach(kg):
        aug = AugmentedGraph(kg)
        entities = sorted(kg.nodes())
        rng = np.random.default_rng(args.seed + 2)
        for i in range(16):
            picks = rng.choice(len(entities), size=3, replace=False)
            aug.add_answer(f"a{i}", {entities[int(p)]: 1 for p in picks})
        for i in range(args.votes + args.test_queries):
            picks = rng.choice(len(entities), size=2, replace=False)
            aug.add_query(f"q{i}", {entities[int(p)]: 1 for p in picks})
        return aug

    truth = attach(truth_kg)
    deployed = attach(corrupted)
    oracle = GroundTruthOracle(truth)
    vote_queries = [f"q{i}" for i in range(args.votes)]
    test_queries = [f"q{i}" for i in range(args.votes, args.votes + args.test_queries)]
    votes = generate_votes_from_oracle(
        deployed, oracle, queries=vote_queries, k=8, seed=args.seed + 3
    )
    candidates = sorted(truth.answer_nodes, key=repr)
    test_pairs = {q: oracle.best_answer(q, candidates) for q in test_queries}

    single, _ = solve_single_votes(deployed, votes)
    multi, _ = solve_multi_vote(deployed, votes)
    rows = []
    for label, graph in (
        ("Original", deployed),
        ("Single-vote", single),
        ("Multi-vote", multi),
    ):
        result = evaluate_test_set(graph, test_pairs)
        omega = "-" if graph is deployed else f"{vote_omega_avg(graph, votes):+.3f}"
        rows.append(
            [label, f"{result.r_avg:.2f}", omega, f"{result.mrr:.3f}",
             f"{result.hits[1]:.2f}", f"{result.hits[10]:.2f}"]
        )
    _LOG.info(
        format_table(
            ["Graph", "R_avg", "Omega_avg", "MRR", "H@1", "H@10"],
            rows,
            title=f"Effectiveness ({len(votes)} votes: "
                  f"{votes.num_negative}-/{votes.num_positive}+)",
        )
    )
    return 0


def _cmd_scaling(args) -> int:
    import numpy as np

    from repro import generate_synthetic_votes, solve_multi_vote, solve_split_merge
    from repro.eval.harness import vote_omega_avg
    from repro.graph import AugmentedGraph, konect_like

    rows = []
    for num_votes in args.votes:
        kg = konect_like(args.dataset, scale=args.scale, seed=args.seed)
        aug = AugmentedGraph(kg)
        nodes = sorted(kg.nodes())
        rng = np.random.default_rng(args.seed + 1)
        for a in range(40):
            picks = rng.choice(len(nodes), size=3, replace=False)
            aug.add_answer(f"ans{a}", {nodes[int(i)]: 1 for i in picks})
        for q in range(num_votes):
            picks = rng.choice(len(nodes), size=2, replace=False)
            aug.add_query(f"qry{q}", {nodes[int(i)]: 1 for i in picks})
        votes = generate_synthetic_votes(
            aug, k=8, negative_fraction=0.5, avg_negative_position=4,
            seed=args.seed + 2,
        )
        multi_graph, multi = solve_multi_vote(aug, votes)
        sm_graph, sm = solve_split_merge(aug, votes)
        rows.append(
            [
                num_votes,
                f"{multi.elapsed:.2f}s",
                f"{sm.elapsed:.2f}s",
                f"{sm.distributed_makespan(4):.2f}s",
                f"{vote_omega_avg(multi_graph, votes):+.2f}",
                f"{vote_omega_avg(sm_graph, votes):+.2f}",
            ]
        )
    _LOG.info(
        format_table(
            ["votes", "Multi-V", "S-M", "Dist. S-M (4w)", "Ω multi", "Ω S-M"],
            rows,
            title=f"Scaling on {args.dataset} (scale x{args.scale})",
        )
    )
    return 0


def _cmd_similarity(args) -> int:
    import numpy as np

    from repro.graph import AugmentedGraph, random_digraph
    from repro.serving import SimilarityParams
    from repro.similarity import get_backend, random_walk_similarity

    params = SimilarityParams()
    rows = []
    for num_answers in args.answers:
        kg = random_digraph(args.nodes, 4.0, seed=args.seed, out_mass=0.9)
        aug = AugmentedGraph(kg)
        nodes = sorted(kg.nodes())
        rng = np.random.default_rng(args.seed + 1)
        for a in range(num_answers):
            picks = rng.choice(len(nodes), size=3, replace=False)
            aug.add_answer(f"ans{a}", {nodes[int(i)]: 1 for i in picks})
        picks = rng.choice(len(nodes), size=3, replace=False)
        aug.add_query("query", {nodes[int(i)]: 1 for i in picks})
        answers = [f"ans{a}" for a in range(num_answers)]
        start = time.perf_counter()
        random_walk_similarity(
            aug.graph, "query", answers, restart_prob=params.restart_prob
        )
        rw = time.perf_counter() - start
        start = time.perf_counter()
        get_backend("dense").scores(aug.graph, "query", answers, params=params)
        pd = time.perf_counter() - start
        rows.append([num_answers, f"{rw:.3f}s", f"{pd:.3f}s", f"{rw / pd:.0f}x"])
    _LOG.info(
        format_table(
            ["|A|", "Random Walk [5]", "Ext. Inverse P-Distance", "speedup"],
            rows,
            title="Similarity evaluation time (Table VI in miniature)",
        )
    )
    return 0


def _stream_scenario(seed: int, num_votes: int):
    """Deterministic corrupted-helpdesk scenario for ``serve``/``recover``.

    Same seeds produce the same graph and vote stream, which is what
    lets ``recover`` bootstrap the identical fallback graph when a
    session crashed before its first snapshot.
    """
    import numpy as np

    from repro.graph import AugmentedGraph, helpdesk_graph
    from repro.graph.generators import perturb_weights
    from repro.votes import GroundTruthOracle, generate_votes_from_oracle

    kg, topics = helpdesk_graph(num_topics=4, entities_per_topic=8, seed=seed)
    entities = [e for members in topics.values() for e in members]
    noisy = perturb_weights(kg, noise=1.5, seed=seed + 1)

    def attach(base):
        aug = AugmentedGraph(base)
        rng = np.random.default_rng(seed + 2)
        for i in range(10):
            picks = rng.choice(len(entities), size=3, replace=False)
            aug.add_answer(f"a{i}", {entities[int(p)]: 1 for p in picks})
        for i in range(num_votes):
            picks = rng.choice(len(entities), size=2, replace=False)
            aug.add_query(f"q{i}", {entities[int(p)]: 1 for p in picks})
        return aug

    truth = attach(kg)
    deployed = attach(noisy)
    votes = generate_votes_from_oracle(
        deployed, GroundTruthOracle(truth), k=6, seed=seed + 3
    )
    return deployed, list(votes)


def _outcome_rows(history):
    return [
        [
            outcome.batch_index,
            outcome.num_votes,
            outcome.num_negative,
            outcome.strategy,
            f"{outcome.omega_avg:+.3f}",
            outcome.changed_edges,
            f"{outcome.elapsed:.2f}s",
        ]
        for outcome in history
    ]


def _cmd_serve(args) -> int:
    from repro.optimize.online import OnlineOptimizer
    from repro.persistence import DurableStore
    from repro.votes.stream import CountPolicy

    if args.workers not in (0, 1):
        _LOG.error(
            f"--workers must be 0 (inline) or 1 (background worker); "
            f"got {args.workers} — the supported topology is one serve "
            f"thread plus one optimizer worker"
        )
        return 2
    deployed, votes = _stream_scenario(args.seed, args.votes)
    store = DurableStore(args.wal_dir)
    online = OnlineOptimizer.recover(
        store,
        fallback=deployed,
        policy=CountPolicy(args.batch_size),
    )
    resumed_batches = len(online.history)
    resumed_pending = len(online.pending)
    if resumed_batches or resumed_pending:
        _LOG.info(
            f"resumed session from {args.wal_dir}: replay fired "
            f"{resumed_batches} batch(es), re-buffered {resumed_pending} "
            f"pending vote(s)"
        )
    if args.workers:
        return _serve_concurrent(args, online, store, votes)
    for vote in votes:
        online.submit(vote)
    _LOG.info(
        format_table(
            ["batch", "votes", "neg", "strategy", "Omega_avg", "changed", "time"],
            _outcome_rows(online.history),
            title=f"durable online session ({len(votes)} votes submitted)",
        )
    )
    _LOG.info(
        f"\nWAL last seq: {store.wal.last_seq}; "
        f"{len(online.pending)} vote(s) pending (durable in the WAL, "
        f"replayed on the next serve/recover); snapshots in {args.wal_dir}"
    )
    store.close()
    return 0


def _serve_concurrent(args, online, store, votes) -> int:
    """The ``serve --workers 1`` path: asks overlap the batch solves.

    The recovered optimizer's state is adopted by a background
    :class:`~repro.serving.worker.OptimizerWorker`; the main thread
    plays the serve role, interleaving engine reads with vote
    submissions while the worker solves batches on its shadow graph and
    publishes them as atomic weight-patch epochs.
    """
    from repro.obs import get_registry
    from repro.serving.engine import SimilarityEngine
    from repro.serving.worker import OptimizerWorker

    engine = SimilarityEngine(online.aug)
    worker = OptimizerWorker.from_online(online, engine=engine)
    queries = sorted(online.aug.query_nodes, key=repr)
    served = 0
    with worker:
        for index, vote in enumerate(votes):
            worker.submit(vote)
            # Interleave serves with ingest so asks genuinely overlap
            # the background solves.
            for offset in range(3):
                query = queries[(3 * index + offset) % len(queries)]
                engine.top_k(query, k=6)
                served += 1
    _LOG.info(
        format_table(
            ["batch", "votes", "neg", "strategy", "Omega_avg", "changed", "time"],
            _outcome_rows(worker.history),
            title=(
                f"concurrent serve session ({len(votes)} votes ingested, "
                f"{served} asks served alongside)"
            ),
        )
    )
    registry = get_registry()
    published = int(registry.counter("optimize_epochs_published_total").value)
    blocked = int(registry.counter("optimize_ingest_blocked_total").value)
    errors = int(registry.counter("optimize_worker_errors_total").value)
    _LOG.info(
        f"\nepochs published: {published}; ingest backpressure events: "
        f"{blocked}; worker errors: {errors}; engine epoch: {engine.epoch}"
    )
    _LOG.info(
        f"WAL last seq: {store.wal.last_seq}; "
        f"{worker.pending_votes} vote(s) pending (durable in the WAL, "
        f"replayed on the next serve/recover); snapshots in {args.wal_dir}"
    )
    if worker.last_error is not None:
        _LOG.error(f"worker saw an error: {worker.last_error}")
        store.close()
        return 1
    store.close()
    return 0


def _cmd_recover(args) -> int:
    from repro.graph.persistence import save_augmented_graph
    from repro.optimize.online import OnlineOptimizer
    from repro.persistence import DurableStore
    from repro.votes.stream import CountPolicy

    store = DurableStore(args.wal_dir)
    state = store.recover()
    if state.aug is None:
        _LOG.info(
            f"no snapshot in {args.wal_dir}; bootstrapping the simulated "
            f"scenario graph (--seed {args.seed})"
        )
        fallback, _ = _stream_scenario(args.seed, args.votes)
    else:
        _LOG.info(f"newest snapshot covers WAL seq {state.snapshot_seq}")
        fallback = None
    _LOG.info(f"WAL tail: {len(state.tail)} vote(s) to replay")
    online = OnlineOptimizer.recover(
        store,
        fallback=fallback,
        policy=CountPolicy(args.batch_size),
        state=state,
    )
    if online.history:
        _LOG.info(
            format_table(
                ["batch", "votes", "neg", "strategy", "Omega_avg", "changed", "time"],
                _outcome_rows(online.history),
                title="batches re-fired during replay",
            )
        )
    graph = online.aug
    _LOG.info(
        f"\nrecovered: {len(graph.entity_nodes)} entities, "
        f"{len(graph.query_nodes)} queries, {len(graph.answer_nodes)} answers, "
        f"{graph.graph.num_edges} edges; {len(online.pending)} vote(s) "
        f"re-buffered as pending"
    )
    if args.output:
        save_augmented_graph(graph, args.output)
        _LOG.info(f"recovered graph written to {args.output}")
    store.close()
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.devtools.lint import (
        GRAPH_RULES,
        RULES,
        find_dead_series,
        format_violations,
        lint_paths,
        violations_to_json,
    )

    rules = None
    if args.rules:
        rules = set(args.rules)
        unknown = rules - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(RULES))}"
            )
    violations = lint_paths(args.paths, rules=rules)
    # R007 is a whole-tree property (a catalog entry is dead only if *no*
    # linted file emits it), so it runs once over all paths rather than
    # inside the per-file visitor.
    if rules is None or "R007" in rules:
        violations.extend(find_dead_series(args.paths))
    # R008 and R010 need the call graph and shared-state registry; they run
    # over the whole tree via the concurrency analyzer.
    graph_rules = GRAPH_RULES if rules is None else rules & GRAPH_RULES
    if graph_rules:
        from repro.devtools.concurrency import find_concurrency_violations

        violations.extend(
            find_concurrency_violations(args.paths, rules=graph_rules)
        )
    violations.sort(key=lambda v: (v.path, v.line, v.rule, v.col))
    if getattr(args, "format", "table") == "json":
        _LOG.info(json.dumps(violations_to_json(violations), indent=2))
        return 1 if violations else 0
    if violations:
        _LOG.info(format_violations(violations))
        _LOG.info(
            f"{len(violations)} violation(s) in "
            f"{len({v.path for v in violations})} file(s)"
        )
        return 1
    _LOG.info(f"{len(args.paths)} path(s) clean")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.devtools.concurrency import CONCURRENCY_RULES, analyze_paths

    rules = None
    if args.rules:
        rules = set(args.rules)
        unknown = rules - CONCURRENCY_RULES
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(CONCURRENCY_RULES))}"
            )
    report = analyze_paths(args.paths, rules=rules)
    payload = report.to_json()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        _LOG.info(f"analysis report written to {args.output}")
    if args.format == "json":
        _LOG.info(json.dumps(payload, indent=2))
    else:
        _LOG.info(report.render())
    return 1 if report.violations else 0


def _cmd_diag(args) -> int:
    import json

    from repro.obs.diag import load_bundle, render_bundle_report, render_health_report

    if args.bundle is None and args.metrics_json is None:
        raise ValueError("diag needs a flight bundle directory or --metrics-json")
    if args.bundle is not None:
        bundle = load_bundle(args.bundle)
        _LOG.info(render_bundle_report(bundle))
        return 0
    with open(args.metrics_json, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    _LOG.info(render_health_report(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-kg",
        description=(
            "Voting-based knowledge-graph optimization "
            "(reproduction of Yang et al., ICDE 2020)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug verbosity (shortcut for --log-level debug)",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="logging threshold for CLI output (default: info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table II dataset registry")

    demo = sub.add_parser("demo", help="run the ask/vote/optimize loop")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--k", type=int, default=8)

    eff = sub.add_parser("effectiveness", help="Tables IV/V in miniature")
    eff.add_argument("--seed", type=int, default=11)
    eff.add_argument("--noise", type=float, default=1.5)
    eff.add_argument("--votes", type=int, default=20)
    eff.add_argument("--test-queries", type=int, default=20)

    scaling = sub.add_parser("scaling", help="Fig. 6 in miniature")
    scaling.add_argument("--dataset", default="digg",
                         choices=["taobao", "twitter", "digg", "gnutella"])
    scaling.add_argument("--scale", type=float, default=0.01)
    scaling.add_argument("--votes", type=int, nargs="+", default=[5, 10, 20])
    scaling.add_argument("--seed", type=int, default=17)

    serve = sub.add_parser(
        "serve",
        help="run a simulated durable online session (vote WAL + snapshots)",
    )
    serve.add_argument(
        "--wal-dir", required=True, metavar="DIR",
        help="durability directory (votes.wal + snapshot-*.json); "
             "an existing session there is resumed first",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--votes", type=int, default=12,
                       help="simulated votes to stream this session")
    serve.add_argument("--batch-size", type=int, default=5,
                       help="CountPolicy batch size (use the same value "
                            "when recovering)")
    serve.add_argument("--workers", type=int, default=0,
                       help="0 = solve batches inline on the serve thread "
                            "(default); 1 = solve on a background optimizer "
                            "worker that publishes atomic weight-patch "
                            "epochs while asks keep being served")

    rec = sub.add_parser(
        "recover",
        help="rebuild a crashed serve session from its WAL directory",
    )
    rec.add_argument("--wal-dir", required=True, metavar="DIR")
    rec.add_argument("--seed", type=int, default=0,
                     help="scenario seed (only used when no snapshot exists)")
    rec.add_argument("--votes", type=int, default=12,
                     help="scenario size (only used when no snapshot exists)")
    rec.add_argument("--batch-size", type=int, default=5,
                     help="must match the serve session's batch size for "
                          "bit-exact replay")
    rec.add_argument("--output", metavar="PATH", default=None,
                     help="also write the recovered graph JSON to PATH")

    for instrumented in (demo, eff, scaling, serve, rec):
        instrumented.add_argument(
            "--metrics-json", metavar="PATH", default=None,
            help="dump the metrics registry snapshot to PATH after the run",
        )

    sim = sub.add_parser("similarity", help="Table VI in miniature")
    sim.add_argument("--nodes", type=int, default=1000)
    sim.add_argument("--answers", type=int, nargs="+", default=[20, 40, 80])
    sim.add_argument("--seed", type=int, default=3)

    lint = sub.add_parser(
        "lint", help="run the project's custom AST lint rules (R001-R008, R010)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rules", nargs="+", metavar="R00X", default=None,
        help="restrict the run to these rule ids (default: all)",
    )
    lint.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="concurrency-safety analysis: call graph, shared-state "
             "inventory, serve-path purity (R008, R010)",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument(
        "--rules", nargs="+", metavar="R00X", default=None,
        help="restrict findings to these rule ids (default: R008 R010)",
    )
    analyze.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default: table)",
    )
    analyze.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the full JSON report to PATH",
    )

    diag = sub.add_parser(
        "diag",
        help="render a health report from a flight bundle or metrics snapshot",
    )
    diag.add_argument(
        "bundle", nargs="?", default=None, metavar="BUNDLE_DIR",
        help="flight-recorder bundle directory (contains MANIFEST.json)",
    )
    diag.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="grade a bare metrics snapshot (as written by the "
             "instrumented commands' --metrics-json) instead of a bundle",
    )

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "demo": _cmd_demo,
    "effectiveness": _cmd_effectiveness,
    "scaling": _cmd_scaling,
    "similarity": _cmd_similarity,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "diag": _cmd_diag,
}


def _report_run_costs(args) -> None:
    """Print the cost breakdown and honour ``--metrics-json``."""
    from repro.obs import get_registry, last_trace, summary_table
    from repro.obs import write_metrics_json

    registry = get_registry()
    _LOG.info("\n" + summary_table(registry, title="cost breakdown"))
    trace = last_trace()
    if trace is not None:
        _LOG.debug("\nlast trace:\n" + trace.render())
    if getattr(args, "metrics_json", None):
        write_metrics_json(args.metrics_json, registry)
        _LOG.info(f"metrics snapshot written to {args.metrics_json}")


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    level = args.log_level or ("debug" if args.verbose else "info")
    _configure_logging(level)
    try:
        code = _COMMANDS[args.command](args)
    except Exception as exc:  # surface a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)  # noqa: R003 - stderr, pre-logging
        return 1
    if code == 0 and args.command in _INSTRUMENTED_COMMANDS:
        _report_run_costs(args)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
