"""The four perf workloads and their seeded input generation.

Every input a run uses — graph, answers, queries, the ask schedule, the
votes and their schedule, the held-out test pairs — is built here from
``--seed`` before any clock starts.  The program under test only ever
receives these inputs; nothing in the timed part draws a random number.

Two graphs, two loops:

- ``helpdesk-*`` is a Taobao-sized topical knowledge graph (1,668
  entities, ~8.3k edges, 300 answers) served by the dense kernel, with
  Zipf(1.1) asks over 800 queries — more distinct queries than the
  256-entry score cache holds, so hits and misses both occur;
- ``gnutella-ask`` is the 1M+-edge stand-in served by local push, with
  every ask a distinct query so the cache never hits;
- ``gnutella-feedback`` is the 77k-edge stand-in (the measured
  push/dense crossover) where the optimizer's per-batch whole-graph
  work dominates.

The ``-feedback`` workloads add an open-loop vote stream through the
optimizer worker; the ``-ask`` workloads are read-only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph import AugmentedGraph, WeightedDiGraph, helpdesk_graph
from repro.graph.generators import konect_like, perturb_weights
from repro.serving import SimilarityEngine, SimilarityParams
from repro.votes import (
    CountPolicy,
    GroundTruthOracle,
    Vote,
    generate_votes_from_oracle,
)

#: Answers shown per ask (``SimilarityEngine.top_k(q, k=ASK_K)``).
ASK_K = 8
#: Share of ``--seconds`` spent in the open loop; the rest is the
#: closed loop that measures ``ask_max_qps``.
OPEN_SHARE = 0.75
#: A voter asked their question this long before voting on the answers.
ASK_BEFORE_VOTE_S = 0.5
#: The score cache's default bound; warm-up fills exactly this many.
CACHE_ENTRIES = 256
#: Votes per batch under the worker's default policy.  Runs submit whole
#: batches only, so no vote waits for a drain-time partial batch.
BATCH_VOTES = CountPolicy().batch_size
#: On ``-feedback`` workloads asks continue past the open window until
#: every vote is published, for at most this long.
DRAIN_ALLOWANCE_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix: graph, kernel and rates.

    Why each exists is stated in ``BENCHMARK.json`` and the README.
    """

    name: str
    graph: str
    backend: str
    ask_rate: float = 400.0
    vote_rate: float = 0.0
    #: Setups per run; ``setup_s`` is their median.
    setup_repeats: int = 15

    @property
    def feedback(self) -> bool:
        return self.vote_rate > 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("helpdesk-ask", graph="helpdesk", backend="dense"),
        Workload(
            "helpdesk-feedback", graph="helpdesk", backend="dense", vote_rate=2.0
        ),
        # One setup takes seconds here.
        Workload(
            "gnutella-ask", graph="gnutella-large", backend="push", setup_repeats=1
        ),
        Workload(
            "gnutella-feedback",
            graph="gnutella-small",
            backend="push",
            vote_rate=1.0,
            setup_repeats=9,
        ),
    )
}

#: Graph sizes: (full run, ``--smoke``).
HELPDESK_TOPICS = {False: 139, True: 40}
HELPDESK_ANSWERS = {False: 300, True: 40}
HELPDESK_POOL = {False: 800, True: 400}
HELPDESK_HELDOUT = {False: 60, True: 8}
GNUTELLA_SCALE = {
    ("gnutella-large", False): 7.0,
    ("gnutella-large", True): 0.05,
    ("gnutella-small", False): 0.5,
    ("gnutella-small", True): 0.05,
}
GNUTELLA_LARGE_ANSWERS = {False: 40, True: 12}
GNUTELLA_SMALL_POOL = {False: 1000, True: 400}
#: Closed-loop queries per second of closed loop.  The loop stops early
#: if it runs out, so these bound the throughput it can measure: Zipf
#: draws are cheap, while every ``gnutella-ask`` query is attached.
ZIPF_CLOSED_QPS = 25_000
DISTINCT_CLOSED_QPS = 4_000


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    kg: WeightedDiGraph
    answers: dict[str, dict[str, int]]
    queries: dict[str, dict[str, int]]
    #: Queries asked, in order, to warm the cache during setup.
    warm: list[str]
    #: Query of each open-loop ask slot (slot ``i`` is due at ``i/rate``).
    #: Only the first ``open_asks`` are certain to be asked; the rest
    #: cover the drain on ``-feedback`` workloads.
    asks: list[str]
    open_asks: int
    #: Queries for the closed loop, asked back to back until time is up.
    closed: list[str]
    votes: list[Vote] = field(default_factory=list)
    #: Due time of each vote, seconds after the window opens.
    vote_due: list[float] = field(default_factory=list)
    #: Held-out query -> oracle-best answer, for ``mrr_heldout``.
    heldout: dict[str, str] = field(default_factory=dict)

    @property
    def pool(self) -> list[str]:
        """Distinct queries the open loop asks, in first-ask order."""
        return list(dict.fromkeys(self.asks))


def _links(rng, entities, count, width):
    """``count`` link maps, each to ``width`` distinct random entities."""
    picks = rng.integers(0, len(entities), size=(count, width))
    for row in picks:
        while len(set(row.tolist())) < width:
            row[:] = rng.integers(0, len(entities), size=width)
    return [{entities[int(e)]: 1 for e in row} for row in picks]


def _zipf(rng, names, *sizes, exponent=1.1):
    """Draws of each size over ``names``, Zipf-popular by one random ranking.

    Returns the draw lists followed by the ranking, most popular first.
    """
    ranks = np.arange(1, len(names) + 1, dtype=float)
    probs = ranks**-exponent
    probs /= probs.sum()
    popular = [names[int(i)] for i in rng.permutation(len(names))]
    draws = [
        [popular[int(d)] for d in rng.choice(len(names), size=size, p=probs)]
        for size in sizes
    ]
    return (*draws, popular)


def _zipf_traffic(workload, rng, kg, answers, queries, open_s, closed_s):
    """Zipf asks over ``queries`` and, with feedback, the vote schedule."""
    open_asks = int(workload.ask_rate * open_s)
    drain_asks = int(workload.ask_rate * DRAIN_ALLOWANCE_S * workload.feedback)
    asks, closed, popular = _zipf(
        rng,
        list(queries),
        open_asks + drain_asks,
        int(ZIPF_CLOSED_QPS * closed_s),
    )
    # Least popular first, so the most popular end up most recently used.
    warm = popular[:CACHE_ENTRIES][::-1]
    inputs = Inputs(kg, answers, queries, warm, asks, open_asks, closed)
    if workload.feedback:
        # Fixed spacing at the vote rate, each vote centred in its slot.
        batches = max(1, int(workload.vote_rate * open_s / BATCH_VOTES))
        inputs.vote_due = [
            (j + 0.5) / workload.vote_rate for j in range(batches * BATCH_VOTES)
        ]
    return inputs


def _voters(rng, names, vote_due):
    """One distinct voting query per scheduled vote."""
    picks = rng.choice(len(names), size=len(vote_due), replace=False)
    return [names[int(i)] for i in picks]


def _ask_before_voting(inputs, ask_rate):
    """Make each voter ask the question they vote on, shortly before."""
    for vote, due in zip(inputs.votes, inputs.vote_due):
        slot = int((due - ASK_BEFORE_VOTE_S) * ask_rate)
        if 0 <= slot < len(inputs.asks):
            inputs.asks[slot] = vote.query


def augmented(kg, answers, queries):
    aug = AugmentedGraph(kg)
    for answer, links in answers.items():
        aug.add_answer(answer, links)
    for query, links in queries.items():
        aug.add_query(query, links)
    return aug


def _helpdesk(workload, rng, open_s, closed_s, smoke):
    truth_kg, _ = helpdesk_graph(
        num_topics=HELPDESK_TOPICS[smoke], entities_per_topic=12, seed=rng
    )
    kg = perturb_weights(truth_kg, noise=1.5, seed=rng)
    entities = sorted(kg.nodes())
    answer_links = _links(rng, entities, HELPDESK_ANSWERS[smoke], 3)
    answers = {f"a{i}": links for i, links in enumerate(answer_links)}
    names = [f"q{i}" for i in range(HELPDESK_POOL[smoke])]
    queries = dict(zip(names, _links(rng, entities, len(names), 2)))
    inputs = _zipf_traffic(workload, rng, kg, answers, queries, open_s, closed_s)
    if not workload.feedback:
        return inputs
    heldout = [f"h{i}" for i in range(HELPDESK_HELDOUT[smoke])]
    queries.update(zip(heldout, _links(rng, entities, len(heldout), 2)))
    voters = _voters(rng, names, inputs.vote_due)
    truth = augmented(truth_kg, answers, queries)
    deployed = augmented(kg, answers, queries)
    oracle = GroundTruthOracle(truth)
    inputs.votes = list(
        generate_votes_from_oracle(deployed, oracle, queries=voters, k=ASK_K)
    )
    candidates = sorted(answers)
    inputs.heldout = {q: oracle.best_answer(q, candidates) for q in heldout}
    _ask_before_voting(inputs, workload.ask_rate)
    return inputs


def _gnutella_large(workload, rng, open_s, closed_s, smoke):
    kg = konect_like(
        "gnutella", scale=GNUTELLA_SCALE[(workload.graph, smoke)], seed=rng
    )
    entities = list(kg.nodes())
    answer_links = _links(rng, entities, GNUTELLA_LARGE_ANSWERS[smoke], 3)
    answers = {f"a{i}": links for i, links in enumerate(answer_links)}
    # Every ask is its own query: the cache can never serve one.
    warm = [f"w{i}" for i in range(16)]
    asks = [f"q{i}" for i in range(int(workload.ask_rate * open_s))]
    closed = [f"c{i}" for i in range(int(DISTINCT_CLOSED_QPS * closed_s))]
    names = warm + asks + closed
    queries = dict(zip(names, _links(rng, entities, len(names), 2)))
    return Inputs(kg, answers, queries, warm, asks, len(asks), closed)


def _downstream(kg, sources, depth):
    """Entities 1..``depth`` hops downstream of ``sources``."""
    seen = set(sources)
    frontier = deque((s, 0) for s in sources)
    found = []
    while frontier:
        node, hops = frontier.popleft()
        if hops == depth:
            continue
        for succ in kg.successors(node):
            if succ not in seen:
                seen.add(succ)
                found.append(succ)
                frontier.append((succ, hops + 1))
    return found


def _gnutella_small(workload, rng, open_s, closed_s, smoke):
    kg = konect_like(
        "gnutella", scale=GNUTELLA_SCALE[(workload.graph, smoke)], seed=rng
    )
    entities = list(kg.nodes())
    names = [f"q{i}" for i in range(GNUTELLA_SMALL_POOL[smoke])]
    queries = dict(zip(names, _links(rng, entities, len(names), 2)))
    inputs = _zipf_traffic(workload, rng, kg, {}, queries, open_s, closed_s)
    voters = _voters(rng, names, inputs.vote_due)
    # Answers sit downstream of the voters' entities.  Placed at random
    # on a graph this sparse they would be unreachable within L = 5 and
    # the feasibility filter would discard every vote.
    answers = inputs.answers
    for voter in voters:
        near = _downstream(kg, list(queries[voter]), depth=2) or list(
            queries[voter]
        )
        for _ in range(2):
            picks = rng.choice(len(near), size=min(3, len(near)), replace=False)
            answers[f"a{len(answers)}"] = {near[int(p)]: 1 for p in picks}
    engine = SimilarityEngine(
        augmented(kg, answers, {v: queries[v] for v in voters}),
        params=SimilarityParams(backend=workload.backend),
    )
    for voter in voters:
        shown = engine.top_k(voter, k=ASK_K)
        scored = [answer for answer, score in shown if score > 0] or [
            shown[0][0]
        ]
        best = scored[int(rng.integers(0, len(scored)))]
        inputs.votes.append(
            Vote(
                query=voter,
                ranked_answers=tuple(answer for answer, _ in shown),
                best_answer=best,
            )
        )
    engine.close()
    _ask_before_voting(inputs, workload.ask_rate)
    return inputs


_GENERATORS = {
    "helpdesk": _helpdesk,
    "gnutella-large": _gnutella_large,
    "gnutella-small": _gnutella_small,
}


def make_inputs(workload: Workload, seed: int, seconds: float, smoke: bool) -> Inputs:
    """All inputs of one run of ``workload``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    open_s, closed_s = window_seconds(seconds)
    return _GENERATORS[workload.graph](workload, rng, open_s, closed_s, smoke)


def window_seconds(seconds: float) -> tuple[float, float]:
    """(open-loop, closed-loop) seconds of a ``seconds``-long run."""
    open_s = seconds * OPEN_SHARE
    return open_s, seconds - open_s
