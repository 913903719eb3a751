"""Shared deterministic scenario for the durability/crash tests.

Imported both by the pytest process and by the kill-mid-flush child
subprocess (``durable_crash_child.py``), so the two sides agree on the
exact graph and vote stream without any file-based coordination.  Not
a test module.
"""

import numpy as np

from repro.graph import AugmentedGraph, helpdesk_graph
from repro.graph.generators import perturb_weights
from repro.optimize.online import OnlineOptimizer
from repro.votes import GroundTruthOracle, generate_votes_from_oracle
from repro.votes.stream import CountPolicy

#: CountPolicy batch size every durable test uses; recovery must be
#: configured identically for replay to reproduce batch boundaries.
BATCH_SIZE = 3


def build_scenario(seed=0, num_queries=8, num_answers=8):
    """A corrupted helpdesk graph plus an oracle-driven vote stream.

    Returns ``(deployed_aug, votes)``; fully seeded, so every process
    that calls this with the same arguments sees identical data.
    """
    kg, topics = helpdesk_graph(num_topics=3, entities_per_topic=6, seed=seed)
    entities = [e for members in topics.values() for e in members]
    noisy = perturb_weights(kg, noise=1.5, seed=seed + 1)

    def attach(base):
        aug = AugmentedGraph(base)
        rng = np.random.default_rng(seed + 2)
        for i in range(num_answers):
            picks = rng.choice(len(entities), size=3, replace=False)
            aug.add_answer(f"a{i}", {entities[int(p)]: 1 for p in picks})
        for i in range(num_queries):
            picks = rng.choice(len(entities), size=2, replace=False)
            aug.add_query(f"q{i}", {entities[int(p)]: 1 for p in picks})
        return aug

    truth = attach(kg)
    deployed = attach(noisy)
    votes = generate_votes_from_oracle(
        deployed, GroundTruthOracle(truth), k=5, seed=seed + 3
    )
    return deployed, list(votes)


def kg_weights(aug):
    """``(head, tail) -> weight`` for every optimizable edge."""
    return {edge.key: edge.weight for edge in aug.kg_edges()}


def relink(aug, query):
    """Re-attach ``query`` to two other entities, as re-asking it would."""
    linked = aug.query_links(query)
    others = [e for e in sorted(aug.entity_nodes, key=repr) if e not in linked]
    aug.remove_query(query)
    aug.add_query(query, {entity: 1 for entity in others[:2]})


def relinked_run():
    """KG weights of an uncrashed run that re-links a query mid-stream.

    The 4th vote's query is re-linked after the first batch, before the
    2nd batch's votes arrive; the run ends after the 2nd batch.
    """
    aug, votes = build_scenario()
    online = OnlineOptimizer(aug, policy=CountPolicy(BATCH_SIZE))
    for vote in votes[:BATCH_SIZE]:
        online.submit(vote)
    relink(aug, votes[BATCH_SIZE].query)
    for vote in votes[BATCH_SIZE : 2 * BATCH_SIZE]:
        online.submit(vote)
    assert len(online.history) == 2
    return kg_weights(aug)


def single_threaded_replay(num_queries=8):
    """The scenario's vote stream through one in-process optimizer.

    The reference the concurrent worker is compared against.  Returns
    ``(aug, votes, optimizer, states)``: the final graph, the votes, the
    optimizer (its history holds the batch boundaries), and a copy of
    the graph before the first batch and after each one.
    """
    aug, votes = build_scenario(num_queries=num_queries)
    replay = OnlineOptimizer(aug, policy=CountPolicy(BATCH_SIZE))
    states = [aug.copy()]  # state 0: no batch applied
    for vote in votes:
        if replay.submit(vote) is not None:
            states.append(aug.copy())
    if replay.flush() is not None:
        states.append(aug.copy())
    return aug, votes, replay, states
