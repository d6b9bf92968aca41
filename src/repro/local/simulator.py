"""The synchronous round-by-round simulator.

Each round: every node produces its outgoing messages from its current
state, all messages are delivered, and every node computes its new state
from its inbox.  The run ends when every node has terminated; the number of
executed rounds is the algorithm's round complexity on this instance.

Engine design
-------------
The fast engine (:func:`run_synchronous`) is organised around an
**active set**:

* contexts are built in one ``O(n + m)`` pass over the network's cached
  CSR adjacency (the seed version recomputed ``max_degree`` /
  ``max_identifier`` and re-sorted the neighbour list for every node,
  which made context construction ``O(n · m)``);
* every context shares one read-only view of the network's ``shared``
  mapping instead of a per-node copy;
* only nodes that have not yet terminated are polled for messages and
  transitions, and termination is tracked incrementally — a node leaves
  the active set right after the transition in which
  ``has_terminated`` first becomes true, so no per-round ``O(n)``
  re-scan of all nodes happens;
* inboxes are allocated lazily, only for nodes that actually receive a
  message this round.

A node whose ``has_terminated`` is true is *frozen*: its state no longer
changes and it sends no further messages.  Every algorithm in this
repository terminates all nodes in the same round (the deterministic
LOCAL schedules are functions of globally known quantities), for which
the frozen semantics is bit-identical to the seed engine's re-scan loop;
:func:`run_synchronous_reference` keeps the seed behaviour for
equivalence tests and benchmark baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Hashable

from repro.local.algorithm import NodeContext, SynchronousAlgorithm
from repro.local.context import record_run
from repro.local.network import Network


@dataclass
class RunResult:
    """Result of simulating a synchronous algorithm on a network."""

    algorithm: str
    rounds: int
    outputs: dict[Hashable, Any]
    messages_sent: int = 0
    statistics: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(algorithm={self.algorithm!r}, rounds={self.rounds}, "
            f"nodes={len(self.outputs)}, messages={self.messages_sent})"
        )


def build_contexts(network: Network) -> dict[Hashable, NodeContext]:
    """Build the initial knowledge of every node of ``network`` in O(n + m)."""
    identifiers = network.identifiers
    num_nodes = network.num_nodes
    max_degree = network.max_degree
    max_identifier = network.max_identifier
    node_inputs = network.node_inputs
    shared = MappingProxyType(network.shared)
    contexts: dict[Hashable, NodeContext] = {}
    for node in network.nodes():
        neighbors = network.neighbors(node)
        contexts[node] = NodeContext(
            node=node,
            node_id=identifiers[node],
            degree=len(neighbors),
            neighbors=neighbors,
            neighbor_ids={v: identifiers[v] for v in neighbors},
            num_nodes=num_nodes,
            max_degree=max_degree,
            max_identifier=max_identifier,
            node_input=node_inputs.get(node),
            shared=shared,
        )
    return contexts


def run_synchronous(
    network: Network,
    algorithm: SynchronousAlgorithm,
    max_rounds: int | None = None,
) -> RunResult:
    """Simulate ``algorithm`` on ``network`` until every node terminates.

    Parameters
    ----------
    max_rounds:
        Safety cap; exceeding it raises ``RuntimeError`` (a deterministic
        LOCAL algorithm that does not terminate is a bug, not a feature).
        Defaults to ``4 * n + 64`` which is far above every algorithm in
        this repository.
    """
    simulate_start = time.perf_counter()
    contexts = build_contexts(network)
    states: dict[Hashable, Any] = {
        node: algorithm.initial_state(ctx) for node, ctx in contexts.items()
    }
    if max_rounds is None:
        max_rounds = 4 * network.num_nodes + 64

    has_terminated = algorithm.has_terminated
    messages = algorithm.messages
    transition = algorithm.transition

    # Nodes still to terminate, kept in network order so that inbox
    # insertion order matches the seed engine exactly.
    active = [
        node for node, ctx in contexts.items() if not has_terminated(states[node], ctx)
    ]

    rounds = 0
    messages_sent = 0
    while active:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"{algorithm.name} exceeded the round cap of {max_rounds} rounds"
            )
        rounds += 1
        # send phase — inboxes only for actual recipients
        inboxes: dict[Hashable, dict[Hashable, Any]] = {}
        for node in active:
            ctx = contexts[node]
            outgoing = messages(states[node], ctx)
            if not outgoing:
                continue
            neighbor_ids = ctx.neighbor_ids
            for neighbor, message in outgoing.items():
                if neighbor not in neighbor_ids:
                    raise ValueError(
                        f"{algorithm.name}: node {node!r} attempted to message "
                        f"non-neighbor {neighbor!r}"
                    )
                box = inboxes.get(neighbor)
                if box is None:
                    box = inboxes[neighbor] = {}
                box[node] = message
            messages_sent += len(outgoing)
        # receive phase — only active nodes transition; a node is dropped
        # from the active set as soon as it terminates.
        still_active = []
        for node in active:
            ctx = contexts[node]
            inbox = inboxes.get(node)
            if inbox is None:
                inbox = {}
            state = transition(states[node], inbox, ctx)
            states[node] = state
            if not has_terminated(state, ctx):
                still_active.append(node)
        active = still_active

    outputs = {node: algorithm.output(states[node], ctx) for node, ctx in contexts.items()}
    return record_run(
        RunResult(
            algorithm=algorithm.name,
            rounds=rounds,
            outputs=outputs,
            messages_sent=messages_sent,
        ),
        "interpreted", algorithm.name, simulate_start,
    )


# ----------------------------------------------------------------------
# reference engine (the seed implementation, kept verbatim in behaviour)
# ----------------------------------------------------------------------
def _reference_build_contexts(network: Network) -> dict[Hashable, NodeContext]:
    """The seed ``build_contexts``: recompute everything per node.

    Kept as the equivalence-test oracle and the benchmark baseline; it
    reproduces the seed's cost profile (a full ``max_degree`` /
    ``max_identifier`` scan and a neighbour sort per node, i.e.
    ``O(n · m)`` overall) on the raw :mod:`networkx` graph.
    """
    graph = network.graph
    identifiers = network.identifiers
    contexts: dict[Hashable, NodeContext] = {}
    for node in graph.nodes():
        neighbors = tuple(
            sorted(graph.neighbors(node), key=lambda v: identifiers[v])
        )
        contexts[node] = NodeContext(
            node=node,
            node_id=identifiers[node],
            degree=graph.degree(node),
            neighbors=neighbors,
            neighbor_ids={v: identifiers[v] for v in neighbors},
            num_nodes=graph.number_of_nodes(),
            max_degree=max((d for _, d in graph.degree()), default=0),
            max_identifier=max(identifiers.values(), default=1),
            node_input=network.node_inputs.get(node),
            shared=dict(network.shared),
        )
    return contexts


def run_synchronous_reference(
    network: Network,
    algorithm: SynchronousAlgorithm,
    max_rounds: int | None = None,
) -> RunResult:
    """The seed engine: poll every node every round, re-scan termination.

    This is the pre-CSR implementation preserved for the equivalence
    tests (``tests/test_engine_equivalence.py``) and as the baseline of
    ``benchmarks/bench_engine.py``; production callers should use
    :func:`run_synchronous`.  Its runs count messages in the cell
    context, but no engine and no ``simulate`` time.
    """
    contexts = _reference_build_contexts(network)
    states: dict[Hashable, Any] = {
        node: algorithm.initial_state(ctx) for node, ctx in contexts.items()
    }
    if max_rounds is None:
        max_rounds = 4 * network.num_nodes + 64

    rounds = 0
    messages_sent = 0
    while not all(
        algorithm.has_terminated(states[node], contexts[node]) for node in contexts
    ):
        if rounds >= max_rounds:
            raise RuntimeError(
                f"{algorithm.name} exceeded the round cap of {max_rounds} rounds"
            )
        rounds += 1
        inboxes: dict[Hashable, dict[Hashable, Any]] = {node: {} for node in contexts}
        for node, ctx in contexts.items():
            outgoing = algorithm.messages(states[node], ctx)
            for neighbor, message in outgoing.items():
                if neighbor not in ctx.neighbor_ids:
                    raise ValueError(
                        f"{algorithm.name}: node {node!r} attempted to message "
                        f"non-neighbor {neighbor!r}"
                    )
                inboxes[neighbor][node] = message
                messages_sent += 1
        for node, ctx in contexts.items():
            states[node] = algorithm.transition(states[node], inboxes[node], ctx)

    outputs = {node: algorithm.output(states[node], ctx) for node, ctx in contexts.items()}
    return record_run(RunResult(
        algorithm=algorithm.name,
        rounds=rounds,
        outputs=outputs,
        messages_sent=messages_sent,
    ))
