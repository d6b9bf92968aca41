"""Maximal independent set in ``O(Δ² + log* n)`` rounds.

Pipeline: (deg+1)-vertex colouring, then one round per colour class in
which the nodes of the class join the independent set unless a neighbour
already did.  Classes are independent sets, so simultaneous joins never
conflict; processing classes in increasing order makes the result maximal.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.baselines.coloring import _deg_plus_one_coloring
from repro.local import Network, NodeContext, RunResult, SynchronousAlgorithm, select_engine
from repro.semigraph.semigraph import Adjacency


class ColorClassMIS(SynchronousAlgorithm):
    """Greedy MIS by colour classes (per-node input: the node's colour)."""

    name = "color-class-mis"

    def initial_state(self, ctx: NodeContext) -> dict:
        return {"round": 0, "in_mis": False, "blocked": False}

    def messages(self, state: dict, ctx: NodeContext) -> dict:
        return {neighbor: state["in_mis"] for neighbor in ctx.neighbors}

    def transition(self, state: dict, inbox: dict, ctx: NodeContext) -> dict:
        state = dict(state)
        state["round"] += 1
        if any(inbox.values()):
            state["blocked"] = True
        if ctx.node_input == state["round"] and not state["blocked"]:
            state["in_mis"] = True
        return state

    def has_terminated(self, state: dict, ctx: NodeContext) -> bool:
        # One extra round lets joins from the final class propagate so that
        # every node's "blocked" flag is consistent before outputs are read.
        return state["round"] >= ctx.shared["num_classes"] + 1

    def output(self, state: dict, ctx: NodeContext) -> bool:
        return state["in_mis"]


@dataclass
class MISRun:
    """Outcome of a truly local MIS run."""

    independent_set: set
    rounds: int
    coloring_rounds: int
    sweep_rounds: int


def maximal_independent_set(graph: nx.Graph | Adjacency) -> MISRun:
    """Compute an MIS of ``graph`` in ``O(Δ² + log* n)`` rounds.

    ``graph`` is a networkx graph or an adjacency mapping, as for
    :class:`~repro.local.Network`.  The colouring and the sweep run on one
    network: the graph is indexed once.
    """
    if len(graph) == 0:
        return MISRun(set(), 0, 0, 0)
    network = Network(graph)
    coloring = _deg_plus_one_coloring(network)
    num_classes = max(coloring.colours.values(), default=1)
    sweep = network.with_inputs(
        node_inputs=coloring.colours, shared={"num_classes": num_classes}
    )
    algorithm = ColorClassMIS()
    result: RunResult = select_engine(algorithm)(
        sweep, algorithm, max_rounds=num_classes + 2
    )
    independent = {node for node, joined in result.outputs.items() if joined}
    return MISRun(
        independent_set=independent,
        rounds=coloring.rounds + result.rounds,
        coloring_rounds=coloring.rounds,
        sweep_rounds=result.rounds,
    )
