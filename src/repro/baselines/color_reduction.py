"""Colour-class sweep: reduce a proper ``C``-colouring to a (deg+1)-colouring.

One colour class is processed per round; because a colour class is an
independent set, all of its nodes may simultaneously pick the smallest
colour not already taken by a finished neighbour, which is always at most
``deg + 1``.  This costs ``C`` rounds — the standard additive trade-off
used by every truly local algorithm built from Linial's colouring.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx

from repro.local import Network, NodeContext, RunResult, SynchronousAlgorithm, select_engine


class ColorClassReduction(SynchronousAlgorithm):
    """Greedy recolouring by colour classes.

    Per-node input: the node's colour in the initial proper colouring.
    Shared input ``num_classes``: the palette size of the initial colouring.
    """

    name = "color-class-reduction"

    def initial_state(self, ctx: NodeContext) -> dict:
        return {"round": 0, "final": None}

    def messages(self, state: dict, ctx: NodeContext) -> dict:
        return {neighbor: state["final"] for neighbor in ctx.neighbors}

    def transition(self, state: dict, inbox: dict, ctx: NodeContext) -> dict:
        state = dict(state)
        state["round"] += 1
        if state["final"] is None and ctx.node_input == state["round"]:
            taken = {colour for colour in inbox.values() if colour is not None}
            candidate = 1
            while candidate in taken:
                candidate += 1
            state["final"] = candidate
        return state

    def has_terminated(self, state: dict, ctx: NodeContext) -> bool:
        return state["round"] >= ctx.shared["num_classes"]

    def output(self, state: dict, ctx: NodeContext) -> int:
        return state["final"]


def reduce_to_deg_plus_one(
    graph: nx.Graph,
    colours: Mapping[Hashable, int],
    num_classes: int,
) -> tuple[dict, int]:
    """Reduce a proper colouring to a (deg+1)-colouring in ``num_classes`` rounds.

    Returns ``(new_colours, rounds)``.
    """
    return _reduce_to_deg_plus_one(Network(graph), colours, num_classes)


def _reduce_to_deg_plus_one(
    network: Network, colours: Mapping[Hashable, int], num_classes: int
) -> tuple[dict, int]:
    """:func:`reduce_to_deg_plus_one` on a derivation of a built network."""
    derived = network.with_inputs(
        node_inputs=colours, shared={"num_classes": num_classes}
    )
    algorithm = ColorClassReduction()
    result: RunResult = select_engine(algorithm)(
        derived, algorithm, max_rounds=num_classes + 1
    )
    return result.outputs, result.rounds
