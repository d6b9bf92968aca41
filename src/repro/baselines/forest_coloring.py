"""Cole–Vishkin / GPS87 3-colouring of rooted forests in ``O(log* n)`` rounds.

The algorithm is used by the paper in two places: as the ``O(log* n)``-round
subroutine that splits the atypical-edge forests ``F_i`` into star
collections ``F_{i,j}`` (Section 4), and implicitly inside every truly
local baseline through Linial-style colour reduction.

The implementation is the textbook one:

1. *Colour reduction* — starting from the unique identifiers, each node
   repeatedly recolours itself with ``2·i + b`` where ``i`` is the lowest
   bit position in which its colour differs from its parent's colour and
   ``b`` is its own bit at that position.  Roots use a virtual parent that
   differs in bit 0.  After ``O(log* n)`` iterations every colour lies in
   ``{0, ..., 5}``.
2. *Shift-down and recolour* — three times, every node adopts its parent's
   colour (roots pick a fresh colour), after which each eliminated colour
   class is an independent set whose nodes see at most two distinct
   colours in their neighbourhood and can move to ``{0, 1, 2}``.

The number of iterations of step 1 is a fixed function of the identifier
space, so every node terminates after the same, locally computable number
of rounds — as a deterministic LOCAL algorithm must.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx

from repro.local import (
    Network,
    NodeContext,
    RunResult,
    SynchronousAlgorithm,
    select_engine,
)


def reduction_iterations(max_identifier: int) -> int:
    """Number of Cole–Vishkin iterations needed to reach colours in {0..5}.

    Colours start in ``[0, 2^bits)``; one iteration maps them into
    ``[0, 2·bits)``.  We iterate until the colour space is ``{0..7}`` and
    then perform one final iteration to land in ``{0..5}``.
    """
    bits = max(int(max_identifier).bit_length(), 3)
    iterations = 1
    while bits > 3:
        bits = (2 * bits - 1).bit_length()
        iterations += 1
    return iterations


def cole_vishkin_step(colour: int, parent_colour: int) -> int:
    """One Cole–Vishkin recolouring step."""
    differing = colour ^ parent_colour
    if differing == 0:
        raise ValueError("adjacent nodes share a colour; the colouring is not proper")
    index = (differing & -differing).bit_length() - 1
    bit = (colour >> index) & 1
    return 2 * index + bit


class ForestThreeColoring(SynchronousAlgorithm):
    """3-colouring of a rooted forest; per-node input is the parent node."""

    name = "forest-3-coloring"

    def initial_state(self, ctx: NodeContext) -> dict:
        return {
            "round": 0,
            "colour": ctx.node_id,
            "reduce_rounds": reduction_iterations(ctx.max_identifier),
        }

    def messages(self, state: dict, ctx: NodeContext) -> dict:
        return {neighbor: state["colour"] for neighbor in ctx.neighbors}

    def transition(self, state: dict, inbox: dict, ctx: NodeContext) -> dict:
        state = dict(state)
        state["round"] += 1
        round_number = state["round"]
        reduce_rounds = state["reduce_rounds"]
        parent = ctx.node_input
        colour = state["colour"]

        if round_number <= reduce_rounds:
            parent_colour = inbox[parent] if parent is not None else colour ^ 1
            state["colour"] = cole_vishkin_step(colour, parent_colour)
            return state

        # Six final rounds: (shift-down, recolour) for classes 5, 4, 3.
        phase = round_number - reduce_rounds
        if phase > 6:
            return state
        if phase % 2 == 1:  # shift-down
            if parent is not None:
                state["colour"] = inbox[parent]
            else:
                # Roots only need to differ from their children's new colour
                # (their own old colour), so a colour from {0, 1, 2} works and
                # never resurrects an already-eliminated colour class.
                state["colour"] = min(c for c in (0, 1, 2) if c != colour)
            return state
        eliminated = {2: 5, 4: 4, 6: 3}[phase]
        if colour == eliminated:
            forbidden = set(inbox.values())
            state["colour"] = min(c for c in (0, 1, 2) if c not in forbidden)
        return state

    def has_terminated(self, state: dict, ctx: NodeContext) -> bool:
        return state["round"] >= state["reduce_rounds"] + 6

    def output(self, state: dict, ctx: NodeContext) -> int:
        return state["colour"] + 1  # colours 1, 2, 3


def color_forest_three(
    forest: nx.Graph,
    parents: Mapping[Hashable, Hashable | None],
    identifiers: Mapping[Hashable, int] | None = None,
) -> tuple[dict, int]:
    """3-colour a rooted forest in ``O(log* n)`` rounds.

    Parameters
    ----------
    forest:
        An undirected forest.
    parents:
        Parent pointer for every node (``None`` for roots).  Every
        non-``None`` parent must be a neighbour of the node.
    identifiers:
        Optional identifier assignment (defaults to the canonical one).
        The engine is the current :class:`~repro.local.CellContext`'s mode.

    Returns
    -------
    (colours, rounds):
        A proper colouring with colours in ``{1, 2, 3}`` and the number of
        LOCAL rounds used.
    """
    for node in forest.nodes():
        parent = parents.get(node)
        if parent is not None and not forest.has_edge(node, parent):
            raise ValueError(f"parent {parent!r} of {node!r} is not a neighbour")
    network = Network(
        forest,
        identifiers=identifiers,
        node_inputs={node: parents.get(node) for node in forest.nodes()},
    )
    algorithm = ForestThreeColoring()
    result: RunResult = select_engine(algorithm)(network, algorithm)
    return result.outputs, result.rounds
