"""(deg+1)- and (Δ+1)-vertex colouring in ``O(Δ² + log* n)`` rounds.

Pipeline: Linial colour reduction to ``O(Δ²)`` colours in ``O(log* n)``
rounds, followed by a colour-class sweep taking one round per remaining
colour class.  Every node's final colour is at most its degree plus one,
so the result is simultaneously a (deg+1)- and a (Δ+1)-colouring.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.baselines.color_reduction import _reduce_to_deg_plus_one
from repro.baselines.linial import _linial_coloring
from repro.local import Network
from repro.semigraph.semigraph import Adjacency


@dataclass
class ColoringRun:
    """Outcome of a truly local colouring run."""

    colours: dict
    rounds: int
    linial_rounds: int
    sweep_rounds: int
    palette_after_linial: int


def deg_plus_one_coloring(graph: nx.Graph | Adjacency) -> ColoringRun:
    """Colour ``graph`` properly with each colour at most ``deg + 1``.

    ``graph`` is anything :class:`~repro.local.Network` indexes: a
    networkx graph or an adjacency mapping.  Round complexity:
    ``O(Δ² + log* n)`` — the measured breakdown is returned alongside the
    colouring.
    """
    if len(graph) == 0:
        return ColoringRun({}, 0, 0, 0, 0)
    return _deg_plus_one_coloring(Network(graph))


def _deg_plus_one_coloring(network: Network) -> ColoringRun:
    """:func:`deg_plus_one_coloring` on a built, non-empty network: Linial
    runs on it and the reduction on a derivation, so the graph is indexed
    once."""
    initial, palette, linial_rounds = _linial_coloring(network)
    colours, sweep_rounds = _reduce_to_deg_plus_one(network, initial, palette)
    return ColoringRun(
        colours=colours,
        rounds=linial_rounds + sweep_rounds,
        linial_rounds=linial_rounds,
        sweep_rounds=sweep_rounds,
        palette_after_linial=palette,
    )
