"""Linial's colour reduction on general graphs.

Starting from the unique identifiers (a trivial proper colouring with
``n^{O(1)}`` colours), each iteration maps a proper ``C``-colouring to a
proper ``q²``-colouring where ``q`` is a prime slightly larger than
``Δ · log_q C``, using the classic polynomial / cover-free-family argument:
a node encodes its colour as a degree-``d`` polynomial over ``GF(q)`` and
picks an evaluation point on which it differs from all of its neighbours'
polynomials.  After ``O(log* n)`` iterations the number of colours is
``O(Δ²)`` and stops shrinking.

The iteration schedule is a function of the identifier space and ``Δ``
only, so every node can compute it locally and terminate after the same
number of rounds.
"""

from __future__ import annotations

import networkx as nx

from repro.baselines.primes import next_prime
from repro.local import (
    Network,
    NodeContext,
    RunResult,
    SynchronousAlgorithm,
    select_engine,
)


def choose_field(num_colours: int, max_degree: int) -> tuple[int, int]:
    """The prime field size ``q`` and polynomial degree ``d`` for one step.

    Requirements: ``q^(d+1) >= num_colours`` (polynomials can encode every
    colour) and ``q > max_degree * d`` (an uncontested evaluation point
    exists).
    """
    delta = max(max_degree, 1)
    q = next_prime(delta + 2)
    while True:
        degree = 1
        while q ** (degree + 1) < num_colours:
            degree += 1
        if q > delta * degree:
            return q, degree
        q = next_prime(q + 1)


def reduction_schedule(initial_colours: int, max_degree: int) -> tuple[list[tuple[int, int, int]], int]:
    """The per-round ``(q, d, colours_before)`` schedule and the final palette size."""
    schedule: list[tuple[int, int, int]] = []
    colours = max(initial_colours, 2)
    while True:
        q, degree = choose_field(colours, max_degree)
        new_colours = q * q
        if new_colours >= colours:
            break
        schedule.append((q, degree, colours))
        colours = new_colours
    return schedule, colours


def polynomial_digits(colour: int, q: int, degree: int) -> list[int]:
    """The base-``q`` digits of ``colour`` (lowest first), padded to ``degree + 1``."""
    digits = []
    value = colour
    for _ in range(degree + 1):
        digits.append(value % q)
        value //= q
    return digits


def evaluate(digits: list[int], x: int, q: int) -> int:
    """Evaluate the polynomial with coefficients ``digits`` at ``x`` over ``GF(q)``."""
    result = 0
    power = 1
    for coefficient in digits:
        result = (result + coefficient * power) % q
        power = (power * x) % q
    return result


def linial_step(colour: int, neighbour_colours: list[int], q: int, degree: int) -> int:
    """One colour-reduction step; returns the new colour in ``[0, q²)``."""
    own = polynomial_digits(colour, q, degree)
    others = [
        polynomial_digits(c, q, degree) for c in neighbour_colours if c != colour
    ]
    for x in range(q):
        own_value = evaluate(own, x, q)
        if all(evaluate(other, x, q) != own_value for other in others):
            return x * q + own_value
    raise RuntimeError(
        "no free evaluation point found; the field parameters are inconsistent"
    )


class LinialColoring(SynchronousAlgorithm):
    """Linial colour reduction run as a synchronous LOCAL algorithm."""

    name = "linial-coloring"

    def initial_state(self, ctx: NodeContext) -> dict:
        schedule, final_colours = reduction_schedule(
            ctx.max_identifier + 1, ctx.max_degree
        )
        return {
            "round": 0,
            "colour": ctx.node_id,
            "schedule": schedule,
            "final_colours": final_colours,
        }

    def messages(self, state: dict, ctx: NodeContext) -> dict:
        return {neighbor: state["colour"] for neighbor in ctx.neighbors}

    def transition(self, state: dict, inbox: dict, ctx: NodeContext) -> dict:
        state = dict(state)
        state["round"] += 1
        index = state["round"] - 1
        if index < len(state["schedule"]):
            q, degree, _ = state["schedule"][index]
            state["colour"] = linial_step(
                state["colour"], list(inbox.values()), q, degree
            )
        return state

    def has_terminated(self, state: dict, ctx: NodeContext) -> bool:
        return state["round"] >= len(state["schedule"])

    def output(self, state: dict, ctx: NodeContext) -> int:
        return state["colour"] + 1  # colours 1 .. final_colours


def linial_coloring(graph: nx.Graph) -> tuple[dict, int, int]:
    """Properly colour ``graph`` with ``O(Δ²)`` colours in ``O(log* n)`` rounds.

    Returns ``(colours, palette_size, rounds)`` where colours are 1-based.
    The engine is the current :class:`~repro.local.CellContext`'s mode:
    ``auto`` (also outside any context) uses the array engine when numpy
    is available; results are identical either way.
    """
    return _linial_coloring(Network(graph))


def _linial_coloring(network: Network) -> tuple[dict, int, int]:
    """:func:`linial_coloring` on a built network (its inputs are unused)."""
    if network.num_nodes == 0:
        return {}, 1, 0
    _, final_colours = reduction_schedule(
        network.max_identifier + 1, network.max_degree
    )
    algorithm = LinialColoring()
    result: RunResult = select_engine(algorithm)(network, algorithm)
    return result.outputs, final_colours, result.rounds
