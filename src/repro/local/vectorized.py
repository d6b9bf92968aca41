"""Array engine: whole-network rounds as NumPy operations.

The interpreted engine (:func:`repro.local.simulator.run_synchronous`)
dispatches one Python callable per node per round, which caps every
suite at n ≈ 10⁴ on wall-clock alone.  For *structured-message*
baselines — algorithms whose per-round behaviour is a fixed arithmetic
function of the node's colour and its neighbours' colours — the whole
round can instead run as a handful of NumPy operations over flat
per-node state (colours, parent pointers, active masks) indexed by the
existing CSR layout (:meth:`repro.local.csr.CSRAdjacency.array_layout`):
neighbour gathers via ``indptr``/``indices``, segment reductions via
prefix sums, and bit manipulation for the Linial / Cole–Vishkin colour
reductions.

The contract is **bit-identity**: :func:`run_vectorized` must return a
:class:`~repro.local.simulator.RunResult` whose ``rounds``,
``messages_sent``, ``outputs`` and cell-context account are exactly what
:func:`run_synchronous` produces for the same network and algorithm —
including raising the same exceptions with the same messages.  The
equivalence suite (``tests/test_engine_equivalence.py`` and the
property tests) pins this on every kernel.

Four baselines have a kernel: Linial colouring, Cole–Vishkin forest
3-colouring, colour-class MIS and Δ+1 colour-class reduction.  The
kernel table maps each algorithm class to ``(name, kernel)`` and lookup
walks the algorithm's MRO, so subclasses inherit their base class's
kernel.  :func:`supports_vectorized` reports capability and
:func:`select_engine` resolves the per-cell engine mode
(:mod:`repro.local.context`) to a runner, falling back to the
interpreted engine for everything without a kernel.

NumPy is imported once, here; without it ``np`` is ``None``,
:func:`numpy_available` is false, ``auto`` degrades to the interpreted
engine and a ``vectorized`` context raises :class:`EngineUnavailable`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from repro.local.context import record_run, resolve_engine_mode
from repro.local.network import Network
from repro.local.simulator import RunResult, SynchronousAlgorithm, run_synchronous

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

__all__ = [
    "EngineUnavailable",
    "numpy_available",
    "supports_vectorized",
    "run_vectorized",
    "select_engine",
]


class EngineUnavailable(RuntimeError):
    """The vectorized engine was required but cannot serve."""


def numpy_available() -> bool:
    """Whether numpy imported.

    Reads the module attribute ``np`` at call time, so setting it to
    ``None`` simulates a numpy-free interpreter for every availability
    check in the stack (and for forked pool and server workers).
    """
    return np is not None


def _require_numpy() -> None:
    if np is None:
        raise EngineUnavailable(
            "the vectorized engine requires numpy, which is not importable"
        )


# ----------------------------------------------------------------------
# kernel table
# ----------------------------------------------------------------------
@functools.cache
def _kernel_table() -> dict[type, tuple[str, Callable]]:
    """``{algorithm type: (name, kernel)}``, built on first use.

    Built lazily to avoid a local ↔ baselines import cycle.  A kernel
    takes ``(network, algorithm, max_rounds)`` and returns
    ``(rounds, messages_sent, outputs)``.
    """
    from repro.baselines.color_reduction import ColorClassReduction
    from repro.baselines.forest_coloring import ForestThreeColoring
    from repro.baselines.linial import LinialColoring
    from repro.baselines.mis import ColorClassMIS

    return {
        LinialColoring: ("linial", _linial_kernel),
        ForestThreeColoring: ("forest-3-coloring", _forest_kernel),
        ColorClassMIS: ("color-class-mis", _mis_kernel),
        ColorClassReduction: ("color-class-reduction", _color_reduction_kernel),
    }


def _kernel_for(algorithm: SynchronousAlgorithm) -> tuple[str, Callable] | None:
    """``(name, kernel)`` for ``algorithm``, walking its MRO so subclasses
    of a kernel-capable algorithm resolve to the base class's kernel."""
    table = _kernel_table()
    for klass in type(algorithm).__mro__:
        if klass in table:
            return table[klass]
    return None


def supports_vectorized(algorithm: SynchronousAlgorithm) -> bool:
    """Whether ``algorithm`` has an array kernel (MRO-aware)."""
    return _kernel_for(algorithm) is not None


# ----------------------------------------------------------------------
# array primitives
# ----------------------------------------------------------------------
def _identifier_array(network: Network):
    """Node identifiers as an int64 array in CSR index order (cached on
    the network, and shared with derivations made after it is built)."""
    cached = network._identifier_array
    if cached is None:
        identifiers = network.identifiers
        cached = np.fromiter(
            (identifiers[node] for node in network.csr.nodes),
            dtype=np.int64,
            count=network.csr.num_nodes,
        )
        network._identifier_array = cached
    return cached


def _segment_sum(values, indptr):
    """Sum ``values`` over CSR segments delimited by ``indptr``.

    Implemented with an exclusive prefix sum rather than
    ``np.add.reduceat`` — ``reduceat`` misreads empty segments (it
    returns the *next* element instead of zero), and every isolated
    node has an empty neighbourhood.
    """
    prefix = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=prefix[1:])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]


def _bitwise_count(values):
    """Per-element popcount of an int64 array."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values)
    # numpy 1.x: unpack the little-endian bytes of each int64, sum bits.
    flat = np.ascontiguousarray(values, dtype=np.int64)
    as_bytes = flat.view(np.uint8).reshape(flat.shape + (8,))
    return np.unpackbits(as_bytes, axis=-1).sum(axis=-1).astype(flat.dtype)


def _node_input_array(network: Network):
    """Per-node inputs (colour classes) as int64 in CSR index order."""
    node_inputs = network.node_inputs
    return np.fromiter(
        (node_inputs[node] for node in network.csr.nodes),
        dtype=np.int64,
        count=network.csr.num_nodes,
    )


def _round_cap(network: Network, max_rounds: int | None) -> int:
    # Mirrors run_synchronous's default cap so the upfront check below
    # raises exactly when the interpreted loop would.
    return max_rounds if max_rounds is not None else 4 * network.num_nodes + 64


def _check_round_cap(algorithm, total_rounds: int, cap: int) -> None:
    # The interpreted engine raises at the top of round ``cap`` when the
    # algorithm has not terminated; with a schedule known upfront, that is
    # exactly ``total_rounds > cap``.
    if total_rounds > cap:
        raise RuntimeError(
            f"{algorithm.name} exceeded the round cap of {cap} rounds"
        )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _linial_kernel(network: Network, algorithm, max_rounds):
    """Linial colour reduction, one array pass per scheduled round.

    State is one colour per node; a round with field parameters
    ``(q, degree)`` encodes colours as degree-``degree`` polynomials over
    ``GF(q)`` (a digit matrix), evaluates all of them at every
    ``x ∈ [0, q)`` at once, and picks each node's first evaluation point
    uncontested by its differently-coloured neighbours.  Conflicts are
    tested one ``x``-column at a time so peak memory stays at O(E) —
    an (E, q) conflict matrix would be hundreds of MB at n = 10⁶.
    """
    from repro.baselines.linial import reduction_schedule

    n = network.csr.num_nodes
    if n == 0:
        return 0, 0, {}
    schedule, _ = reduction_schedule(network.max_identifier + 1, network.max_degree)
    total_rounds = len(schedule)
    _check_round_cap(algorithm, total_rounds, _round_cap(network, max_rounds))

    indptr, indices, edge_sources = network.csr.array_layout()
    colours = _identifier_array(network).copy()
    node_range = np.arange(n, dtype=np.int64)

    for q, degree, _ in schedule:
        width = degree + 1
        # digits[i, j] = j-th base-q digit of node i's colour.
        digits = np.empty((n, width), dtype=np.int64)
        value = colours.copy()
        for j in range(width):
            digits[:, j] = value % q
            value //= q
        # powers[j, x] = x^j mod q  →  values[i, x] = P_i(x) mod q.
        xs = np.arange(q, dtype=np.int64)
        powers = np.empty((width, q), dtype=np.int64)
        powers[0] = 1
        for j in range(1, width):
            powers[j] = (powers[j - 1] * xs) % q
        values = (digits @ powers) % q

        # A neighbour contests x only if its colour differs (linial_step
        # skips same-coloured neighbours) and its polynomial agrees at x.
        differing = colours[edge_sources] != colours[indices]
        free = np.empty((n, q), dtype=np.bool_)
        for x in range(q):
            column = values[:, x]
            clashes = differing & (column[edge_sources] == column[indices])
            free[:, x] = _segment_sum(clashes, indptr) == 0
        if not free.any(axis=1).all():
            raise RuntimeError(
                "no free evaluation point found; the field parameters are inconsistent"
            )
        x_star = free.argmax(axis=1)
        colours = x_star * q + values[node_range, x_star]

    outputs = {
        node: colour + 1
        for node, colour in zip(network.csr.nodes, colours.tolist())
    }
    return total_rounds, total_rounds * len(indices), outputs


def _forest_kernel(network: Network, algorithm, max_rounds):
    """Cole–Vishkin forest 3-colouring as whole-forest bit manipulation.

    Reduce rounds: every node's new colour is ``2·i + b`` where ``i`` is
    the lowest bit position where it differs from its parent (roots use a
    virtual parent ``colour ^ 1``).  Then six rounds alternate shift-down
    (adopt the parent's colour; roots pick the least colour in {0, 1, 2}
    different from their own) and recolouring of classes 5, 4, 3 down
    into {0, 1, 2} using segment reductions over neighbour colours.
    """
    from repro.baselines.forest_coloring import reduction_iterations

    n = network.csr.num_nodes
    if n == 0:
        return 0, 0, {}
    reduce_rounds = reduction_iterations(network.max_identifier)
    total_rounds = reduce_rounds + 6
    _check_round_cap(algorithm, total_rounds, _round_cap(network, max_rounds))

    indptr, indices, edge_sources = network.csr.array_layout()
    csr = network.csr
    node_index = csr.index
    parents = np.full(n, -1, dtype=np.int64)
    for node, parent in network.node_inputs.items():
        if parent is not None:
            parents[node_index[node]] = node_index[parent]
    roots = parents < 0
    parent_or_self = np.where(roots, np.arange(n, dtype=np.int64), parents)

    colours = _identifier_array(network).copy()
    for _ in range(reduce_rounds):
        parent_colours = np.where(roots, colours ^ 1, colours[parent_or_self])
        differing = colours ^ parent_colours
        if not differing.all():
            raise ValueError(
                "adjacent nodes share a colour; the colouring is not proper"
            )
        low = differing & -differing
        position = _bitwise_count(low - 1).astype(np.int64)
        colours = 2 * position + ((colours >> position) & 1)

    for phase in range(1, 7):
        if phase % 2 == 1:  # shift-down
            root_colours = np.where(colours == 0, 1, 0)
            colours = np.where(roots, root_colours, colours[parent_or_self])
            continue
        eliminated = {2: 5, 4: 4, 6: 3}[phase]
        moving = colours == eliminated
        neighbour_colours = colours[indices]
        seen0 = _segment_sum(neighbour_colours == 0, indptr) > 0
        seen1 = _segment_sum(neighbour_colours == 1, indptr) > 0
        seen2 = _segment_sum(neighbour_colours == 2, indptr) > 0
        if (moving & seen0 & seen1 & seen2).any():
            # min() over an empty candidate set in the interpreted step.
            raise ValueError(
                "min() arg is an empty sequence"
            )
        replacement = np.where(~seen0, 0, np.where(~seen1, 1, 2))
        colours = np.where(moving, replacement, colours)

    outputs = {
        node: colour + 1
        for node, colour in zip(csr.nodes, colours.tolist())
    }
    return total_rounds, total_rounds * len(indices), outputs


def _mis_kernel(network: Network, algorithm, max_rounds):
    """Colour-class MIS sweep as whole-network mask updates.

    One round per colour class plus one propagation round.  Per round
    ``r``: a node is blocked once any neighbour joined in an *earlier*
    round (messages carry the previous round's ``in_mis``), and the
    nodes of class ``r`` join unless blocked.  Classes of a proper
    colouring are independent sets, so simultaneous joins never
    conflict — and on an improper input the kernel misbehaves exactly
    like the interpreted transition (both endpoints join), keeping
    bit-identity unconditional.
    """
    n = network.csr.num_nodes
    if n == 0:
        return 0, 0, {}
    num_classes = network.shared["num_classes"]
    total_rounds = num_classes + 1
    _check_round_cap(algorithm, total_rounds, _round_cap(network, max_rounds))

    indptr, indices, _ = network.csr.array_layout()
    colour = _node_input_array(network)
    in_mis = np.zeros(n, dtype=np.bool_)
    blocked = np.zeros(n, dtype=np.bool_)
    for r in range(1, total_rounds + 1):
        # Gather before update: the segment sum sees in_mis as of the
        # end of round r-1, which is what the messages carried.
        neighbour_joined = _segment_sum(in_mis[indices], indptr) > 0
        blocked = blocked | neighbour_joined
        in_mis = in_mis | ((colour == r) & ~blocked)

    outputs = {
        node: bool(flag)
        for node, flag in zip(network.csr.nodes, in_mis.tolist())
    }
    return total_rounds, total_rounds * len(indices), outputs


def _color_reduction_kernel(network: Network, algorithm, max_rounds):
    """Δ+1 colour-class reduction as per-round scatter/mex over classes.

    One round per class of the initial proper colouring.  In round ``r``
    the nodes of class ``r`` pick the smallest colour not taken by an
    already-finished neighbour (messages carry the previous round's
    ``final``).  The mex runs as a scatter into a compact
    (moving-nodes × palette) bitmap: a node has at most ``deg``
    finished neighbours, so some colour in ``[1, max_degree + 1]`` is
    always free and the bitmap width is bounded by ``max_degree + 2``.
    """
    n = network.csr.num_nodes
    if n == 0:
        return 0, 0, {}
    num_classes = network.shared["num_classes"]
    total_rounds = num_classes
    _check_round_cap(algorithm, total_rounds, _round_cap(network, max_rounds))

    indptr, indices, edge_sources = network.csr.array_layout()
    colour = _node_input_array(network)
    final = np.zeros(n, dtype=np.int64)  # 0 = not yet recoloured (None)
    width = network.max_degree + 2
    for r in range(1, total_rounds + 1):
        moving = (colour == r) & (final == 0)
        rows = int(moving.sum())
        if rows == 0:
            continue
        # Compact row index for each moving node; valid only under `moving`.
        row_of_node = np.cumsum(moving, dtype=np.int64) - 1
        # CSR rows owned by a moving node, restricted to neighbours that
        # finished in an earlier round (final gathered before update —
        # exactly what the messages carried).
        relevant = moving[edge_sources] & (final[indices] > 0)
        used = np.zeros((rows, width), dtype=np.bool_)
        used[row_of_node[edge_sources[relevant]], final[indices[relevant]]] = True
        # Smallest colour ≥ 1 not marked used — guaranteed within width.
        mex = (~used[:, 1:]).argmax(axis=1) + 1
        picks = np.zeros(n, dtype=np.int64)
        picks[moving] = mex
        final = np.where(moving, picks, final)

    outputs = {
        node: (value if value else None)
        for node, value in zip(network.csr.nodes, final.tolist())
    }
    return total_rounds, total_rounds * len(indices), outputs


# ----------------------------------------------------------------------
# engine entry points
# ----------------------------------------------------------------------
def run_vectorized(
    network: Network,
    algorithm: SynchronousAlgorithm,
    max_rounds: int | None = None,
) -> RunResult:
    """Run ``algorithm`` on the array engine (bit-identical results).

    Raises :class:`EngineUnavailable` when numpy is missing or the
    algorithm has no kernel; use :func:`select_engine` to fall back
    automatically.
    """
    _require_numpy()
    entry = _kernel_for(algorithm)
    if entry is None:
        raise EngineUnavailable(
            f"{algorithm.name} has no vectorized kernel; "
            f"run it with run_synchronous or engine='auto'"
        )
    name, kernel = entry
    simulate_start = time.perf_counter()
    rounds, messages_sent, outputs = kernel(network, algorithm, max_rounds)
    return record_run(
        RunResult(
            algorithm=algorithm.name,
            rounds=rounds,
            outputs=outputs,
            messages_sent=messages_sent,
        ),
        "vectorized", name, simulate_start,
    )


def select_engine(algorithm: SynchronousAlgorithm) -> Callable[..., RunResult]:
    """Resolve the current :class:`~repro.local.context.CellContext`'s
    engine mode for ``algorithm`` to a runner callable.

    ``"auto"`` (also outside every context) picks :func:`run_vectorized`
    exactly when the algorithm has a kernel and numpy is available.
    """
    mode = resolve_engine_mode()
    if mode == "interpreted":
        return run_synchronous
    if mode == "vectorized":
        _require_numpy()
        if not supports_vectorized(algorithm):
            raise EngineUnavailable(
                f"{algorithm.name} has no vectorized kernel"
            )
        return run_vectorized
    if numpy_available() and supports_vectorized(algorithm):
        return run_vectorized
    return run_synchronous
