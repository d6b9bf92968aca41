"""A synchronous simulator for the LOCAL model of distributed computing.

The LOCAL model (Definition 5 of the paper): the network is a graph whose
nodes are computational units with unique identifiers; computation proceeds
in synchronous rounds, and in every round each node may send an arbitrarily
large message to each neighbour, receive its neighbours' messages and
perform arbitrary local computation.  The complexity of an algorithm is the
number of rounds until every node has produced its output.

This package provides:

* :class:`Network` — the communication graph with identifier assignment,
  optional per-node inputs and a one-time CSR adjacency index;
  :meth:`Network.with_inputs` derives a network with other inputs on the
  same index, so a pipeline indexes each graph once,
* :class:`CSRAdjacency` — the flat int-indexed adjacency layout shared
  with the decomposition hot loops,
* :class:`SynchronousAlgorithm` — the per-node state machine interface,
* :func:`run_synchronous` — the active-set round-by-round simulator,
* :func:`run_vectorized` — the array engine executing whole-network
  rounds as NumPy kernels for four baselines, bit-identical to the
  interpreted engine (:mod:`repro.local.vectorized`),
* :func:`select_engine` — per-algorithm kernel dispatch under the
  engine mode (``auto`` / ``interpreted`` / ``vectorized``),
* :class:`CellContext` / :func:`span` — the per-cell context: the engine
  mode goes in; messages, the engine round account and seconds per
  phase of every simulator run inside come out
  (:mod:`repro.local.context`),
* :func:`run_synchronous_reference` — the seed engine, kept as the
  equivalence oracle and benchmark baseline, and
* :class:`RoundLedger` — explicit round accounting for the orchestrated
  phases of the transformation (decomposition iterations, component
  gathering) that are not run through the message-passing engine.
"""

from repro.local.csr import CSRAdjacency
from repro.local.network import Network
from repro.local.algorithm import NodeContext, SynchronousAlgorithm
from repro.local.context import ENGINE_MODES, CellContext, span
from repro.local.simulator import (
    RunResult,
    run_synchronous,
    run_synchronous_reference,
)
from repro.local.vectorized import (
    EngineUnavailable,
    numpy_available,
    run_vectorized,
    select_engine,
    supports_vectorized,
)
from repro.local.rounds import RoundLedger

__all__ = [
    "CSRAdjacency",
    "Network",
    "NodeContext",
    "SynchronousAlgorithm",
    "RunResult",
    "ENGINE_MODES",
    "CellContext",
    "EngineUnavailable",
    "numpy_available",
    "run_synchronous",
    "run_synchronous_reference",
    "run_vectorized",
    "select_engine",
    "span",
    "supports_vectorized",
    "RoundLedger",
]
