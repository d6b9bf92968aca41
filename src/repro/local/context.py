"""One per-cell context: engine mode in; messages, engines and phase seconds out.

A sweep cell reports three accounts gathered from simulator runs many
layers deep (a Theorem 12 transform runs the truly local algorithm A,
Linial's colouring, the colour-class sweeps and the forest colourings):
the messages sent, which engine served each run, and the seconds per
phase.  :class:`CellContext` carries all three, and the engine mode the
cell asked for, in one :class:`~contextvars.ContextVar` rather than an
argument threaded through every signature in between::

    with CellContext("interpreted") as context:
        with span("run"):
            result = solve_on_tree(tree, MISAlgorithm())
    context.messages, context.engine, context.engine_rounds, context.timings

Each thread starts outside every context, so two cells in two threads
of one process never see each other's runs.  Only the innermost context
observes.  Outside every context the mode is ``auto`` and :func:`span`
and :func:`record_run` record nothing, so the engines stay usable
standalone.

The seconds spent in cyclic garbage collections go to the ``gc`` phase,
through one :data:`gc.callbacks` hook registered when this module is
imported.  The collector is process-wide, so a collection is attributed
only while exactly one context is active in the whole process (a pool
worker runs one cell at a time); under nested contexts, or contexts in
two threads, it is attributed to none.  ``gc`` overlaps the other
phases: a collection runs inside whatever span allocated.

Modes
-----
``auto``
    Use the array engine wherever a kernel exists and numpy is
    importable; fall back to the interpreted engine otherwise.
``interpreted``
    Always use the interpreted engine.
``vectorized``
    Require the array engine; a kernel-capable call site raises
    :class:`~repro.local.vectorized.EngineUnavailable` when numpy is
    missing or the algorithm has no kernel.

A sweep cell always runs under ``auto``: results are bit-identical
across engines, so the engine is the code's choice, not the sweep's.
The other two modes serve the engine benchmark and the equivalence
tests.

The engine account is keyed ``"engine/kernel/backend"``, with backend
``numpy`` for the array engine and ``-`` for the interpreted one.  The
decomposition peels are not simulator runs and report nothing here;
their rounds live in the decomposition objects and the round ledger.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "ENGINE_MODES",
    "CellContext",
    "record_run",
    "resolve_engine_mode",
    "span",
]

#: The valid engine modes of a :class:`CellContext`.
ENGINE_MODES = ("auto", "interpreted", "vectorized")

#: The array library behind the array engine, as named in provenance.
_ARRAY_BACKEND = "numpy"

_CURRENT: ContextVar["CellContext | None"] = ContextVar("cell_context", default=None)

#: Every context entered and not yet left, in any thread of the process.
_ACTIVE: list["CellContext"] = []


class CellContext:
    """The engine mode of one cell and the accounts of every run inside it."""

    def __init__(self, mode: str = "auto") -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r} (expected one of {ENGINE_MODES})"
            )
        self.mode = mode
        self.messages = 0
        self.runs = 0
        #: Rounds simulated per dispatch, keyed ``"engine/kernel/backend"``.
        self.engine_rounds: dict[str, int] = {}
        #: Seconds per phase; repeated spans of one phase accumulate.
        self.timings: dict[str, float] = {}

    def __enter__(self) -> "CellContext":
        self._token = _CURRENT.set(self)
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        _ACTIVE.remove(self)
        _CURRENT.reset(self._token)
        return False

    @property
    def engine(self) -> str | None:
        """Which engine(s) served the simulator runs inside the context.

        ``"vectorized[numpy]"`` when only the array engine did,
        ``"interpreted"`` when only the interpreted engine did,
        ``"mixed"`` when both did (e.g. a transform whose forest
        colourings ran on arrays while an adapter baseline ran
        interpreted), ``None`` when no engine ran at all (analytic
        cells).
        """
        kinds = {key.partition("/")[0] for key in self.engine_rounds}
        if len(kinds) > 1:
            return "mixed"
        if "vectorized" in kinds:
            return f"vectorized[{_ARRAY_BACKEND}]"
        return kinds.pop() if kinds else None


def resolve_engine_mode() -> str:
    """The innermost context's engine mode; ``auto`` outside every context."""
    context = _CURRENT.get()
    return context.mode if context is not None else "auto"


def record_run(
    result,
    engine: str | None = None,
    kernel: str | None = None,
    started: float | None = None,
):
    """Report one finished run's :class:`~repro.local.RunResult` to the
    innermost context; return the result.

    Every run adds its ``messages_sent`` and one run.  A run served by
    ``engine`` ("interpreted" or "vectorized") adds its rounds under
    ``"engine/kernel/backend"``.  With ``started``, the
    :func:`time.perf_counter` reading at the run's start, the run's
    seconds add to the ``simulate`` phase.
    """
    context = _CURRENT.get()
    if context is None:
        return result
    context.messages += result.messages_sent
    context.runs += 1
    if engine is not None:
        backend = _ARRAY_BACKEND if engine == "vectorized" else "-"
        key = f"{engine}/{kernel}/{backend}"
        context.engine_rounds[key] = context.engine_rounds.get(key, 0) + result.rounds
    if started is not None:
        _add_seconds(context, "simulate", time.perf_counter() - started)
    return result


def _add_seconds(context: CellContext, phase: str, seconds: float) -> None:
    context.timings[phase] = context.timings.get(phase, 0.0) + seconds


#: The sole active context and the clock reading when the running
#: collection started, or ``None`` when it is attributed to no context.
_collection: tuple[CellContext, float] | None = None


def _time_collection(phase: str, info: dict) -> None:
    """The :data:`gc.callbacks` hook: add a collection's seconds to ``gc``
    on the one active context."""
    global _collection
    # One copy, read once: another thread may enter or leave a context
    # while this hook runs.
    active = _ACTIVE.copy()
    if phase == "start":
        _collection = (active[0], time.perf_counter()) if len(active) == 1 else None
    elif _collection is not None:
        context, started = _collection
        _collection = None
        if len(active) == 1 and active[0] is context:
            _add_seconds(context, "gc", time.perf_counter() - started)


gc.callbacks.append(_time_collection)


@contextmanager
def span(phase: str) -> Iterator[None]:
    """Time a block and add it to ``phase`` on the innermost context."""
    start = time.perf_counter()
    try:
        yield
    finally:
        context = _CURRENT.get()
        if context is not None:
            _add_seconds(context, phase, time.perf_counter() - start)
