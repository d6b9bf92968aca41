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

The engine account is keyed ``"engine/kernel/backend"``, with backend
``numpy`` for the array engine and ``-`` for the interpreted one.  The
decomposition peels are not simulator runs and report nothing here;
their rounds live in the decomposition objects and the round ledger.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "ENGINE_MODES",
    "CellContext",
    "check_engine_mode",
    "record_run",
    "resolve_engine_mode",
    "span",
]

#: The valid engine-selection modes, in CLI/`--engine` spelling.
ENGINE_MODES = ("auto", "interpreted", "vectorized")

#: The array library behind the array engine, as named in provenance.
_ARRAY_BACKEND = "numpy"

_CURRENT: ContextVar["CellContext | None"] = ContextVar("cell_context", default=None)


def check_engine_mode(mode: str) -> str:
    """``mode`` itself, or ``ValueError`` when it is not in :data:`ENGINE_MODES`."""
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r} (expected one of {ENGINE_MODES})"
        )
    return mode


class CellContext:
    """The engine mode of one cell and the accounts of every run inside it."""

    def __init__(self, mode: str = "auto") -> None:
        self.mode = check_engine_mode(mode)
        self.messages = 0
        self.runs = 0
        #: Rounds simulated per dispatch, keyed ``"engine/kernel/backend"``.
        self.engine_rounds: dict[str, int] = {}
        #: Seconds per phase; repeated spans of one phase accumulate.
        self.timings: dict[str, float] = {}

    def __enter__(self) -> "CellContext":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info) -> bool:
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


def resolve_engine_mode(engine: str | None = None) -> str:
    """An explicit ``engine`` argument, validated; else the context's mode."""
    if engine is not None:
        return check_engine_mode(engine)
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
