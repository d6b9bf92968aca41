"""Ambient engine policy for the synchronous simulator.

Two engines can execute a structured-message baseline: the interpreted
active-set engine (:func:`repro.local.simulator.run_synchronous`, one
Python callable dispatch per node per round) and the array engine
(:func:`repro.local.vectorized.run_vectorized`, one NumPy kernel per
round over whole-network state).  Which one runs is a *policy*
decision that has to reach call sites buried many layers deep —
``deg_plus_one_coloring`` calls ``linial_coloring`` calls the engine —
so the choice travels the same way message accounting does
(:class:`~repro.local.simulator.MessageMeter`): as an ambient policy
object rather than an ``engine=`` parameter threaded through every
signature::

    with EnginePolicy("vectorized"):
        colours, palette, rounds = linial_coloring(graph)
    # every kernel-capable run inside used the array engine

Modes
-----
``auto``
    Use the array engine wherever a kernel exists and numpy is
    importable; fall back to the interpreted engine otherwise.  This is
    the default (also with no policy active at all).
``interpreted``
    Always use the interpreted engine.
``vectorized``
    Require the array engine; a kernel-capable call site raises
    :class:`~repro.local.vectorized.EngineUnavailable` when numpy is
    missing or the algorithm has no kernel.

The policy also records what actually served the simulator runs inside
it: run counts per engine and a per-dispatch round account keyed
``"engine/kernel/backend"`` (:attr:`dispatches`; the backend is
``numpy`` for the array engine and ``-`` for the interpreted one) —
which is how the experiment runner stamps ``engine`` provenance (e.g.
``"vectorized[numpy]"``) and ``engine_rounds`` telemetry onto each
stored :class:`~repro.experiments.store.CellResult`.  The decomposition
peels are not simulator runs and report nothing here; their rounds live
in the decomposition objects and the round ledger.
"""

from __future__ import annotations

__all__ = [
    "ENGINE_MODES",
    "EnginePolicy",
    "current_engine_mode",
    "current_policy",
    "resolve_engine_mode",
    "note_engine_use",
]

#: The valid engine-selection modes, in CLI/`--engine` spelling.
ENGINE_MODES = ("auto", "interpreted", "vectorized")

#: The array library behind the array engine, as named in provenance.
_ARRAY_BACKEND = "numpy"

# Policies currently in effect; the innermost decides the mode, every
# one in scope observes usage.  Per-process state, like the meter stack:
# forked sweep workers each scope their own cells.
_ENGINE_STACK: list["EnginePolicy"] = []


class EnginePolicy:
    """Ambient engine choice plus a usage account for everything inside."""

    def __init__(self, mode: str = "auto") -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r} (expected one of {ENGINE_MODES})"
            )
        self.mode = mode
        self.vectorized_runs = 0
        self.interpreted_runs = 0
        #: Rounds simulated per dispatch, keyed ``"engine/kernel/backend"``.
        self.dispatches: dict[str, int] = {}

    def __enter__(self) -> "EnginePolicy":
        _ENGINE_STACK.append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        _ENGINE_STACK.remove(self)
        return False

    def note(self, kind: str, *, kernel: str | None = None, rounds: int = 0) -> None:
        """Observe one simulator run served by engine ``kind``."""
        if kind == "vectorized":
            self.vectorized_runs += 1
            backend = _ARRAY_BACKEND
        else:
            self.interpreted_runs += 1
            backend = "-"
        key = f"{kind}/{kernel or 'unknown'}/{backend}"
        self.dispatches[key] = self.dispatches.get(key, 0) + rounds

    @property
    def engine_used(self) -> str | None:
        """Which engine(s) served simulator runs inside the policy's scope.

        ``"vectorized[numpy]"`` when only the array engine did,
        ``"interpreted"`` when only the interpreted engine did,
        ``"mixed"`` when both did (e.g. a transform whose forest
        colourings ran on arrays while an adapter baseline ran
        interpreted), ``None`` when no engine ran at all (analytic
        cells).
        """
        if self.vectorized_runs and self.interpreted_runs:
            return "mixed"
        if self.vectorized_runs:
            return f"vectorized[{_ARRAY_BACKEND}]"
        if self.interpreted_runs:
            return "interpreted"
        return None


def current_policy() -> EnginePolicy | None:
    """The innermost active policy, or None outside any scope."""
    return _ENGINE_STACK[-1] if _ENGINE_STACK else None


def current_engine_mode() -> str:
    """The innermost policy's mode, or ``"auto"`` with no policy active."""
    return _ENGINE_STACK[-1].mode if _ENGINE_STACK else "auto"


def resolve_engine_mode(engine: str | None = None) -> str:
    """An explicit ``engine`` argument, validated; else the ambient mode."""
    if engine is None:
        return current_engine_mode()
    if engine not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {engine!r} (expected one of {ENGINE_MODES})"
        )
    return engine


def note_engine_use(kind: str, *, kernel: str | None = None, rounds: int = 0) -> None:
    """Record that one simulator run used engine ``kind`` ("vectorized" or
    "interpreted"), optionally attributing the kernel name and simulated
    round count; every policy currently in effect observes it."""
    for policy in _ENGINE_STACK:
        policy.note(kind, kernel=kernel, rounds=rounds)
