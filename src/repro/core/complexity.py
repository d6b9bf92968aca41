"""Complexity functions and the function ``g`` of Theorems 1 and 2.

The paper relates the truly local complexity ``O(f(Δ) + log* n)`` of a
problem to its complexity on trees through the function ``g`` defined by

    g(n) ^ f(g(n)) = n,            equivalently   f(g) · log g = log n,

which is exactly the balance point between running the truly local
algorithm on a part of maximum degree ``g(n)`` (cost ``f(g(n))``) and
peeling/aggregating over components of depth ``log_{g(n)} n`` (which also
equals ``f(g(n))`` at the balance point).

This module provides:

* :class:`ComplexityFunction` — a named, monotone complexity function;
* the stock functions used in the paper (linear, polynomial, ``log^c Δ``,
  ``√Δ log Δ``);
* :func:`solve_g` — a numeric solver for ``g(n)``;
* the analytic round predictions of Theorem 12 and Theorem 15, used by the
  experiment harness to reproduce the *shape* of Theorem 3 for the
  paper-cited ``f(Δ) = log^{12} Δ`` black box that is not reimplemented
  here (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ComplexityFunction:
    """A monotonically non-decreasing complexity function ``f`` with ``f(0) = 0``."""

    name: str
    fn: Callable[[float], float]

    def __call__(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return float(self.fn(x))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComplexityFunction({self.name!r})"


# ----------------------------------------------------------------------
# stock complexity functions
# ----------------------------------------------------------------------
def linear(scale: float = 1.0) -> ComplexityFunction:
    """``f(Δ) = scale · Δ`` — e.g. MIS and maximal matching [BEK14, PR01]."""
    return ComplexityFunction(f"{scale:g}*delta", lambda x: scale * x)


def quadratic(scale: float = 1.0, shift: float = 0.0) -> ComplexityFunction:
    """``f(Δ) = scale · (Δ + shift)²`` — the Linial-based baselines of this repo."""
    return ComplexityFunction(
        f"{scale:g}*(delta+{shift:g})^2", lambda x: scale * (x + shift) ** 2
    )


def polynomial(exponent: float, scale: float = 1.0) -> ComplexityFunction:
    """``f(Δ) = scale · Δ^exponent``."""
    return ComplexityFunction(
        f"{scale:g}*delta^{exponent:g}", lambda x: scale * x**exponent
    )


def polylog(exponent: float, scale: float = 1.0) -> ComplexityFunction:
    """``f(Δ) = scale · (log₂ Δ)^exponent`` — e.g. the [BBKO22b] edge colouring
    with ``exponent = 12``, the black box behind Theorem 3."""

    def fn(x: float) -> float:
        if x <= 1:
            return 0.0
        return scale * math.log2(x) ** exponent

    return ComplexityFunction(f"{scale:g}*log^{exponent:g}(delta)", fn)


def sqrt_delta_log(scale: float = 1.0) -> ComplexityFunction:
    """``f(Δ) = scale · √Δ · log Δ`` — the [MT20] (Δ+1)-colouring bound."""

    def fn(x: float) -> float:
        if x <= 1:
            return scale * x
        return scale * math.sqrt(x) * math.log2(x)

    return ComplexityFunction(f"{scale:g}*sqrt(delta)*log(delta)", fn)


# ----------------------------------------------------------------------
# log*, g(n), and the analytic predictions
# ----------------------------------------------------------------------
def log_star(n: float) -> int:
    """The iterated logarithm (base 2) of ``n``."""
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return count


def solve_g(f: ComplexityFunction, n: float) -> float:
    """Solve ``g^{f(g)} = n`` (i.e. ``f(g)·ln g = ln n``) for ``g ≥ 1``.

    For monotone non-decreasing, non-zero ``f`` the left-hand side is
    non-decreasing in ``g`` and the solution is unique.  If even ``g = n``
    does not reach ``n`` (which happens when ``f(n) < 1``), the function
    returns ``n`` — the truly local algorithm is then already as fast as
    any algorithm needs to be on such small instances.
    """
    if n <= 1:
        return 1.0
    return solve_g_from_log2(f, math.log2(n), cap=float(n))


def solve_g_from_log2(
    f: ComplexityFunction, log2_n: float, cap: float | None = None
) -> float:
    """Solve ``g^{f(g)} = n`` given ``log₂ n`` (for instances too large to
    represent ``n`` itself as a float, e.g. the asymptotic regime of the
    shape experiments)."""
    if log2_n <= 0:
        return 1.0
    if cap is None:
        cap = 2.0 ** min(log2_n, 1000.0)

    def value(g: float) -> float:
        return f(g) * math.log2(g)

    low, high = 1.0, float(cap)
    if value(high) < log2_n:
        return float(cap)
    for _ in range(200):
        # Geometric mean while the bracket spans orders of magnitude (computed
        # as a product of square roots so that huge brackets do not overflow),
        # arithmetic mean once it is narrow.
        if high / max(low, 1e-12) > 4:
            mid = math.sqrt(low) * math.sqrt(high)
        else:
            mid = (low + high) / 2
        if value(mid) < log2_n:
            low = mid
        else:
            high = mid
        if high - low <= 1e-9 * max(1.0, high):
            break
    return high


def predicted_rounds_tree_from_log2(f: ComplexityFunction, log2_n: float) -> float:
    """The Theorem 1 prediction ``f(g(n)) + log* n`` given ``log₂ n``."""
    if log2_n <= 0:
        return 0.0
    g_value = solve_g_from_log2(f, log2_n)
    return f(g_value) + log_star(log2_n) + 1


def mm_mis_tree_bound_from_log2(log2_n: float, scale: float = 1.0) -> float:
    """The ``Θ(log n / log log n)`` barrier given ``log₂ n``."""
    if log2_n <= 2:
        return scale
    return scale * log2_n / math.log2(log2_n)


def choose_k(f: ComplexityFunction, n: int, rho: int = 1, minimum: int = 2) -> int:
    """An integer cut-off ``k = ⌈g(n)^ρ⌉`` for the decompositions, at least ``minimum``."""
    g_value = solve_g(f, max(n, 2))
    return max(minimum, math.ceil(g_value**rho))


def predicted_rounds_tree(f: ComplexityFunction, n: float) -> float:
    """The Theorem 1 / Theorem 12 prediction ``f(g(n)) + log* n`` on trees."""
    if n <= 1:
        return 0.0
    g_value = solve_g(f, n)
    return f(g_value) + log_star(n)


def predicted_rounds_arboricity(
    f: ComplexityFunction, n: float, arboricity: float, rho: int = 2
) -> float:
    """The Theorem 15 prediction ``a + ρ·f(g^ρ)/(ρ − log_g a) + log* n``.

    Requires ``a ≤ g(n)^ρ / 5``; the caller is responsible for choosing a
    large enough ``ρ``.
    """
    if n <= 1:
        return 0.0
    g_value = solve_g(f, n)
    if g_value <= 1.0:
        return float(arboricity) + log_star(n)
    log_g_a = math.log(max(arboricity, 1.0)) / math.log(g_value)
    denominator = rho - log_g_a
    if denominator <= 0:
        raise ValueError(
            f"rho={rho} too small for arboricity {arboricity} at n={n}: "
            f"log_g(a)={log_g_a:.3f}"
        )
    return arboricity + rho * f(g_value**rho) / denominator + log_star(n)


def mm_mis_tree_bound(n: float, scale: float = 1.0) -> float:
    """The ``Θ(log n / log log n)`` tight bound for MIS / maximal matching on trees.

    This is the barrier that Theorem 3 shows (edge-degree+1)-edge colouring
    breaks through; the experiment harness plots it for comparison.
    """
    if n <= 4:
        return scale
    return scale * math.log2(n) / math.log2(math.log2(n))
