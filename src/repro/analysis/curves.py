"""Simple growth-curve fits used to check the paper's shape claims.

The key quantitative claim of Theorem 3 is that the transformed edge
colouring runs in ``O(log^{12/13} n)`` rounds, i.e. in ``O(log^β n)``
rounds for a constant ``β < 1`` ("strongly sublogarithmic"), while MIS and
maximal matching are stuck at ``Θ(log n / log log n)``.  The fits below
estimate ``β`` from measured or predicted round counts.
"""

from __future__ import annotations

import math
from typing import Sequence


def fit_power_of_log(ns: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of ``value ≈ c · (log₂ n)^β``.

    Returns ``(beta, c)``.  Points with ``n ≤ 2`` or non-positive values
    are ignored; if fewer than two points survive, the raised
    ``ValueError`` names exactly which ``(n, value)`` pairs were dropped
    and why.
    """
    xs, ys = [], []
    dropped: list[tuple[float, float]] = []
    for n, value in zip(ns, values):
        if n > 2 and value > 0:
            xs.append(math.log(math.log2(n)))
            ys.append(math.log(value))
        else:
            dropped.append((n, value))
    if len(xs) < 2:
        detail = (
            f" dropped {len(dropped)} point(s) with n <= 2 or value <= 0: "
            + ", ".join(f"(n={n!r}, value={value!r})" for n, value in dropped)
            if dropped
            else f" received only {len(xs)} point(s) in total"
        )
        raise ValueError(
            "need at least two usable data points to fit a curve "
            f"(kept {len(xs)} of {len(xs) + len(dropped)});{detail}"
        )
    # Closed-form one-dimensional least squares (what np.polyfit(deg=1)
    # computes) — kept numpy-free so the analysis layer, and everything
    # that imports it, stays usable on an interpreted-only stack.
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0.0:
        raise ValueError(
            "cannot fit a curve: all points share one n "
            f"(log log₂ n = {mean_x!r})"
        )
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / variance
    intercept = mean_y - slope * mean_x
    return float(slope), float(math.exp(intercept))
