"""Measurement records, table formatting and growth-curve fitting.

The experiment report (:mod:`repro.experiments.report`), the engine
benchmark and the examples render their results as :class:`MeasurementTable`
text tables; :func:`fit_power_of_log` and :func:`growth_exponent` fit
simple growth models (``log n``, ``log n / log log n``, ``log^β n``) to
measured round counts so that the *shape* claims of the paper can be
checked quantitatively.
"""

from repro.analysis.measurement import (
    Measurement,
    MeasurementTable,
    measurements_from_csv,
    measurements_to_csv,
)
from repro.analysis.curves import fit_power_of_log, growth_exponent

__all__ = [
    "Measurement",
    "MeasurementTable",
    "measurements_to_csv",
    "measurements_from_csv",
    "fit_power_of_log",
    "growth_exponent",
]
