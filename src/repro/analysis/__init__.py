"""Result tables and growth-curve fitting.

The experiment report (:mod:`repro.experiments.report`), the engine
benchmark and the examples render their results as :class:`MeasurementTable`
text tables and write them as JSON or CSV; :func:`fit_power_of_log` fits
``c · log^β n`` to measured round counts so that the *shape* claims of
the paper can be checked quantitatively.
"""

from repro.analysis.measurement import MeasurementTable
from repro.analysis.curves import fit_power_of_log

__all__ = [
    "MeasurementTable",
    "fit_power_of_log",
]
