"""Setuptools shim.

The environment this repository targets has no ``wheel`` package available
(offline), so ``pip install -e .`` falls back to the legacy
``setup.py develop`` code path, which this file enables.

``numpy`` is a declared dependency: the array engine
(:mod:`repro.local.vectorized`) runs the four kernel-capable baselines
wherever they appear.  On an interpreter without numpy they run on the
interpreted engine instead, with bit-identical results.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "numpy",
    ],
)
