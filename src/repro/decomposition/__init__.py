"""Graph decompositions used by the transformation.

* :mod:`repro.decomposition.rake_compress` — the CHL+19 rake-and-compress
  process (Algorithm 1 of the paper) used by Theorem 12 on trees, together
  with the structural guarantees of Lemmas 10 and 11 as checkable
  properties.
* :mod:`repro.decomposition.arboricity` — the new Decomposition process of
  the paper (Algorithm 3) for graphs of bounded arboricity used by
  Theorem 15: layers, typical/atypical edges, the ``2a`` forests ``F_i``
  and the ``6a`` star collections ``F_{i,j}``, with the guarantees of
  Lemmas 13 and 14 as checkable properties.

Both run one peel with one compress rule (:mod:`repro.decomposition.peel`),
and Algorithm 3 splits its edges while it peels.
"""

from repro.decomposition.rake_compress import (
    Layer,
    RakeCompressDecomposition,
    rake_and_compress,
)
from repro.decomposition.arboricity import (
    ArboricityDecomposition,
    arboricity_decomposition,
)

__all__ = [
    "Layer",
    "RakeCompressDecomposition",
    "rake_and_compress",
    "ArboricityDecomposition",
    "arboricity_decomposition",
]
