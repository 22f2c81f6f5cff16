"""RWR proximity substrate: exact proximity computation.

The exact primitives the engine and its tests rest on (the engine's own
propagation kernel lives in :mod:`repro.core.propagation`):

* :mod:`power_method` — the iterative Power Method for a single proximity
  vector (a column of ``P``) and for the full proximity matrix; the engine's
  exact fallback;
* :mod:`linear_solver` — the LU factorisation the tests use as an
  exactness oracle;
* :mod:`proximity` — the fully materialised ``P`` behind the brute-force
  baselines of :mod:`repro.core.baseline`.
"""

from .linear_solver import ProximityLU
from .power_method import (
    proximity_vector,
    proximity_matrix,
    proximity_column,
    PowerMethodResult,
)
from .proximity import ProximityMatrix

__all__ = [
    "proximity_vector",
    "proximity_matrix",
    "proximity_column",
    "PowerMethodResult",
    "ProximityLU",
    "ProximityMatrix",
]
