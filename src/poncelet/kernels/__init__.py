"""Map-iteration kernels.

``_ref`` is the only implementation. It iterates narrow batches
(single-point orbits) with a scalar ``math`` loop and wide batches with
numpy; the lifts' scalar ``__call__`` uses the same scalar steps.
"""

from . import _ref

impl = _ref
BACKEND = "python"

poncelet_advance = _ref.poncelet_advance
poncelet_orbit = _ref.poncelet_orbit
arnold_advance = _ref.arnold_advance
arnold_orbit = _ref.arnold_orbit
poncelet_scalar_step = _ref.poncelet_scalar_step
arnold_scalar_step = _ref.arnold_scalar_step
