"""Map-iteration kernels.

``_ref`` is the only implementation. It defines each map's step once and
builds it from ``math`` for narrow batches (single-point orbits) and from
numpy for wide ones; the lifts' scalar ``__call__`` is the ``math`` build.
"""

from . import _ref

impl = _ref
BACKEND = "python"

poncelet_advance = _ref.poncelet_advance
poncelet_orbit = _ref.poncelet_orbit
arnold_advance = _ref.arnold_advance
arnold_orbit = _ref.arnold_orbit
poncelet_step = _ref.poncelet_step
poncelet_dgdt = _ref.poncelet_dgdt
arnold_step = _ref.arnold_step
