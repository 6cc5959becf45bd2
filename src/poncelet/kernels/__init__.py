"""Map-iteration kernels.

``_ref`` is the only implementation. It defines each map's step once and
builds it from ``math`` for one float and from numpy for tables of two or
more points; each map's one-point loop runs the ``math`` step's
statements inline for one-point orbits, and ``step_loop`` iterates any
other one-float map one call per step, so every one-point loop is here.
The lifts' scalar ``__call__`` is the ``math`` build.

The Poncelet and Arnold lifts tabulate through ``*_orbit`` and call the
``*_step`` they bind at construction (a `FunctionLift` tabulates its
callable through ``step_loop``, a `RigidLift` in closed form); the
Poncelet and Arnold families bind ``*_loop`` to the map's fixed constants
once and run it per parameter, for the one-float orbits of the pair
count, and the rigid family runs ``step_loop``. ``*_advance`` (a
table's last row) stays for the benchmark: its tracer wraps it by name,
and its L0 probe times the kernels through it.
"""

from . import _ref

impl = _ref
BACKEND = "python"

poncelet_advance = _ref.poncelet_advance
poncelet_orbit = _ref.poncelet_orbit
arnold_advance = _ref.arnold_advance
arnold_orbit = _ref.arnold_orbit
poncelet_step = _ref.poncelet_step
poncelet_loop = _ref.poncelet_loop
poncelet_dgdt = _ref.poncelet_dgdt
arnold_step = _ref.arnold_step
arnold_loop = _ref.arnold_loop
step_loop = _ref.step_loop
