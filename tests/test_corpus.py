"""The recorded output corpus: the benchmark workloads' outputs, and a
sweep of lifts' estimates, to the bit.

tests/data/corpus_staircase.txt holds every estimate of the staircase
workload's inputs for seeds 1..5, one `rotation_number` call per line:
c, tol and t, then the estimate's value and radius as `float.hex`, its
lock p/q (or -) and its iterations.  tests/data/corpus_count.txt holds
every pair count of the count workload's inputs for seeds 1..3, one
`count_poncelet_pairs` call per line: c, n and the closure seed, then
each pair's t (hex), p and closure residual (hex), and the missing
pairs' (p, reason).  Both run on poncelet_family(1.0, c).
tests/data/corpus_lifts.txt holds `rotation_number(g, tol=1e-3)` of 592
lifts whose estimates scan the LOCK_GRID-point grid far more often than
the staircase's: ArnoldLift(omega, K) for K in 0.3, 0.5, 0.8, 0.9 and
omega in linspace(0.01, 0.99, 98), RigidLift(i / 64) for i = 0..64 and
RigidLift at 135 draws of random.Random(59).uniform(-3.0, 3.0).  A line
holds the family and its parameters, then the estimate's fields as the
staircase's do and, for a lock p/q, the `float.hex` of
`detect_rational_lock(g, p, q)` (or - if the grid holds no root cell).

The inputs are written into the files, so the test reads no benchmark
code; each file's header names the platform that recorded it.  The test
recomputes every line and fails by naming the first records that
differ.  It reaches the package only through `import poncelet`, so CI
reruns it against the installed copy too.  A change that moves an output
re-records, from the checkout with the package importable, with

    python tests/test_corpus.py --record

which draws the workloads' inputs from perfbench's `make_inputs` again,
and the lifts' from their formula, and lists the lines it changed.
"""

import functools
import platform
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from poncelet.families import poncelet_family
from poncelet.lifts import ArnoldLift, RigidLift
from poncelet.rotation import (count_poncelet_pairs, detect_rational_lock,
                               rotation_number)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
R = 1.0
SHOWN = 5  # differing records a failure names
LIFT_TOL = 1e-3
LIFTS = {"arnold": ArnoldLift, "rigid": RigidLift}


@functools.cache
def _family(c):
    return poncelet_family(R, c)


def _fields(est):
    lock = "-" if est.lock is None else "%d/%d" % est.lock
    return (f"{est.value.hex()} {est.error_radius.hex()} {lock} "
            f"{est.iterations}")


def _estimate(c, tol, t):
    return _fields(rotation_number(_family(c).lift(t), tol=tol))


def _lift_estimate(kind, *params):
    g = LIFTS[kind](*map(float, params))
    est = rotation_number(g, tol=LIFT_TOL)
    if est.lock is None:
        return _fields(est)
    point = detect_rational_lock(g, *est.lock)
    return f"{_fields(est)} {'-' if point is None else point.hex()}"


def _count(c, n, seed):
    report = count_poncelet_pairs(_family(c), n, seed=seed)
    pairs = " ".join(f"{pair.t.hex()}:{pair.p}:{pair.closure_residual.hex()}"
                     for pair in report.pairs)
    return f"{pairs or '-'}\t{report.missing!r}"


def _run(kind, fields):
    if kind == "staircase":
        c, tol, t = map(float, fields)
        return _estimate(c, tol, t)
    if kind == "lifts":
        return _lift_estimate(*fields)
    c, n, seed = float(fields[0]), int(fields[1]), int(fields[2])
    return _count(c, n, seed)


def _read(kind):
    """The (inputs, outputs) records of a corpus file, header skipped."""
    lines = (DATA / f"corpus_{kind}.txt").read_text().splitlines()
    return [line.split("\t", 1) for line in lines if not line.startswith("#")]


def _workload_inputs(kind, seeds):
    """The input fields of each operation of the workload's seeds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    rows = []
    for seed in seeds:
        for cycle in workloads.make_inputs(kind, seed):
            for unit in cycle:
                if kind == "staircase":
                    rows += [(repr(unit["c"]), repr(unit["tol"]), repr(t))
                             for t, _ in unit["grid"]]
                else:
                    rows.append((repr(unit["c"]), str(unit["n"]),
                                 str(unit["closure_seed"])))
    return rows


def _lift_inputs():
    """The input fields of each lift of corpus_lifts.txt."""
    draws = random.Random(59)
    return ([("arnold", repr(float(omega)), repr(K))
             for K in (0.3, 0.5, 0.8, 0.9)
             for omega in np.linspace(0.01, 0.99, 98)]
            + [("rigid", repr(i / 64)) for i in range(65)]
            + [("rigid", repr(draws.uniform(-3.0, 3.0)))
               for _ in range(135)])


# (what the file holds, legend of a line, its inputs)
CORPORA = {
    "staircase": ("staircase workload, seeds 1..5, on poncelet_family(1.0, c)",
                  "c tol t\tvalue radius lock iterations",
                  functools.partial(_workload_inputs, "staircase", range(1, 6))),
    "count": ("count workload, seeds 1..3, on poncelet_family(1.0, c)",
              "c n seed\tt:p:residual ...\t[(p, reason), ...]",
              functools.partial(_workload_inputs, "count", range(1, 4))),
    "lifts": ("rotation_number(g, tol=0.001) of Arnold and rigid lifts",
              "family parameters\tvalue radius lock iterations [lock point]",
              _lift_inputs),
}


@pytest.mark.parametrize("kind", sorted(CORPORA))
def test_corpus_holds_every_record(kind):
    records = _read(kind)
    assert records, f"corpus_{kind}.txt holds no records"
    differ = []
    for number, (inputs, want) in enumerate(records, 1):
        got = _run(kind, inputs.split())
        if got != want:
            differ.append(f"record {number} ({inputs}):\n"
                          f"  recorded {want}\n  computed {got}")
    assert not differ, (
        f"{len(differ)} of {len(records)} records of corpus_{kind}.txt "
        "differ; the first:\n" + "\n".join(differ[:SHOWN]))


def record():
    """Rewrite every corpus file from its inputs, and print the number of
    each record whose line changed."""
    DATA.mkdir(exist_ok=True)
    for kind, (title, legend, inputs_of) in CORPORA.items():
        path = DATA / f"corpus_{kind}.txt"
        old = dict(_read(kind)) if path.exists() else {}
        header = [
            f"# {title}",
            f"# {legend}",
            f"# recorded on Python {platform.python_version()}, numpy "
            f"{np.__version__}, {platform.system()} {platform.machine()}",
        ]
        lines = []
        for number, fields in enumerate(inputs_of(), 1):
            inputs = " ".join(fields)
            line = _run(kind, fields)
            if old and old.get(inputs) != line:
                print(f"{path.name} record {number} ({inputs}) changed")
            lines.append(f"{inputs}\t{line}")
        path.write_text("\n".join(header + lines) + "\n")
        print(f"{path.name}: {len(lines)} records")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_corpus.py --record")
    record()
