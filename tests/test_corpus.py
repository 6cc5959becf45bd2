"""The recorded output corpus: the benchmark workloads' outputs, to the bit.

tests/data/corpus_staircase.txt holds every estimate of the staircase
workload's inputs for seeds 1..5, one `rotation_number` call per line:
c, tol and t, then the estimate's value and radius as `float.hex`, its
lock p/q (or -) and its iterations.  tests/data/corpus_count.txt holds
every pair count of the count workload's inputs for seeds 1..3, one
`count_poncelet_pairs` call per line: c, n and the closure seed, then
each pair's t (hex), p and closure residual (hex), and the missing
pairs' (p, reason).  Both run on poncelet_family(1.0, c).

The inputs are written into the files, so the test reads no benchmark
code; each file's header names the platform that recorded it.  The test
recomputes every line and fails by naming the first records that
differ.  A change that moves an output re-records with

    PYTHONPATH=src python tests/test_corpus.py --record

which draws the inputs from perfbench's `make_inputs` again, and lists
the lines it changed.
"""

import functools
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from poncelet.families import poncelet_family
from poncelet.rotation import count_poncelet_pairs, rotation_number

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
R = 1.0
SHOWN = 5  # differing records a failure names


@functools.cache
def _family(c):
    return poncelet_family(R, c)


def _estimate(c, tol, t):
    est = rotation_number(_family(c).lift(t), tol=tol)
    lock = "-" if est.lock is None else "%d/%d" % est.lock
    return (f"{est.value.hex()} {est.error_radius.hex()} {lock} "
            f"{est.iterations}")


def _count(c, n, seed):
    report = count_poncelet_pairs(_family(c), n, seed=seed)
    pairs = " ".join(f"{pair.t.hex()}:{pair.p}:{pair.closure_residual.hex()}"
                     for pair in report.pairs)
    return f"{pairs or '-'}\t{report.missing!r}"


def _run(kind, fields):
    if kind == "staircase":
        c, tol, t = map(float, fields)
        return _estimate(c, tol, t)
    c, n, seed = float(fields[0]), int(fields[1]), int(fields[2])
    return _count(c, n, seed)


# (workload, seeds, legend of a line)
CORPORA = {
    "staircase": (range(1, 6), "c tol t\tvalue radius lock iterations"),
    "count": (range(1, 4), "c n seed\tt:p:residual ...\t[(p, reason), ...]"),
}


def _read(kind):
    """The (inputs, outputs) records of a corpus file, header skipped."""
    lines = (DATA / f"corpus_{kind}.txt").read_text().splitlines()
    return [line.split("\t", 1) for line in lines if not line.startswith("#")]


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


def _inputs(kind, seeds):
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


def record():
    """Rewrite both corpus files from the workloads' inputs, and print the
    number of each record whose line changed."""
    DATA.mkdir(exist_ok=True)
    for kind, (seeds, legend) in CORPORA.items():
        path = DATA / f"corpus_{kind}.txt"
        old = dict(_read(kind)) if path.exists() else {}
        header = [
            f"# {kind} workload, seeds {seeds.start}..{seeds.stop - 1}, "
            f"on poncelet_family({R}, c)",
            f"# {legend}",
            f"# recorded on Python {platform.python_version()}, numpy "
            f"{np.__version__}, {platform.system()} {platform.machine()}",
        ]
        lines = []
        for number, fields in enumerate(_inputs(kind, seeds), 1):
            inputs = " ".join(fields)
            line = _run(kind, fields)
            if old and old.get(inputs) != line:
                print(f"{path.name} record {number} ({inputs}) changed")
            lines.append(f"{inputs}\t{line}")
        path.write_text("\n".join(header + lines) + "\n")
        print(f"{path.name}: {len(lines)} records")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --record")
    record()
