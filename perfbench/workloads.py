"""The benchmark's four workloads.

A workload turns a seed into a list of cycles.  A cycle is a fixed mix of
units; a unit is one call into the program and yields one or more
operations, each timed (see clock.py) and checked against its oracle.  The
seed draws the non-oracle parameters of every cycle; the oracle points are
in every cycle.  A run is a whole number of cycles: --seconds divided by
the workload's CYCLE_S, its nominal cycle time on the numpy backend.

This module does not import poncelet at import time: `make_inputs` is part
of the measured set-up and must cost only what it generates.
"""

import io
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

R = 1.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Cycles generated up front; a run that needs more wraps around.
CYCLES = 16


# `python -m poncelet.cli ARGV...` with the process's own ticks (clock.py)
# reported on stderr at exit, after any traceback; stdout and the exit code
# are the command's own.
TICKS_TAG = b"perfbench-ticks"
# documented invalid inputs of the command line: each must exit 2
INVALID_INPUTS = ("staircase-points-1", "cf-x-inf")
CLI_WRAPPER = """\
import atexit, runpy, sys
sys.path.insert(0, sys.argv[1])
import clock
ticker = clock.Clock().__enter__()
def report():
    ticker.__exit__()
    sys.stderr.write("\\nperfbench-ticks %r %r\\n"
                     % (ticker.stolen, ticker.whole_scale()))
atexit.register(report)
sys.argv = ["poncelet"] + sys.argv[2:]
runpy.run_module("poncelet.cli", run_name="__main__", alter_sys=True)
"""


def load_api():
    """The poncelet modules the workloads call, imported from the checkout."""
    from poncelet import cli, families, rotation, twistfam
    return {"cli": cli, "families": families, "rotation": rotation,
            "twistfam": twistfam}


def _op(case, interval, problem):
    """One operation: when it ran (see Clock.interval) and the oracle's
    verdict (None when accepted)."""
    return {"case": case, **interval, "problem": problem}


def _err(exc):
    return f"raised {type(exc).__name__}: {exc}"


class Staircase:
    """One operation is one `rotation_number` call made by `staircase()`."""

    name = "staircase"
    CYCLE_S = 6.0
    # (c, tol, interior points); c = None is the seeded off-centre grid
    GRIDS = [(0.0, 1e-5, 1), (0.3, 1e-4, 2), (0.6, 1e-4, 2), (0.9, 1e-4, 2),
             (None, 1e-4, 2)]

    def cycle(self, rng):
        units = []
        for c, tol, interior in self.GRIDS:
            if c is None:
                c = round(rng.uniform(0.1, 0.9), 6)
            b = R - c
            grid = [(0.0, "start"), (oracles.euler_radius(R, c), "triangle"),
                    (oracles.fuss_radius(R, c), "quad"), (b, "end")]
            grid += [(rng.uniform(0.05, 0.95) * b, "interior")
                     for _ in range(interior)]
            grid.sort()
            units.append({"c": c, "tol": tol, "grid": grid})
        return units

    def run(self, api, clock, unit, in_process=False):
        rotation = api["rotation"]
        family = api["families"].poncelet_family(R, unit["c"])
        timings = []
        inner = rotation.rotation_number

        def timed(*args, **kwargs):
            start = clock.now()
            try:
                return inner(*args, **kwargs)
            finally:
                timings.append(clock.interval(start, clock.now()))

        cases = [{"c": unit["c"], "t": t, "label": label, "tol": unit["tol"]}
                 for t, label in unit["grid"]]
        rotation.rotation_number = timed
        try:
            result = rotation.staircase(family, [t for t, _ in unit["grid"]],
                                        tol=unit["tol"])
        except Exception as exc:  # the run goes on; the grid's points fail
            return [_op(case, interval, _err(exc))
                    for case, interval in zip(cases, timings)]
        finally:
            rotation.rotation_number = inner
        points = [(t, label, est.value, est.error_radius)
                  for (t, label), (_, est) in zip(unit["grid"], result.points)]
        problems = oracles.check_staircase(R, unit["c"], points,
                                           result.violations)
        return [_op(case, interval, prob) for case, interval, prob
                in zip(cases, timings, problems)]


class Count:
    """One operation is one `count_poncelet_pairs(family, n)` call."""

    name = "count"
    CYCLE_S = 6.0
    OFFSETS = (0.0, 0.3, 0.6, 0.9)
    N_MAX = 12

    def cycle(self, rng):
        return [{"c": c, "n": n, "closure_seed": rng.randrange(2 ** 31)}
                for c in self.OFFSETS for n in range(3, self.N_MAX + 1)]

    def run(self, api, clock, unit, in_process=False):
        family = api["families"].poncelet_family(R, unit["c"])
        case = {"c": unit["c"], "n": unit["n"], "label": f"n={unit['n']}"}
        start = clock.now()
        try:
            report = api["rotation"].count_poncelet_pairs(
                family, unit["n"], seed=unit["closure_seed"])
        except Exception as exc:
            return [_op(case, clock.interval(start, clock.now()), _err(exc))]
        interval = clock.interval(start, clock.now())
        pairs = [(p.t, p.p, p.closure_residual) for p in report.pairs]
        return [_op(case, interval,
                    oracles.check_count(R, unit["c"], unit["n"], pairs))]


class Growth:
    """One operation is `find_parameter_for_value` at a golden-mean rotation
    value followed by `second_order_estimate` at the parameter found."""

    name = "growth"
    CYCLE_S = 3.0
    # input size: estimator tolerance, bisection steps, bracket count
    TOL = 1e-3
    ITERS = 20
    DELTAS = (0.05, 0.025, 0.0125, 0.00625)
    KINDS = ("poncelet", "arnold", "rigid", "arnold", "rigid", "arnold")

    def cycle(self, rng):
        units = []
        for kind in self.KINDS:
            if kind == "poncelet":
                units.append({"kind": kind, "c": rng.uniform(0.15, 0.5)})
            elif kind == "arnold":
                units.append({"kind": kind, "K": rng.uniform(0.3, 0.9)})
            else:
                units.append({"kind": kind, "a": rng.uniform(0.2, 0.5),
                              "b": rng.uniform(0.7, 0.95)})
        return units

    def run(self, api, clock, unit, in_process=False):
        families = api["families"]
        kind = unit["kind"]
        if kind == "poncelet":
            # r runs over [0, 1/2]; 1 - GOLDEN is the golden-mean value there
            family = families.poncelet_family(R, unit["c"], reverse=True)
            target = 1.0 - GOLDEN
        elif kind == "arnold":
            family = families.arnold_family(unit["K"])
            target = GOLDEN
        else:
            family = families.rigid_family(a=unit["a"], b=unit["b"])
            target = GOLDEN
        case = dict(unit, label=kind)
        start = clock.now()
        try:
            tau = api["rotation"].find_parameter_for_value(
                family, target, iters=self.ITERS, tol=self.TOL)
            report = api["twistfam"].second_order_estimate(
                family, tau, delta_seq=list(self.DELTAS), tol=self.TOL)
        except Exception as exc:
            return [_op(case, clock.interval(start, clock.now()), _err(exc))]
        interval = clock.interval(start, clock.now())
        return [_op(case, interval,
                    oracles.check_growth(report.status, report.passed))]


class Cli:
    """One operation is one `poncelet` command: a fresh process, or in the
    traced run a `poncelet.cli.main(argv)` call in this process."""

    name = "cli"
    CYCLE_S = 4.5
    ORBIT_STEPS = 1000
    CF_SAMPLES = 100
    COUNT_N_MAX = 6

    def cycle(self, rng):
        c = rng.uniform(0.0, 0.5)
        orbit = ["orbit", "--c", repr(c),
                 "--t", repr(rng.uniform(0.05, 0.9) * (R - c)),
                 "--theta0", repr(rng.uniform(0.0, 2.0 * math.pi)),
                 "--steps", str(self.ORBIT_STEPS)]
        cf = ["cf", "--random", str(self.CF_SAMPLES),
              "--seed", str(rng.randrange(2 ** 31))]
        count = ["count", "--n-max", str(self.COUNT_N_MAX), "--c", "0.3",
                 "--seed", str(rng.randrange(2 ** 31))]
        return [
            {"label": "orbit", "runs": [orbit]},
            {"label": "cf-random", "runs": [cf]},
            {"label": "count-twice", "runs": [count, count]},
            {"label": "staircase-points-1",
             "runs": [["staircase", "--points", "1"]]},
            {"label": "cf-x-inf", "runs": [["cf", "--x", "inf"]]},
        ]

    def _subprocess(self, argv):
        """Exit code, stdout and the process's own (stolen, scale).

        Output goes to unnamed files, not pipes: a command that blocks
        writing a full pipe while its ticks interrupt it can lose output."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryFile(dir=HERE) as out, \
                tempfile.TemporaryFile(dir=HERE) as err:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_WRAPPER, str(HERE), *argv],
                stdout=out, stderr=err, env=env, cwd=ROOT, timeout=150)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        ticks = [line.split() for line in stderr.splitlines()
                 if line.startswith(TICKS_TAG)]
        stolen, scale = map(float, ticks[-1][1:])
        return proc.returncode, stdout, stolen, scale

    @staticmethod
    def _in_process(api, argv):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = api["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a process would die with a traceback: exit 1
            code = 1
        return code, out.getvalue().encode("utf-8"), 0.0, None

    def _check(self, label, code, stdout):
        if label in INVALID_INPUTS:
            return oracles.check_exit(oracles.EXIT_CONFIG, code)
        problem = oracles.check_exit(oracles.EXIT_OK, code)
        if problem is not None:
            return problem
        text = stdout.decode("utf-8")
        if label == "orbit":
            return oracles.check_orbit_csv(text, self.ORBIT_STEPS)
        if label == "cf-random":
            return oracles.check_cf_json(text, self.CF_SAMPLES)
        return oracles.check_count_json(text, 3, self.COUNT_N_MAX)

    def run(self, api, clock, unit, in_process=False):
        ops = []
        outputs = []
        for argv in unit["runs"]:
            start = clock.now()
            code, stdout, stolen, scale = (
                self._in_process(api, argv) if in_process
                else self._subprocess(argv))
            interval = clock.interval(start, clock.now())
            if scale is not None:
                interval["wall"] -= stolen
                interval["scale"] = scale
            problem = self._check(unit["label"], code, stdout)
            if problem is None and outputs and stdout != outputs[0]:
                problem = "rerun output differs byte-wise from the first run"
            outputs.append(stdout)
            ops.append(_op({"label": unit["label"], "exit": code}, interval,
                           problem))
        return ops


WORKLOADS = {w.name: w for w in (Staircase(), Count(), Growth(), Cli())}


def make_inputs(name, seed):
    """The cycles of workload `name` for `seed`; same seed, same inputs."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [workload.cycle(rng) for _ in range(CYCLES)]
