"""Benchmark of the poncelet package: one workload per run, one operation
at a time (closed loop, one caller, no threads), every result checked
against a closed-form oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: it imports the package from `src/` and fails when
that is missing.  It never builds or forces a kernel backend.

--trace 0 prints the end-to-end metrics: set-up time, operations per
second, median and tail latency, failed share and peak memory.  The run's
cycles are shared out over WORKERS fresh processes started one after the
other, so a process-wide speed difference (memory layout, core placement)
averages out instead of moving the whole run; each worker's time to become
ready is one set-up sample.  Times are rescaled to a reference machine
speed (see clock.py); the raw wall-clock figures are printed next to them.

--trace 1 records spans around the calls into each module for half the
time, in this process, replays the same operations untraced to measure
the tracing overhead, and prints the per-layer metrics.

The last line of standard output is one JSON object; per-operation
records, the environment and the spans go to perfbench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads
from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

WORKERS = 3
TAIL_BEYOND = 10
# a run that takes this many times --seconds stops mid-cycle
HARD_STOP_FACTOR = 3.0
HARD_STOP_MAX_S = 120.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run cycles PART, PART + WORKERS, ... and report them
    parser.add_argument("--worker-part", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker-budget", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    import poncelet
    if Path(poncelet.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"poncelet imported from {poncelet.__file__}, "
                           f"not from {SRC}")
    return poncelet


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(backend, seed):
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "backend": backend,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "PONCELET_PURE_PY": os.environ.get("PONCELET_PURE_PY"),
    }


def cycle_count(workload, seconds):
    """A run holds a fixed number of whole cycles, set by `seconds` and the
    workload's nominal cycle time, not by the machine's speed at the time:
    then every run measures the same mix and its median and tail fall on
    the same operations."""
    return max(1, round(seconds / workload.CYCLE_S))


def drive(workload, api, clock, units, budget_s, in_process):
    """Run `units` in order, stopping early once `budget_s` has passed.

    Returns the operations and the units run (for an exact replay)."""
    ops = []
    ran = []
    start = time.perf_counter()
    for unit in units:
        ops.extend(workload.run(api, clock, unit, in_process))
        ran.append(unit)
        if time.perf_counter() - start >= budget_s:
            break
    return ops, ran


def rescale(clock, ops):
    """Scale each operation by the ticks around it, unless it ran in a
    process of its own that brought its own scale."""
    for op in ops:
        if "scale" not in op:
            op["scale"] = clock.scale(op["start"], op["end"])


def busy_s(ops):
    """Rescaled seconds spent in the operations."""
    return sum(op["wall"] * op["scale"] for op in ops)


def peak_rss_mb(workload_name):
    # the cli workload's operations run in child processes
    who = (resource.RUSAGE_CHILDREN if workload_name == "cli"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_worker(args, workload):
    """One worker process: set up, say so, run its share of the cycles."""
    with Clock() as clock:
        poncelet = import_program()
        inputs = workloads.make_inputs(args.workload, args.seed)
        print(json.dumps({"stolen": clock.stolen,
                          "scale": clock.whole_scale()}), flush=True)
        api = workloads.load_api()
        cycles = cycle_count(workload, args.seconds)
        units = [unit for k in range(args.worker_part, cycles, WORKERS)
                 for unit in inputs[k % len(inputs)]]
        ops, _ = drive(workload, api, clock, units, args.worker_budget,
                       in_process=False)
    rescale(clock, ops)
    print(json.dumps({"ops": ops, "backend": poncelet.BACKEND,
                      "peak_rss_mb": peak_rss_mb(args.workload)}),
          flush=True)
    return 0


def start_worker(args, part, budget_s):
    """Run worker `part` to its end; return its set-up sample and report."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--worker-part", str(part),
           "--worker-budget", repr(budget_s)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        report = proc.stdout.read()
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker {part} failed (exit {proc.returncode})")
    ready = json.loads(ready)
    setup = {"wall": elapsed - ready["stolen"], "scale": ready["scale"]}
    return setup, json.loads(report.splitlines()[-1])


def latency_metrics(ops, rescaled=True):
    lat = sorted(op["wall"] * (op["scale"] if rescaled else 1.0)
                 for op in ops)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    failed = sum(op["problem"] is not None for op in ops)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (lat[n - 1 - beyond], "s"),
        "failed_share": (failed / n, "share"),
    }
    tail_info = {"percentile": 100.0 * (n - beyond) / n, "samples": n,
                 "beyond": beyond}
    return metrics, tail_info


def run_untraced(args, workload):
    start = time.perf_counter()
    hard_stop = min(HARD_STOP_FACTOR * args.seconds, HARD_STOP_MAX_S)
    setups = []
    reports = []
    for part in range(min(WORKERS, cycle_count(workload, args.seconds))):
        budget = hard_stop - (time.perf_counter() - start)
        setup, report = start_worker(args, part, budget)
        setups.append(setup)
        reports.append(report)
    ops = [op for report in reports for op in report["ops"]]
    metrics, tail_info = latency_metrics(ops)
    metrics["setup_s"] = (statistics.median(
        s["wall"] * s["scale"] for s in setups), "s")
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in reports), "MB")
    raw, _ = latency_metrics(ops, rescaled=False)
    del raw["failed_share"]
    raw["setup_s"] = (statistics.median(s["wall"] for s in setups), "s")
    extra = {"setup_samples": setups, "tail": tail_info,
             "raw_wall_clock": raw}
    return reports[0]["backend"], ops, ops, metrics, extra, None


def run_traced(args, workload):
    start = time.perf_counter()
    import poncelet.cli  # noqa: F401  (timed: the import every command pays)
    import_s = time.perf_counter() - start
    poncelet = import_program()
    from poncelet import kernels
    from poncelet.kernels import _ref

    metrics = {}
    metrics.update(tracing.kernel_regimes(_ref, "ref"))
    metrics.update(tracing.kernel_regimes(kernels.impl, "active"))
    inputs = workloads.make_inputs(args.workload, args.seed)
    api = workloads.load_api()
    units = [unit for k in range(cycle_count(workload, args.seconds / 2.0))
             for unit in inputs[k % len(inputs)]]
    budget = min(HARD_STOP_FACTOR * args.seconds, HARD_STOP_MAX_S) / 2.0
    tracer = tracing.Tracer()
    with Clock() as clock:
        tracer.install()
        try:
            traced, units = drive(workload, api, clock, units, budget,
                                  in_process=True)
        finally:
            tracer.restore()
        replay, _ = drive(workload, api, clock, units, budget,
                          in_process=True)
    rescale(clock, traced + replay)
    metrics.update(tracing.layer_metrics(tracer, len(traced)))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.ops_per_s"] = (len(traced) / busy_s(traced), "1/s")
    metrics["trace.untraced_ops_per_s"] = (len(replay) / busy_s(replay),
                                           "1/s")
    metrics["trace.overhead_share"] = (busy_s(traced) / busy_s(replay) - 1.0,
                                       "share")
    return poncelet.BACKEND, traced, traced + replay, metrics, {}, tracer


def classify(workload_name, ops):
    """Failures by known defect; the ones no known defect explains."""
    known = {}
    unexpected = []
    for op in ops:
        if op["problem"] is None:
            continue
        defect = oracles.known_defect(workload_name, op["case"],
                                      op["problem"])
        op["known_defect"] = defect
        if defect is None:
            unexpected.append(op)
        else:
            known[defect] = known.get(defect, 0) + 1
    return known, unexpected


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "poncelet" / "__init__.py").is_file():
        print(f"error: no poncelet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    if args.worker_part is not None:
        return run_worker(args, workload)
    runner = run_traced if args.trace else run_untraced
    backend, counted, checked, metrics, extra, tracer = runner(args,
                                                               workload)
    _, unexpected = classify(args.workload, checked)
    known, _ = classify(args.workload, counted)
    failed = sum(op["problem"] is not None for op in counted)
    env = environment(backend, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    raw = extra.get("raw_wall_clock", {})
    for name, (value, unit) in metrics.items():
        note = f"  (wall clock {raw[name][0]:.6g})" if name in raw else ""
        if name == "op_tail_s":
            tail = extra["tail"]
            note += (f"  p{tail['percentile']:.1f}, {tail['beyond']} of "
                     f"{tail['samples']} samples beyond")
        elif name == "setup_s":
            note += f"  median of {len(extra['setup_samples'])} processes"
        print(f"  {name:40s} {value:.6g} {unit}{note}")
    print(f"  failed {failed} of {len(counted)} operations")
    for defect, hits in known.items():
        print(f"    known defect x{hits}: {defect}")
    for op in unexpected[:10]:
        print(f"    UNEXPECTED {op['case']}: {op['problem']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics, **extra,
                   "known_defects": known, "operations": checked}, fh,
                  indent=1, default=str)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
