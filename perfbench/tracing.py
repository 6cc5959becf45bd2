"""Spans around the calls into each module of the program, recorded from
the benchmark's side, and the per-layer metrics computed from them.

`Tracer.install()` replaces every binding of each traced function (a
module attribute in any loaded `poncelet` module, or a class attribute for
methods) with a wrapper that records name, start, end and parent span;
`restore()` puts the originals back.  Spans stay in memory until `dump`.
A span's self time is its duration minus the durations of its children.
"""

import json
import statistics
import sys
import time

# module -> functions traced at every binding site
FUNCTIONS = {
    "geometry": ["poncelet_map_geometric", "poncelet_map_analytic",
                 "tangent_direction", "twist_map", "generating_potential",
                 "area_twist_check"],
    "families": ["poncelet_family", "arnold_family", "rigid_family"],
    "rotation": ["rotation_number", "staircase", "solve_rotation",
                 "detect_rational_lock", "verify_closure",
                 "find_parameter_for_value", "count_poncelet_pairs"],
    "twistfam": ["twist_margin", "separation_alpha", "_separation",
                 "comparison_check", "second_order_estimate",
                 "proposition1_check"],
    "confrac": ["cf_expand", "remainder_series", "find_balanced_pairs",
                "second_order_bound", "k_epsilon", "check_gap_inequality"],
    "cli": ["main", "cmd_orbit", "cmd_staircase", "cmd_count", "cmd_cf",
            "cmd_prop2"],
}
# the lifts reach the kernels through these attributes of poncelet.kernels
KERNELS = ["poncelet_advance", "poncelet_orbit", "arnold_advance",
           "arnold_orbit"]
# module -> (class, methods); only methods a class defines itself
METHODS = {
    "lifts": [(cls, ("__call__", "advance", "orbit_table", "validate"))
              for cls in ("CircleLift", "FunctionLift", "RigidLift",
                          "ArnoldLift", "PonceletLift")],
    "families": [("MonotoneCircleFamily", ("lift", "dgdt"))],
}

NARROW_POINTS = 8     # kernel calls this narrow are the estimators' orbits
WIDE_POINTS = 64      # kernel calls this wide are lock tables and batches
SHORT_STEPS = 64      # calls of at most this many point-steps: call overhead


def _points_steps(args, kwargs):
    xs, steps = args[0], args[1]
    return (len(xs) if hasattr(xs, "__len__") else 1), steps


def _lock_flag(result):
    return 1 if result.lock is not None else 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.aux = []
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.name_of)
            self.name_of.append(name)
        return self._ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """A wrapper of fn that records one span per call.  `before` maps
        the call's arguments and `after` its result to the span's aux."""
        nid = self._name_id(name)
        names, parents, starts, ends, aux, stack = (
            self.names, self.parents, self.starts, self.ends, self.aux,
            self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            aux.append(before(args, kwargs) if before else None)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after:
                aux[i] = after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import poncelet
        import poncelet.cli  # noqa: F401  (a binding site of its own)
        from poncelet import kernels

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "poncelet"
                                         or n.startswith("poncelet."))]
        for name in KERNELS:
            self._patch(kernels, name, self.wrap(
                getattr(kernels, name), f"kernels.{name}",
                before=_points_steps))
        for mod_name, funcs in FUNCTIONS.items():
            home = sys.modules[f"poncelet.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                after = _lock_flag if func == "rotation_number" else None
                wrapper = self.wrap(original, f"{mod_name}.{func}",
                                    after=after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for mod_name, classes in METHODS.items():
            home = sys.modules[f"poncelet.{mod_name}"]
            for cls_name, methods in classes:
                cls = getattr(home, cls_name)
                for method in methods:
                    if method in vars(cls):
                        self._patch(cls, method, self.wrap(
                            vars(cls)[method], f"{mod_name}.{method}"))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as parallel arrays; times in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.name_of, "name": self.names,
                       "parent": self.parents, "start": self.starts,
                       "end": self.ends}, fh)


def layer_metrics(tr, n_ops):
    """Per-layer metrics from the spans of `n_ops` operations.  Counts and
    self times are per operation."""
    n = len(tr.names)
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    own = list(dur)
    for i, p in enumerate(tr.parents):
        if p >= 0:
            own[p] -= dur[i]
    name = [tr.name_of[k] for k in tr.names]
    layer = [s.split(".", 1)[0] for s in name]

    def nearest(i, wanted):
        p = tr.parents[i]
        while p >= 0:
            if name[p] == wanted:
                return p
            p = tr.parents[p]
        return -1

    def count(pred):
        return sum(1 for i in range(n) if pred(i))

    def self_s(pred):
        return sum(own[i] for i in range(n) if pred(i)) * 1e-9

    per_op = 1.0 / n_ops
    m = {}

    kern = [i for i in range(n) if layer[i] == "kernels"]
    narrow = [i for i in kern if tr.aux[i][0] <= NARROW_POINTS]
    wide = [i for i in kern if tr.aux[i][0] >= WIDE_POINTS]

    def ns_per_point_step(idx):
        steps = sum(tr.aux[i][0] * tr.aux[i][1] for i in idx)
        return sum(own[i] for i in idx) / steps if steps else 0.0

    m["kernels.ns_per_point_step.narrow"] = (ns_per_point_step(narrow), "ns")
    m["kernels.ns_per_point_step.wide"] = (ns_per_point_step(wide), "ns")
    m["kernels.point_steps"] = (
        sum(tr.aux[i][0] * tr.aux[i][1] for i in kern) * per_op, "count/op")
    m["kernels.calls"] = (len(kern) * per_op, "count/op")
    m["kernels.short_calls"] = (count(
        lambda i: layer[i] == "kernels"
        and tr.aux[i][0] * tr.aux[i][1] <= SHORT_STEPS) * per_op, "count/op")
    m["kernels.self_s"] = (self_s(lambda i: layer[i] == "kernels") * per_op,
                           "s/op")

    lift_calls = count(lambda i: layer[i] == "lifts")
    lift_self = self_s(lambda i: layer[i] == "lifts")
    m["lifts.us_per_call"] = (
        lift_self / lift_calls * 1e6 if lift_calls else 0.0, "us")
    m["lifts.self_s"] = (lift_self * per_op, "s/op")
    m["lifts.scalar_calls"] = (
        count(lambda i: name[i] == "lifts.__call__") * per_op, "count/op")

    m["geometry.calls"] = (count(lambda i: layer[i] == "geometry") * per_op,
                           "count/op")
    m["geometry.self_s"] = (self_s(lambda i: layer[i] == "geometry")
                            * per_op, "s/op")

    m["families.lifts_built"] = (
        count(lambda i: name[i] == "families.lift") * per_op, "count/op")
    m["families.dgdt_calls"] = (
        count(lambda i: name[i] == "families.dgdt") * per_op, "count/op")
    m["families.self_s"] = (self_s(lambda i: layer[i] == "families")
                            * per_op, "s/op")

    est = [i for i in range(n) if name[i] == "rotation.rotation_number"]
    est_steps = sum(tr.aux[i][0] * tr.aux[i][1] for i in kern
                    if nearest(i, "rotation.rotation_number") >= 0)
    m["rotation.estimates"] = (len(est) * per_op, "count/op")
    m["rotation.point_steps_per_estimate"] = (
        est_steps / len(est) if est else 0.0, "count")
    m["rotation.lock_share"] = (
        sum(tr.aux[i] for i in est if tr.aux[i] is not None) / len(est)
        if est else 0.0, "share")
    m["rotation.self_s"] = (self_s(lambda i: layer[i] == "rotation")
                            * per_op, "s/op")
    m["rotation.solves"] = (
        count(lambda i: name[i] == "rotation.solve_rotation") * per_op,
        "count/op")
    m["rotation.bisect_steps"] = (count(
        lambda i: name[i] == "families.lift"
        and nearest(i, "rotation.solve_rotation") >= 0) * per_op, "count/op")
    m["rotation.closure.self_s"] = (
        self_s(lambda i: name[i] == "rotation.verify_closure") * per_op,
        "s/op")
    m["rotation.find_parameter.estimates"] = (sum(
        1 for i in est
        if nearest(i, "rotation.find_parameter_for_value") >= 0) * per_op,
        "count/op")

    m["twistfam.separations"] = (count(
        lambda i: name[i] in ("twistfam._separation",
                              "twistfam.separation_alpha")) * per_op,
        "count/op")
    m["twistfam.margin.self_s"] = (
        self_s(lambda i: name[i] == "twistfam.twist_margin") * per_op, "s/op")
    m["twistfam.self_s"] = (self_s(lambda i: layer[i] == "twistfam")
                            * per_op, "s/op")

    m["confrac.expansions"] = (
        count(lambda i: name[i] == "confrac.cf_expand") * per_op, "count/op")
    m["confrac.self_s"] = (self_s(lambda i: layer[i] == "confrac") * per_op,
                           "s/op")

    mains = [dur[i] for i in range(n) if name[i] == "cli.main"]
    m["cli.process_s"] = (
        statistics.fmean(mains) * 1e-9 if mains else 0.0, "s")
    m["cli.self_s"] = (self_s(lambda i: layer[i] == "cli") * per_op, "s/op")
    return m


# L0: the two regimes of benchmarks/bench_kernels.py, per kernel module
L0_POINTS = {"narrow": 1, "wide": 512}
L0_STEPS = {"narrow": 2000, "wide": 100}
L0_REPEATS = 3


def kernel_regimes(module, label):
    """ns per point-step of each kernel of `module` on 1 and 512 points."""
    import numpy as np

    calls = {
        "poncelet": lambda xs, n: module.poncelet_advance(xs, n, 1.0, 0.3,
                                                          0.2),
        "arnold": lambda xs, n: module.arnold_advance(xs, n, 0.3, 0.8),
    }
    rng = np.random.default_rng(0)
    m = {}
    for kernel, call in calls.items():
        for regime, points in L0_POINTS.items():
            xs = rng.uniform(0.0, 1.0, points)
            steps = L0_STEPS[regime]
            times = []
            for _ in range(L0_REPEATS):
                start = time.perf_counter_ns()
                call(xs, steps)
                times.append(time.perf_counter_ns() - start)
            m[f"L0.{label}.{kernel}.{regime}_ns_per_point_step"] = (
                statistics.median(times) / (points * steps), "ns")
    return m
