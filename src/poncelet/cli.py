"""Command-line front end: every pipeline as a reproducible experiment
emitting CSV or JSON (`orbit` and `staircase` through one table writer).

Only the scalar geometry and the exact continued fractions are imported
here, and neither loads numpy.  The commands that iterate circle maps
(`staircase`, `count`, `prop2`) import the family modules themselves,
after their argument checks (`count` checks --n-max against
`rotation.MAX_STEPS` first; `rotation` loads no numpy on import).  Of
those, only `staircase` and `prop2` tabulate orbits over arrays and load
numpy: `orbit`, `cf`, `count` and every rejected input start without it.

Exit codes: 0 success (or inapplicable: `prop2` at a locked tau, status
"inapplicable", or with no bracket found, status "no-brackets"), 2 invalid
configuration (`count` with --n-max above MAX_STEPS = 2^20 among them,
before any counting: each residual would run n steps), 3 property/theorem
check failed.  JSON output is strict: no NaN or Infinity.
"""

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .confrac import (
    FIB_RECIP,
    PrecisionExhaustedError,
    cf_expand,
    find_balanced_pairs,
    remainder_series,
)
from .geometry import (
    TWO_PI,
    PonceletConfig,
    poncelet_map_analytic,
    poncelet_map_geometric,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPERTY = 3

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def _fmt(x):
    """17 significant digits: lossless double round-trip."""
    return "%.17g" % x


def _run_config(args):
    # the output path is not part of the experiment: identical settings
    # must give identical bytes regardless of where they are written
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out")}
    cfg["version"] = __version__
    return cfg


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out):
    _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
          + "\n", out)


def _finite(x):
    """x, or None (JSON null) for a nan or an infinity."""
    return x if math.isfinite(x) else None


def _emit_table(args, rows, verdict=None):
    """Write row dicts as JSON {"config", "rows"[, "verdict"]}, or as CSV
    (header from the row keys, floats through `_fmt`, CRLF) with the
    verdict after it on stdout, or in OUT.verdict.json with --out OUT."""
    if args.format == "json":
        payload = {"config": _run_config(args), "rows": rows}
        if verdict is not None:
            payload["verdict"] = verdict
        _emit_json(payload, args.out)
        return
    lines = [rows[0].keys()] + [
        [_fmt(v) if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows]
    _emit("".join(",".join(line) + "\r\n" for line in lines), args.out)
    if verdict is not None:
        _emit_json(verdict, args.out and args.out + ".verdict.json")


def _circ_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def _make_family(args, reverse=False):
    from .families import arnold_family, poncelet_family, rigid_family

    if args.family == "poncelet":
        return poncelet_family(args.R, args.c, reverse)
    if args.family == "arnold":
        return arnold_family(args.K)
    return rigid_family()


# ---------------------------------------------------------------- orbit

def cmd_orbit(args):
    if args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    if not math.isfinite(args.theta0):
        raise ValueError(f"--theta0 must be finite, got {args.theta0}")
    cfg = PonceletConfig(args.R, args.c, args.t)
    theta = args.theta0 % TWO_PI
    rows = []
    prev = None
    for k in range(args.steps + 1):
        theta_next, phi = poncelet_map_geometric(theta, cfg)
        if prev is not None:
            theta_pred, phi_pred = poncelet_map_analytic(*prev, cfg)
            residual = max(_circ_dist(theta_pred, theta, TWO_PI),
                           _circ_dist(phi_pred, phi, math.pi))
        else:
            residual = 0.0
        rows.append({
            "k": k, "theta": theta, "phi": phi,
            "x": theta / TWO_PI, "y": phi / math.pi,
            "residual": residual,
        })
        prev = theta, phi
        theta = theta_next
    _emit_table(args, rows)
    return EXIT_OK


# ------------------------------------------------------------ staircase

def cmd_staircase(args):
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    from .rotation import staircase

    family = _make_family(args)
    t_lo = family.a if args.t_min is None else args.t_min
    t_hi = family.b if args.t_max is None else args.t_max
    if not family.a <= t_lo < t_hi <= family.b:
        raise ValueError(f"grid [{t_lo}, {t_hi}] outside parameter interval")
    # the width scaled into [1/2, 1) and back, exactly: (t_hi - t_lo) * i
    # would overflow for an R near the float maximum
    width, e = math.frexp(t_hi - t_lo)
    grid = [t_lo + math.ldexp(width * i / (args.points - 1), e)
            for i in range(args.points)]
    result = staircase(family, grid, tol=args.tol)

    rows = []
    for t, est in result.points:
        lock_p, lock_q = est.lock if est.lock else ("", "")
        rows.append({
            "t": t, "r": est.value, "error_radius": est.error_radius,
            "lock_p": lock_p, "lock_q": lock_q,
        })
    verdict = {
        "direction": result.direction,
        "monotone_ok": result.monotone_ok,
        "violations": [[t1, t2, d] for t1, t2, d in result.violations],
    }
    _emit_table(args, rows, verdict)
    return EXIT_OK if result.monotone_ok else EXIT_PROPERTY


# ---------------------------------------------------------------- count

def cmd_count(args):
    from .rotation import MAX_STEPS, count_poncelet_pairs

    if args.n_max < args.n_min:
        raise ValueError(f"--n-max {args.n_max} is below --n-min {args.n_min}")
    if args.n_max > MAX_STEPS:
        raise ValueError(f"--n-max {args.n_max} > MAX_STEPS = {MAX_STEPS}")
    from .families import poncelet_family

    family = poncelet_family(args.R, args.c)
    results = []
    all_ok = True
    for n in range(args.n_min, args.n_max + 1):
        report = count_poncelet_pairs(family, n, seed=args.seed)
        all_ok = all_ok and report.ok
        results.append({
            "n": n,
            "expected": report.expected,
            "count": len(report.pairs),
            "ok": report.ok,
            "pairs": [{"t": p.t, "p": p.p,
                       "closure_residual": p.closure_residual}
                      for p in report.pairs],
            "missing": [{"p": p, "reason": reason}
                        for p, reason in report.missing],
        })
    _emit_json({"config": _run_config(args), "results": results,
                "all_ok": all_ok}, args.out)
    return EXIT_OK if all_ok else EXIT_PROPERTY


# ------------------------------------------------------------------ cf

def _parse_x(text):
    if text == "golden":
        return GOLDEN_CONJUGATE
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"--x {text} has a zero denominator") from None
    return float(text)


def _cf_report(x, eps, n_max):
    try:
        exp = cf_expand(x)
    except PrecisionExhaustedError as err:
        return {"input": str(x), "error": str(err)}
    records = remainder_series(exp, n_max=n_max)
    pairs = find_balanced_pairs(exp, eps=eps, n_max=n_max)
    return {
        "input": str(x),
        "a0": exp.a0,
        "quotients": exp.quotients,
        "convergents": [[str(p), str(q)] for p, q in exp.convergents],
        "exact": exp.exact,
        "remainders": [{
            "n": r.n, "log_qn": r.log_qn, "gauss_sum": r.gauss_sum,
            "remainder": r.remainder, "within_bound": r.within_bound,
        } for r in records],
        "bound_violations": sum(not r.within_bound for r in records),
        "pairs": [{
            "excess": str(p.excess), "defect": str(p.defect),
            "index": p.index, "ratio": p.ratio, "gap_ok": p.gap_ok,
        } for p in pairs],
    }


def cmd_cf(args):
    if (args.x is None) == (args.random is None):
        raise ValueError("provide exactly one of --x or --random")
    if args.random is not None and args.random < 1:
        raise ValueError(f"--random must be at least 1, got {args.random}")
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if args.x is not None:
        inputs = [_parse_x(args.x)]
    else:
        rng = random.Random(args.seed)
        inputs = [rng.random() for _ in range(args.random)]
    reports = [_cf_report(x, args.eps, args.n_max) for x in inputs]
    total_violations = sum(r.get("bound_violations", 0) for r in reports)
    _emit_json({"config": _run_config(args), "F": FIB_RECIP,
                "reports": reports,
                "total_bound_violations": total_violations}, args.out)
    return EXIT_OK if total_violations == 0 else EXIT_PROPERTY


# ---------------------------------------------------------------- prop2

def cmd_prop2(args):
    from .rotation import find_parameter_for_value
    from .twistfam import second_order_estimate

    # the Poncelet r(t) falls from 1/2 to 0: flip the parameter to make the
    # family increasing, and aim at the golden-mean value inside [0, 1/2]
    family = _make_family(args, reverse=True)
    target = (1.0 - GOLDEN_CONJUGATE if args.family == "poncelet"
              else GOLDEN_CONJUGATE)
    if args.tau is not None:
        tau = args.tau
    elif args.family == "rigid":
        tau = target
    else:
        tau = find_parameter_for_value(family, target, tol=args.tol)
    report = second_order_estimate(family, tau, tol=args.tol)
    payload = {
        "config": _run_config(args),
        "tau": report.tau,
        "status": report.status,
        "best_ratio": _finite(report.best_ratio),
        "bound": _finite(report.bound),
        "margin": _finite(report.margin),
        "pass": report.passed if report.status == "ok" else None,
        "brackets": [[t1, t2, q] for t1, t2, q in report.brackets],
    }
    _emit_json(payload, args.out)
    if report.status != "ok":  # nothing was tested
        return EXIT_OK
    return EXIT_OK if report.passed else EXIT_PROPERTY


# ----------------------------------------------------------------- main

def build_parser():
    # each subcommand takes only the options it reads, so the embedded
    # config lists only settings that reached the computation; an option
    # that several read is declared once, in a parent parser
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--R", type=float, default=1.0)
    pair.add_argument("--c", type=float, default=0.0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output path (stdout if absent)")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=["csv", "json"], default="csv")

    parser = argparse.ArgumentParser(
        prog="poncelet",
        description="Poncelet billiard twist-map experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[pair, table],
                       help="iterate the tangent-line map")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta0", type=float, default=0.0,
                   help="start angle (rad); write -1e-3 as --theta0=-1e-3")
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("staircase", parents=[pair, table],
                       help="rotation number over a parameter grid")
    p.add_argument("--family", choices=["poncelet", "arnold", "rigid"],
                   default="poncelet")
    p.add_argument("--K", type=float, default=0.8)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="rotation-number tolerance")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("count", parents=[pair, out],
                       help="n-Poncelet pair counting")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("cf", parents=[out], help="continued-fraction reports")
    p.add_argument("--x", default=None,
                   help="decimal, p/q, or 'golden'; write -3/7 as --x=-3/7")
    p.add_argument("--random", type=int, default=None,
                   help="number of seeded random samples in (0,1)")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("prop2", parents=[pair, out],
                       help="second-order growth estimate")
    p.add_argument("--family", choices=["poncelet", "arnold", "rigid"],
                   default="arnold")
    p.add_argument("--K", type=float, default=0.7)
    p.add_argument("--tau", type=float, default=None,
                   help="parameter (for poncelet, s = R - c - t); "
                        "auto-located at the golden-mean rotation value "
                        "if absent")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="rotation-number tolerance")
    p.set_defaults(func=cmd_prop2)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
